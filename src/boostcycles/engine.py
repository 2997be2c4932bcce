"""The iterative boosting map: selection, weight update, trace recording.

Selection picks the row of largest edge sum_i eta_i * w_i, lowest index on
ties. In exact mode every edge is summed as a Fraction. In float mode the
pool is screened with one matrix-vector product, and only the rows within
the product's rounding error of its maximum are re-scored with the
reference sum, so the chosen row and edge are bit-identical to scoring
every row with that sum. The first-above threshold scan is screened the
same way: only rows whose product comes within that error of the threshold
are re-scored.

The primary update is the rational form w_i -> w_i / (1 + eta_i * r), which is
self-normalizing: when r is the true edge of eta on w, the output sums to 1
with no renormalization. The exponential form w_i * exp(-eta_i * alpha) / Z
is kept as an independent oracle for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from .simplex import (
    DimensionMismatch,
    HypothesisPool,
    MistakeDichotomy,
    MistakeLattice,
    Scalar,
    WeightVector,
    edge_dot,
    is_exact,
    uniform_weights,
)


class WeakLearningFailure(RuntimeError):
    """No available dichotomy has a positive edge."""


class PerfectClassification(RuntimeError):
    """Edge reached 1; the rational update divides by zero at 1 - r."""


@dataclass(frozen=True)
class Optimal:
    """Pick the row maximizing the edge; ties break to the lowest index."""


@dataclass(frozen=True)
class FirstAbove:
    """Deliberately sub-optimal selection: scan the edges in increasing order
    and pick the first at or above theta (ties break to the lowest row index).

    Falls back to Optimal when nothing qualifies, so a selection is always
    made as long as some edge is positive. The at-or-above comparison matters:
    the trajectory that settles on the sqrt(2) two-cycle passes through an
    edge exactly equal to the 2/5 threshold.
    """

    theta: Scalar

    def __post_init__(self) -> None:
        if not 0 < self.theta < 1:
            raise ValueError("threshold must lie in (0, 1)")


@dataclass(frozen=True)
class FixedSequence:
    """Replay a scheduled row sequence, repeating it cyclically past its end."""

    rows: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.rows:
            raise ValueError("empty row schedule")


SelectionRule = Union[Optimal, FirstAbove, FixedSequence]

# Float screening margin, per point. The reference edge (edge_dot, Python's
# sum) and the matrix-vector product (any summation order) each add n exact
# terms +-w_i, so each lies within (n-1) * eps/2 * sum(w) of the exact dot
# product (Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.1),
# and sum(w) <= 1 + FLOAT_SUM_TOL. Let k be the row with the largest product.
# Comparing an excluded row's reference edge with row k's crosses four such
# errors, about 2 * (n-1) * eps in all, and the margin 4 * n * eps is twice
# that. So an excluded row's reference edge lies strictly below row k's: it
# can neither win nor tie the reference argmax. For the first-above scan, a
# row whose product is below theta - margin has a reference edge within
# (n-1) * eps * sum(w) of it, so below theta with room to spare for the
# rounding of theta - margin itself.
SCREEN_MARGIN = 4 * np.finfo(np.float64).eps


def select(
    w: WeightVector, pool: HypothesisPool, rule: SelectionRule, t: int = 0
) -> Tuple[int, MistakeDichotomy, Scalar]:
    """Choose a dichotomy from the pool; returns (row index, dichotomy, edge).

    The iteration index t only matters for FixedSequence schedules.
    Raises WeakLearningFailure when Optimal (or the FirstAbove fallback)
    finds no positive edge.
    """
    if isinstance(rule, FixedSequence):
        row = rule.rows[t % len(rule.rows)]
        if not 0 <= row < len(pool):
            raise IndexError(f"scheduled row {row} outside pool of {len(pool)} rows")
        return row, pool[row], edge_dot(w, pool[row])

    rows = range(len(pool))
    approx = None
    weights = np.array(w.components)
    if weights.dtype == np.float64:  # Fraction weights give an object array
        if len(w) != pool.n_points:
            raise DimensionMismatch(f"weights have {len(w)} components, pool rows {pool.n_points}")
        approx = pool.matrix @ weights
        margin = SCREEN_MARGIN * len(w)

    if isinstance(rule, FirstAbove):
        # A row whose product is below theta - margin has a reference edge
        # below theta, by the argument beside SCREEN_MARGIN.
        scan = rows if approx is None else (approx >= rule.theta - margin).nonzero()[0].tolist()
        edges = ((edge_dot(w, pool[i]), i) for i in scan)
        qualifying = [(r, i) for r, i in edges if r >= rule.theta]
        if qualifying:
            r, row = min(qualifying)
            return row, pool[row], r
        # nothing at the threshold: fall back to the optimal choice

    if approx is not None:
        top = approx[approx.argmax()]
        rows = (approx >= top - margin).nonzero()[0].tolist()
    edge, neg_row = max((edge_dot(w, pool[i]), -i) for i in rows)
    if edge <= 0:
        raise WeakLearningFailure("all available edges are <= 0")
    return -neg_row, pool[-neg_row], edge


def alpha(r: Scalar) -> float:
    """The hypothesis coefficient 0.5 * ln((1+r)/(1-r)), increasing on (0,1).

    Always a float: the value is transcendental in r, so it is never part of
    the exact-mode weight arithmetic.
    """
    if not 0 < r < 1:
        raise ValueError(f"edge {r!r} outside (0, 1)")
    return 0.5 * math.log((1 + float(r)) / (1 - float(r)))


def weight_update(w: WeightVector, eta: MistakeDichotomy, r: Scalar) -> WeightVector:
    """Rational update w_i -> w_i / (1 + eta_i * r).

    Correct points shrink by 1/(1+r), misclassified ones grow by 1/(1-r).
    Requires 0 < r < 1 and r equal to the edge of eta on w; under that
    consistency the output sums to 1 identically.
    """
    if len(w) != len(eta):
        raise DimensionMismatch("weight/dichotomy length mismatch")
    if r >= 1:
        raise PerfectClassification("edge reached 1; rational update undefined")
    if r <= 0:
        raise ValueError(f"invalid edge {r!r}: must be positive")
    right, wrong = 1 + r, 1 - r  # 1 + eta_i * r, computed once per sign
    new = tuple(c / (right if e == 1 else wrong) for c, e in zip(w, eta))
    if not is_exact(new):
        total = sum(new)
        new = tuple(c / total for c in new)
    return WeightVector(new)


def exponential_update(w: WeightVector, eta: MistakeDichotomy, a: float) -> WeightVector:
    """Oracle form w_i -> w_i * exp(-eta_i * a) / Z with Z the normalizer.

    Computed in floats regardless of input mode; a = alpha(r) reproduces
    weight_update to floating-point accuracy.
    """
    if len(w) != len(eta):
        raise DimensionMismatch("weight/dichotomy length mismatch")
    if a < 0:
        raise ValueError("alpha must be nonnegative")
    scaled = [float(c) * math.exp(-e * a) for c, e in zip(w, eta)]
    z = sum(scaled)
    return WeightVector(tuple(s / z for s in scaled))


@dataclass(frozen=True)
class BoostStep:
    """One iteration: chosen row, its dichotomy, edge, alpha, resulting weights."""

    t: int
    row: int
    eta: MistakeDichotomy
    edge: Scalar
    alpha: float
    weights_after: WeightVector


@dataclass(frozen=True)
class BoostTrace:
    """Full record of a run. halt is None, or the reason the loop ended early."""

    mode: str
    pool: HypothesisPool
    rule: SelectionRule
    initial_weights: WeightVector
    steps: Tuple[BoostStep, ...]
    halt: Optional[str] = None

    def __len__(self) -> int:
        return len(self.steps)

    def edges(self) -> Tuple[Scalar, ...]:
        return tuple(s.edge for s in self.steps)

    def weights_before(self, t: int) -> WeightVector:
        """The weight vector the selection at iteration t saw."""
        return self.initial_weights if t == 0 else self.steps[t - 1].weights_after

    def lattice(self) -> MistakeLattice:
        if not self.steps:
            raise ValueError("empty trace has no lattice")
        return MistakeLattice(tuple(s.eta for s in self.steps))


def run(pool: HypothesisPool, rule: SelectionRule, t_max: int, mode: str = "exact") -> BoostTrace:
    """Run the boosting loop for t_max iterations from uniform weights.

    Deterministic: identical inputs give bit-identical traces. Halts early
    (recording the reason) if no positive edge exists or an edge reaches 1.
    """
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    w = uniform_weights(pool.n_points, mode)
    initial = w
    steps = []
    halt = None
    for t in range(t_max):
        try:
            row, eta, r = select(w, pool, rule, t)
        except WeakLearningFailure:
            halt = "weak_learning_failure"
            break
        if r <= 0:
            halt = "weak_learning_failure"
            break
        if r >= 1:
            halt = "perfect_classification"
            break
        a = alpha(r)
        w = weight_update(w, eta, r)
        steps.append(BoostStep(t, row, eta, r, a, w))
    return BoostTrace(mode, pool, rule, initial, tuple(steps), halt)

