"""The iterative boosting map: selection, weight update, trace recording.

Selection picks the row of largest edge sum_i eta_i * w_i, lowest index on
ties. In float mode the pool is screened with one matrix-vector product, and
only the rows within the product's rounding error of its maximum are
re-scored with the reference sum, so the chosen row and edge are
bit-identical to scoring every row with that sum. The first-above threshold
scan is screened the same way: only rows whose product comes within that
error of the threshold are re-scored.

The primary update is the rational form w_i -> w_i / (1 + eta_i * r), which is
self-normalizing: when r is the true edge of eta on w, the output sums to 1
with no renormalization. The exponential form w_i * exp(-eta_i * alpha) / Z
is kept as an independent oracle for it.

Exact mode runs on an integer lattice. Its weights are Python-int numerators
a_1..a_n over one common denominator D, in canonical form: gcd(a_1..a_n, D) =
1, so D is the least common denominator and the form is unique (two vectors
are equal exactly when their forms are). A lattice point is the object array
[D, a_1, ..., a_n]. Selection compares the integer edge numerators
s = sum_i eta_i a_i. The update needs only the two class masses: it leaves
the correct points and the mistakes with half the mass each, so the new
weights are a_i / (2 A+) and a_i / (2 A-), where A+ is the mass of the
correct points and A- = D - A+. `_lattice_step` derives from them both the
edge s / D in lowest terms and the new point in canonical form, in plain
Python ints. Its gcds of full-size numbers are the masses' gcd and each
class's gcd of its numerators (none for a one-point class); its last gcd
divides the first, which is usually small, and is then cheap (see its
docstring). No Fraction is built per step: a trace's exact `states` column
holds this integer form, and Fractions are built only when values are read
from it.

One loop, `boost`, runs both pool selection (`run`) and the tree learner
(`learners.run_on_dataset`); they differ only in the `choose` function that
picks each step's dichotomy and edge. The weights before each step are a
row of one array: float64 in float mode, a lattice point in exact mode. Each
step applies an update kernel to its row and writes the next (`_update` for
floats, `_lattice_step` for a lattice point); float weights are divided by
their left-to-right sum. The loop builds no per-step object: it appends the
step's row, signs and edge, and the trace keeps them and the weight rows as
three columns (see BoostTrace). `select`, `weight_update` and
`simplex.edge_dot` are wrappers over the same kernels for single value
objects. A trace's BoostSteps are built only when `BoostTrace.steps` is
read.

A float run fast-forwards through a cycle it has closed. The loop relies on
one contract with `choose`: a step's choice is a function of the weights'
bits and of t mod L, where L is the `fixed:` schedule's length and 1 for
every other rule. (The tree learner qualifies: its rows are numbered in
order of first use, and every row of a closed cycle is numbered already.)
So once the pair (weight bits, t mod L) repeats, every later step repeats
the steps since its previous occurrence, bit for bit. Each time its weights
array fills, `boost` looks for the first such repeat with `_first_repeat`,
the finder the trace writer uses too (see `traceio`), and fills the rest of
the trace by tiling the repeating block of its columns. Exact weights never
repeat and are not checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .simplex import (
    DimensionMismatch,
    HypothesisPool,
    MistakeDichotomy,
    Scalar,
    WeightVector,
    _signed_sums,
    is_exact,
    repeated_mistakes,
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
        for row in self.rows:
            if type(row) is not int:
                raise TypeError(f"scheduled row {row!r} is not an integer")


SelectionRule = Union[Optimal, FirstAbove, FixedSequence]

# Float screening margin, per point. The reference edge (edge_dot, summed
# left to right) and the matrix-vector product (any summation order) each add
# n exact terms +-w_i, so each lies within (n-1) * eps/2 * sum(w) of the exact dot
# product (Higham, Accuracy and Stability of Numerical Algorithms, sec. 3.1),
# and sum(w) <= 1 + FLOAT_SUM_TOL. Let k be the row with the largest product.
# Comparing an excluded row's reference edge with row k's crosses four such
# errors, about 2 * (n-1) * eps in all, and the margin 4 * n * eps is twice
# that. So an excluded row's reference edge lies strictly below row k's: it
# can neither win nor tie the reference argmax. For the first-above scan, a
# row whose product is below theta - margin has a reference edge within
# (n-1) * eps * sum(w) of it, so below theta with room to spare for the
# rounding of theta - margin itself.
# The loop's float weights (uniform 1/n, or quotients by their left-to-right
# sum, each correctly rounded) sum to within about n * eps/2 of 1, so a float
# sum of them all, in any order, lies within n * eps of 1: a mistake-free
# dichotomy's edge is within a quarter of the margin of 1.
SCREEN_MARGIN = 4 * np.finfo(np.float64).eps


# Steps per block of an array pass over a trace (the float replay's edge
# check, the transition checks, the phase walk-back): its temporaries are one
# block's, not the whole trace's, and the walk-back stops at its first block.
STEP_BLOCK = 256


def _check_schedule(rows: Sequence[int], pool: HypothesisPool) -> None:
    """Raise IndexError at the first scheduled row outside the pool."""
    for row in rows:
        if not 0 <= row < len(pool):
            raise IndexError(f"scheduled row {row} outside pool of {len(pool)} rows")


def _select(w: np.ndarray, pool: HypothesisPool, rule: SelectionRule, t: int) -> Tuple[int, Scalar]:
    """The selection kernel: (row index, edge) for float64 weights, or for a
    lattice point in exact mode, where the edge is returned as its integer
    numerator s over the point's denominator D. See `select`, which, like
    `run`, checks a fixed schedule's rows first (`_check_schedule`)."""
    exact = w.dtype == object
    # the pool's signs in the weights' arithmetic: Python ints against the
    # numerators of a lattice point
    signs, weights = (pool.exact_signs, w[1:]) if exact else (pool.matrix, w)
    if isinstance(rule, FixedSequence):
        row = rule.rows[t % len(rule.rows)]
        return row, _signed_sums(signs[row : row + 1], weights).tolist()[0]

    if exact:
        # every row's edge numerator, exactly
        rows = np.arange(len(pool))
        edges = signs @ weights
    else:
        approx = signs @ w
        margin = SCREEN_MARGIN * len(w)

    if isinstance(rule, FirstAbove):
        if exact:
            # s / D >= theta as a cross product; a float or Fraction theta
            # converts to its integer ratio exactly
            num, den = rule.theta.as_integer_ratio()
            bar = num * w[0]
            qualifying = [(s, i) for s, i in zip(edges.tolist(), rows.tolist()) if s * den >= bar]
        else:
            # a row whose product is below theta - margin has a reference
            # edge below theta, by the argument beside SCREEN_MARGIN
            rows = (approx >= rule.theta - margin).nonzero()[0]
            edges = _signed_sums(signs[rows], w)
            qualifying = [(r, i) for r, i in zip(edges.tolist(), rows.tolist()) if r >= rule.theta]
        if qualifying:
            r, row = min(qualifying)
            return row, r
        # nothing at the threshold: fall back to the optimal choice

    if not exact:
        rows = (approx >= approx[approx.argmax()] - margin).nonzero()[0]
        edges = _signed_sums(signs[rows], w)
    best = int(edges.argmax())  # the first maximum: ties go to the lowest row
    return int(rows[best]), edges.tolist()[best]


def select(
    w: WeightVector, pool: HypothesisPool, rule: SelectionRule, t: int = 0
) -> Tuple[int, MistakeDichotomy, Scalar]:
    """Choose a dichotomy from the pool; returns (row index, dichotomy, edge).

    The iteration index t only matters for FixedSequence schedules, whose
    row for t must lie in the pool (else IndexError). Raises
    WeakLearningFailure when Optimal (or the FirstAbove fallback) finds no
    positive edge.
    """
    if len(w) != pool.n_points:
        raise DimensionMismatch(f"weights have {len(w)} components, pool rows {pool.n_points}")
    if isinstance(rule, FixedSequence):
        _check_schedule((rule.rows[t % len(rule.rows)],), pool)
    if is_exact(w):
        point = _lattice_point(w)
        row, s = _select(point, pool, rule, t)
        edge = Fraction(s, point[0])
    else:
        row, edge = _select(w.as_array(), pool, rule, t)
    if edge <= 0 and not isinstance(rule, FixedSequence):
        raise WeakLearningFailure("all available edges are <= 0")
    return row, pool[row], edge


def alpha(r: Scalar) -> float:
    """The hypothesis coefficient 0.5 * ln((1+r)/(1-r)), increasing on (0,1).

    Always a float: the value is transcendental in r, so it is never part of
    the exact-mode weight arithmetic.
    """
    if not 0 < r < 1:
        raise ValueError(f"edge {r!r} outside (0, 1)")
    return 0.5 * math.log((1 + float(r)) / (1 - float(r)))


def _update(w: np.ndarray, eta: np.ndarray, r) -> Tuple[np.ndarray, np.ndarray]:
    """The float update kernel w_i -> w_i / (1 + eta_i * r) along the last
    axis, renormalised.

    eta holds the ±1 signs; r is one edge, or a column of edges (one per
    weight row). The new weights are divided by their left-to-right sum;
    returns them and that sum.
    """
    new = eta * r  # exactly +-r
    new += 1.0
    np.divide(w, new, out=new)
    total = np.add.accumulate(new, axis=-1)[..., -1:]
    new /= total
    return new, total


def _lattice_point(w: Iterable[Union[int, Fraction]]) -> np.ndarray:
    """Exact weights as a lattice point: the object array [D, a_1, ..., a_n]
    of Python ints with w_i = a_i / D, D the least common denominator."""
    w = tuple(w)
    d = math.lcm(*(c.denominator for c in w))
    return np.array([d, *(c.numerator * (d // c.denominator) for c in w)], dtype=object)


def _lattice_step(point: Sequence[int], eta: Sequence[int]) -> Tuple[int, int, List[int]]:
    """The exact update kernel: one step of the rational update on the
    lattice point [D, a_1..a_n] with the ±1 signs eta, in plain Python ints.

    It takes no edge. The update leaves each class of eta with half the
    mass, so the step follows from the class masses: A+, the sum of the a_i
    with eta_i = +1, and A- = D - A+. With h = gcd(A+, A-), x = A+/h and
    y = A-/h, the edge s/D = (A+ - A-)/D is p/q = (x - y)/(x + y), halved
    when x and y are both odd; it is then in lowest terms. The new weights
    are a_i/(2 A+) on the correct points and a_i/(2 A-) on the mistakes.
    Let g+ and g- be the gcds of the two classes' a_i, u = A+/g+, v = A-/g-
    and k = gcd(u, v), which divides h. The new point is D' = 2uv/k over the numerators
    (a_i/g+)(v/k) and (a_i/g-)(u/k). It is canonical by construction: the
    two classes' numerators have the coprime gcds v/k and u/k.

    Returns p, q and the new point as a list. Raises ValueError when eta
    puts every point in one class: the edge is then ±1, where the update is
    undefined.
    """
    d, *a = point
    right = [x for x, e in zip(a, eta) if e > 0]
    wrong = [x for x, e in zip(a, eta) if e < 0]
    if not (right and wrong):
        raise ValueError("eta puts every point in one class: the edge is ±1")
    mass = sum(right)
    rest = d - mass
    h = math.gcd(mass, rest)
    x, y = mass // h, rest // h
    p, q = x - y, x + y
    if x & y & 1:
        p, q = p // 2, q // 2
    g_right, g_wrong = math.gcd(*right), math.gcd(*wrong)
    u, v = mass // g_right, rest // g_wrong
    k = math.gcd(h, u, v)  # k divides A+ and A-, so h, which is usually small: then this is cheap
    u, v = u // k, v // k
    return p, q, [2 * u * v * k, *(c // g_right * v if e > 0 else c // g_wrong * u for c, e in zip(a, eta))]


def weight_update(w: WeightVector, eta: MistakeDichotomy, r: Scalar) -> WeightVector:
    """Rational update w_i -> w_i / (1 + eta_i * r).

    Correct points shrink by 1/(1+r), misclassified ones grow by 1/(1-r).
    Requires 0 < r < 1 and r equal to the edge of eta on w; under that
    consistency the output sums to 1 identically. An exact update derives
    the edge from w and eta, and raises ValueError when r is not it.
    """
    if len(w) != len(eta):
        raise DimensionMismatch("weight/dichotomy length mismatch")
    if r >= 1:
        raise PerfectClassification("edge reached 1; rational update undefined")
    if r <= 0:
        raise ValueError(f"invalid edge {r!r}: must be positive")
    if is_exact(w) and is_exact((r,)):
        p, q, (d, *a) = _lattice_step(_lattice_point(w).tolist(), eta.entries)
        if p * r.denominator != r.numerator * q:
            raise ValueError(f"edge {r} is not the edge {Fraction(p, q)} of eta on the weights")
        return WeightVector(tuple(Fraction(x, d) for x in a))
    # a float edge or float weights make a float update
    weights = w.as_array().astype(np.float64)
    new, _ = _update(weights, np.array(eta.entries, dtype=np.float64), float(r))
    return WeightVector(tuple(new.tolist()))


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


@dataclass(frozen=True, eq=False)
class BoostTrace:
    """Full record of a run, as three read-only columns over its T steps:

    - rows: (T,) int64, the chosen row of the pool;
    - signs: (T, n) int8, the chosen dichotomy (±1 per point);
    - states: the edge, then the weights after the step. In float mode a
      (T, n+1) float64 array; in exact mode a (T, n+3) object array of
      Python ints whose row t is the edge as p, q in lowest terms, then the
      weights as a lattice point [D, a_1..a_n] (see the module docstring).

    Exact values are read as Fractions through `state`, `edges`, `steps` and
    `weights_before`, which build them from the integer rows they read.

    halt is None, or the reason the loop ended early. The constructor checks
    the columns' shapes and makes them read-only; the values are the
    producer's (the loop, or the replay of a trace file) to vouch for.
    Traces are equal when their columns are.
    """

    mode: str
    pool: HypothesisPool
    rule: SelectionRule
    initial_weights: WeightVector
    rows: np.ndarray
    signs: np.ndarray
    states: np.ndarray
    halt: Optional[str] = None

    def __post_init__(self) -> None:
        if self.mode not in ("exact", "float"):
            raise ValueError(f"unknown mode {self.mode!r}")
        exact = self.mode == "exact"
        n = len(self.initial_weights)
        steps = len(self.rows)
        columns = (
            ("rows", np.int64, (steps,)),
            ("signs", np.int8, (steps, n)),
            ("states", object if exact else np.float64, (steps, n + 3 if exact else n + 1)),
        )
        for name, dtype, shape in columns:
            column = np.asarray(getattr(self, name), dtype=dtype)
            if column.shape != shape:
                raise DimensionMismatch(f"{name} has shape {column.shape}, expected {shape}")
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BoostTrace):
            return NotImplemented
        header = (self.mode, self.pool, self.rule, self.initial_weights, self.halt)
        # canonical integer forms are equal exactly when their values are
        return header == (other.mode, other.pool, other.rule, other.initial_weights, other.halt) and all(
            np.array_equal(getattr(self, name), getattr(other, name)) for name in ("rows", "signs", "states")
        )

    def __len__(self) -> int:
        return len(self.rows)

    @cached_property
    def steps(self) -> Tuple[BoostStep, ...]:
        """The steps as BoostSteps, built from the columns when first read."""
        # one dichotomy per distinct sign row, and one (edge, alpha, weights)
        # per distinct float state row (its bits), however many steps share
        # it: a tiled cycle repeats its rows, while exact rows never repeat
        exact = self.mode == "exact"
        steps, dichotomies, states = [], {}, {}
        columns = zip(self.rows.tolist(), map(tuple, self.signs.tolist()), self.states)
        for t, (row, signs, state) in enumerate(columns):
            key = t if exact else state.tobytes()
            if key not in states:
                edge, *weights = self._scalars(state)
                states[key] = (edge, alpha(edge), WeightVector(tuple(weights)))
            if signs not in dichotomies:
                dichotomies[signs] = MistakeDichotomy(signs)
            steps.append(BoostStep(t, row, dichotomies[signs], *states[key]))
        return tuple(steps)

    def state(self, t: int) -> Tuple[Scalar, ...]:
        """Step t's state: its edge, then the weights after it (Fractions in
        exact mode, built from this row alone)."""
        return self._scalars(self.states[t])

    def _scalars(self, state: np.ndarray) -> Tuple[Scalar, ...]:
        """One row of the states column in the mode's scalars."""
        if self.mode == "float":
            return tuple(state.tolist())
        p, q, d, *a = state.tolist()
        return (Fraction(p, q), *(Fraction(x, d) for x in a))

    def edges(self) -> Tuple[Scalar, ...]:
        if self.mode == "float":
            return tuple(self.states[:, 0].tolist())
        return tuple(Fraction(p, q) for p, q in self.states[:, :2].tolist())

    def weights_before(self, t: int) -> WeightVector:
        """The weight vector the selection at iteration t saw."""
        if t == 0:
            return self.initial_weights
        return WeightVector(self.state(t - 1)[1:])

    # Array views for the analysis kernels in `cycles`. Each is built on
    # first use and kept for the trace's lifetime, so every check on one
    # trace reads the same arrays. They are read-only.

    @cached_property
    def state_matrix(self) -> np.ndarray:
        """Each step's state as a float64 row: the edge, then the weights
        after the step. The states column itself in float mode; exact values
        are rounded to the nearest double, by int true division of p by q and
        of a_i by D (correctly rounded, as float(Fraction) is)."""
        if self.mode == "float":
            return self.states
        ints = self.states
        states = np.empty((len(ints), ints.shape[1] - 2))
        states[:, 0] = ints[:, 0] / ints[:, 1]
        states[:, 1:] = ints[:, 3:] / ints[:, 2:3]
        states.flags.writeable = False
        return states

    @cached_property
    def repeat(self) -> Optional[Tuple[int, int]]:
        """The (onset, period) of the bit repeat the columns hold, or None
        (see `_repeat`)."""
        return _repeat(self)

    @cached_property
    def repeated_mistakes(self) -> np.ndarray:
        """The J- masks: entry (t, i) is true when point i is misclassified
        at both iteration t and t+1 (the periodic learning condition fails)."""
        repeats = repeated_mistakes(self.signs)
        repeats.flags.writeable = False
        return repeats


# The halt of a trace: None when it ran its iterations, else why it stopped.
HALTS = (None, "weak_learning_failure", "perfect_classification")

# Choose(weights, t) -> (row, signs, edge): one iteration's choice of a
# dichotomy (its row index and its ±1 signs: float64 against float weights,
# Python ints against a lattice point) and its edge on the weights (in exact
# mode the edge's integer numerator over the point's denominator).
Choose = Callable[[np.ndarray, int], Tuple[int, np.ndarray, Scalar]]


def _schedule(rule: SelectionRule) -> int:
    """L, the period of the rule's dependence on t: the `fixed:` schedule's
    length, and 1 for every other rule."""
    return len(rule.rows) if isinstance(rule, FixedSequence) else 1


def _tiling(start: int, period: int, length: int) -> np.ndarray:
    """The step index that tiles a trace's columns: step u >= start is step
    start + (u - start) % period, for u < length."""
    index = np.arange(length)
    index[start:] = start + np.arange(length - start) % period
    return index


# Rows of fewer points than this are compared in a column-major copy: numpy
# then loops along the steps rather than along each row's few points, which
# made the compares of a 5000-step 3-point trace about 10 times faster. For
# wider rows the row-major compares are as fast, and the copy (8 bytes a
# weight, against the compares' 1-byte masks) would only add memory.
_COLUMN_MAJOR_BELOW = 32


def _first_repeat(initial: np.ndarray, before: np.ndarray, schedule: int) -> Optional[Tuple[int, int]]:
    """The first repeat of the key (bits of the weights before step t,
    t mod schedule) among a float run's keys, as (onset, period): the key
    before step onset + period is the first key equal to an earlier one, the
    key before step onset. initial is the weights before step 0, and row u
    of before the weights before step u + 1: a view, such as a trace's
    `states[:-1, 1:]` or the loop's key rows. None when no key repeats.
    Then onset + period <= len(before), and the period is a multiple of
    schedule.

    In a run each key determines the next, so once a key repeats, every
    later key repeats at the same distance, the last key among them. Two
    vectorised compares of the weights-before matrix find the repeat: the
    latest earlier step whose key equals the last step's gives the period,
    and the onset is where the keys start to equal the keys a period later.
    Columns that no run produced get the repeat in which their keys end.
    """
    last = len(before)
    if last < 1:
        return None
    start = initial.view(np.uint64)
    before = before.view(np.uint64)
    if before.shape[1] < _COLUMN_MAJOR_BELOW:
        before = np.asfortranarray(before)
    same = (before[:-1] == before[-1]).all(axis=1) & (np.arange(1, last) % schedule == last % schedule)
    earlier = same.nonzero()[0]
    if len(earlier):
        period = last - 1 - int(earlier[-1])
    elif last % schedule == 0 and (start == before[-1]).all():
        period = last
    else:
        return None
    differ = (before[: last - period] != before[period:]).any(axis=1).nonzero()[0]
    if len(differ):
        return int(differ[-1]) + 2, period
    return (0 if (start == before[period - 1]).all() else 1), period


def _repeat(trace: BoostTrace) -> Optional[Tuple[int, int]]:
    """The (onset, period) of a float trace's bit repeat, read from its
    columns: the first repeat of its key (`_first_repeat`), when the rows,
    signs and state bits from the onset on are that period's, tiled, and the
    trace did not halt. None otherwise, and for every exact trace. Step t >=
    onset of such a trace is step onset + (t - onset) % period
    (`_tiling`); the v3 trace file stores steps 0 .. onset + period - 1, and
    the analysis evaluates the steps that tiling reads."""
    if trace.mode == "exact" or trace.halt is not None:
        return None
    found = _first_repeat(trace.initial_weights.as_array(), trace.states[:-1, 1:], _schedule(trace.rule))
    if found is None:
        return None
    onset, period = found
    columns = (trace.rows, trace.signs, trace.states.view(np.uint64))
    return found if all(np.array_equal(c[onset + period :], c[onset:-period]) for c in columns) else None


def boost(
    choose: Choose, initial: WeightVector, t_max: int, schedule: int = 1
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[str]]:
    """The boosting loop: up to t_max iterations from the initial weights,
    returning the trace's rows, signs and states columns (exact states in
    integer form, see BoostTrace) and its halt.

    choose(w, t) must be a function of w's bits and of t mod schedule. In
    float mode the loop then stops at the first repeat of the key (the bits
    of the weights before step t, t mod schedule). The weights before each
    step are the rows of one array, which doubles whenever it fills; each
    time it does, `_first_repeat` looks for a repeat among its rows. When
    the key before step onset + period equals the key before step onset,
    every later step repeats the one a period before it, so the loop stops
    and the remaining rows, signs and states are those of steps onset ..
    onset + period - 1, tiled. Such a run cannot halt.

    Each iteration asks choose for a dichotomy and its edge, halts when the
    edge leaves (0, 1) (the halts are decided here alone), and applies the
    update kernel to the weights. A float edge at most SCREEN_MARGIN * n is
    a weak-learning failure: it lies within the screen's rounding bound of
    0, where exact AdaBoost finds an edge of exactly 0 (the chosen row's
    edge right after an update of that row). Mirrored at 1, a float edge at
    least 1 - SCREEN_MARGIN * n on signs with no -1 is a perfect
    classification. In exact mode choose gives the edge's numerator s over
    the lattice point's denominator D, so the halts are s <= 0 and s >= D;
    `_lattice_step` derives the edge from the weights, and a choose whose s
    is not that edge's numerator raises ValueError.
    The new point sums to 1 by construction. Float weights are renormalised,
    and validated as a WeightVector once, after the last step: a
    weight that underflows to 0, or turns NaN, stays so, so the last vector
    shows it. Exact weights stay positive by the arithmetic.
    """
    exact, n = is_exact(initial), len(initial)
    keys = (_lattice_point(initial) if exact else initial.as_array())[None]
    rows, signs, edges = [], [], []
    halt = repeat = None
    # the smallest edge a step may take: a float edge within the screen's
    # rounding bound of 0 may be the residue of an exact 0
    floor = 0 if exact else SCREEN_MARGIN * n
    # the floor mirrored at 1, above which a mistake-free dichotomy's float
    # edge lies: there the signs tell whether the exact edge is 1
    ceiling = 1 - floor
    for t in range(t_max):
        if t + 1 == len(keys):  # full: t + 1 is a power of two
            # keys compare as bits: a comparison of values would take -0.0
            # for 0.0 and tile steps whose bits differ from the loop's
            repeat = None if exact else _first_repeat(keys[0], keys[1:], schedule)
            if repeat:
                break
            keys = np.concatenate((keys, np.empty((min(t + 1, t_max - t), keys.shape[1]), keys.dtype)))
        w = keys[t]
        row, eta, r = choose(w, t)
        if r <= floor:
            halt = "weak_learning_failure"
            break
        if (r >= w[0]) if exact else (r >= ceiling and (r >= 1 or not (eta < 0).any())):
            halt = "perfect_classification"
            break
        if exact:
            p, q, keys[t + 1] = _lattice_step(w.tolist(), eta)
            if r * q != p * w[0]:
                raise ValueError(f"choose gave the edge {Fraction(r, w[0])}, not the edge {Fraction(p, q)} of its signs")
            r = (p, q)
        else:
            keys[t + 1] = _update(w, eta, r)[0]
        rows.append(row)
        signs.append(eta)
        edges.append(r)
    if not rows:
        width = n + 3 if exact else n + 1
        return np.empty(0, np.int64), np.empty((0, n), np.int8), np.empty((0, width), keys.dtype), halt
    states = np.column_stack((np.array(edges, dtype=keys.dtype), keys[1 : len(rows) + 1]))
    rows, signs = np.array(rows, dtype=np.int64), np.array(signs, dtype=np.int8)
    if repeat:
        index = _tiling(*repeat, t_max)
        rows, signs, states = rows[index], signs[index], states[index]
    if not exact:
        WeightVector(tuple(states[-1, 1:].tolist()))
    return rows, signs, states, halt


def run(pool: HypothesisPool, rule: SelectionRule, t_max: int, mode: str = "exact") -> BoostTrace:
    """Run the boosting loop for t_max iterations from uniform weights.

    Deterministic: identical inputs give bit-identical traces. Halts early
    (recording the reason) if no positive edge exists or an edge reaches 1.
    A FixedSequence's rows are all checked against the pool before step 0,
    whatever t_max: a row outside it raises IndexError.
    """
    if t_max < 1:
        raise ValueError("t_max must be at least 1")
    if isinstance(rule, FixedSequence):
        _check_schedule(rule.rows, pool)
    initial = uniform_weights(pool.n_points, mode)
    # one row per dichotomy, shared by the steps that choose it
    signs = list(pool.exact_signs if mode == "exact" else pool.matrix)

    def choose(w: np.ndarray, t: int) -> Tuple[int, np.ndarray, Scalar]:
        row, edge = _select(w, pool, rule, t)
        return row, signs[row], edge

    return BoostTrace(mode, pool, rule, initial, *boost(choose, initial, t_max, _schedule(rule)))
