"""Limit-cycle detection on boosting traces and the structural identities that
hold on them: the simplified edge update under the periodic learning
condition, subsum values, Farey-word matching, and the window-agreement
property.

Iteration indexing follows the engine: the transition "into" step t uses the
weights and dichotomy of step t-1.

The `analyze` checks are defined once, here, in the CHECKS registry;
`analyze_trace` runs them and the CLI only renders their CheckResults. One
analysis detects the cycle once and every check reads that report. The checks
run as array kernels over the trace's columns: its signs, its states and the
float64 `BoostTrace.state_matrix` (the states themselves in float mode):

- Cycle detection compares float64 states in both modes, within tol (exact
  values rounded to the nearest double). The candidate periods are the
  distances back to the second-half steps within tol of the last state,
  tried least first.
- The identity checks (edge update, subsums) read the group masks of every
  transition, computed once per analysis (`transition_groups`), and the
  previous weights' mass on each group, summed block by block as the checks
  read them. Exact traces keep their states in integer form (numerators over
  one common denominator per step, edges as reduced p/q), so each identity
  is an integer cross-product: an exact rational equality, with no
  tolerance and no float. A Fraction is built only for a public function's
  values. Float traces compare within tol.
- The periodic learning condition, the cycle window's violation and the
  agreement windows all read the trace's J- masks
  (`BoostTrace.repeated_mistakes`).
- A float trace that repeats bit for bit (`BoostTrace.repeat`: from step
  onset on, step t is step t - period) is evaluated on its stored block:
  the per-transition checks run their kernels on transitions 1 .. onset +
  period + 1 and read every transition's result through
  `transition_index`, and `detect_cycle`'s walk-back to the phase skips
  the tiled steps where they cannot move it. Every other trace takes the
  same path with the identity index.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from fractions import Fraction
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .engine import STEP_BLOCK, BoostTrace, _lattice_point, _tiling
from .farey import FareyWord, inv_L, inv_R
from .simplex import (
    MistakeDichotomy,
    Scalar,
    WeightVector,
    first_repeated_mistake,
    is_exact,
)


class PeriodicLearningRequired(ValueError):
    """The step misclassifies some point twice in a row (J- is nonempty)."""


@dataclass(frozen=True)
class IndexPartition:
    """Indices split by correctness at the current and previous iteration.

    i_plus: correct now, correct before.     i_minus: correct now, wrong before.
    j_plus: wrong now, correct before.       j_minus: wrong at both.
    j_minus is empty exactly when the periodic learning condition holds
    across this pair of iterations.
    """

    i_plus: frozenset
    i_minus: frozenset
    j_plus: frozenset
    j_minus: frozenset

    @property
    def periodic_learning_holds(self) -> bool:
        return not self.j_minus


def partition(eta_prev: MistakeDichotomy, eta_cur: MistakeDichotomy) -> IndexPartition:
    if len(eta_prev) != len(eta_cur):
        raise ValueError("dichotomy length mismatch")
    groups: Dict[Tuple[int, int], List[int]] = {
        (1, 1): [], (-1, 1): [], (1, -1): [], (-1, -1): []
    }
    for i, (p, c) in enumerate(zip(eta_prev, eta_cur)):
        groups[(p, c)].append(i)
    return IndexPartition(
        i_plus=frozenset(groups[(1, 1)]),
        i_minus=frozenset(groups[(-1, 1)]),
        j_plus=frozenset(groups[(1, -1)]),
        j_minus=frozenset(groups[(-1, -1)]),
    )


@dataclass(frozen=True)
class TransitionGroups:
    """Every transition t-1 -> t of a trace (t = 1 .. T-1, at row t-1 of
    each array) split into the groups of IndexPartition, with the mass of
    weights_before(t-1) on each group.

    j_minus is the trace's (T-1, n) J- mask; was_right and is_right mark the
    points classified correctly at t-1 and at t. In float mode w_prev holds
    the float64 weights and r_prev, r_cur the float64 edges. In exact mode
    they hold the trace's integer form: w_prev the lattice points
    [D, a_1..a_n] of the weights, r_prev and r_cur rows [p, q] of the edges,
    so that every identity computed from them is an integer cross-product.
    A mass is summed when read: `_mass` gives float64 masses, or in exact
    mode the integer numerator sums over each row's D. A float mass is summed in
    another order than a left-to-right sum over the group, so it may differ
    from one by the rounding of n terms: less than n * eps, as the weights
    sum to 1.
    """

    j_minus: np.ndarray
    was_right: np.ndarray
    is_right: np.ndarray
    w_prev: np.ndarray
    r_prev: np.ndarray
    r_cur: np.ndarray

    @property
    def exact(self) -> bool:
        return self.w_prev.dtype == object

    def _mass(self, mask: np.ndarray) -> np.ndarray:
        if self.exact:
            return np.where(mask, self.w_prev[:, 1:], 0).sum(axis=1)
        return np.where(mask, self.w_prev, 0.0).sum(axis=1)

    def rows(self, index) -> "TransitionGroups":
        """The groups of the transitions selected by index (a slice or an
        index array)."""
        return TransitionGroups(*(getattr(self, f.name)[index] for f in fields(self)))

    def blocks(self) -> Iterator[Tuple[int, "TransitionGroups"]]:
        """(first row, the groups of the next STEP_BLOCK rows), in order.
        The checks read the masses and evaluate their expressions block by
        block, so that their temporaries (large integers, in exact mode) are
        one block's rather than the whole trace's."""
        for lo in range(0, len(self.r_prev), STEP_BLOCK):
            yield lo, self.rows(slice(lo, lo + STEP_BLOCK))


def transition_groups(trace: BoostTrace, stop: Optional[int] = None) -> TransitionGroups:
    """The groups of transitions 1 .. stop (every transition by default),
    from the trace's columns."""
    if len(trace) < 2:
        raise ValueError("need at least 2 steps")
    if stop is None:
        stop = len(trace) - 1
    signs, states = trace.signs[: stop + 1], trace.states[: stop + 1]
    if trace.mode == "exact":
        w_prev = np.vstack((_lattice_point(trace.initial_weights), states[:-2, 2:]))
        edges = states[:, :2]
    else:
        w_prev = np.vstack((trace.initial_weights.as_array(), states[:-2, 1:]))
        edges = states[:, 0]
    return TransitionGroups(
        j_minus=trace.repeated_mistakes[:stop],
        was_right=signs[:-1] > 0,
        is_right=signs[1:] > 0,
        w_prev=w_prev,
        r_prev=edges[:-1],
        r_cur=edges[1:],
    )


@dataclass(frozen=True)
class EdgeUpdateReport:
    """Per-iteration comparison of the simplified edge update against truth.

    matches is true exactly when no point was misclassified twice in a
    row entering this iteration; the gap is 2 * sum_{J-} w_prev/(1-r_prev),
    strictly positive whenever J- is nonempty.
    """

    t: int
    j_minus_empty: bool
    simplified_edge: Scalar
    actual_edge: Scalar
    matches: bool


def _edge_update(groups: TransitionGroups, tol: float) -> Tuple[object, np.ndarray]:
    """The simplified edges (1 + r_prev - 2*sum_{J+} w_prev) / (1 + r_prev)
    of every transition, and whether each equals (exact) or lies within tol
    of (float) the true edge.

    In exact mode, with r_prev = p'/q', w_prev = a/D and J = sum_{J+} a, the
    simplified edge is ((q'+p')D - 2Jq') / ((q'+p')D), returned as the pair
    (numerators, denominators) of integer columns; it equals the true edge
    p/q exactly when ((q'+p')D - 2Jq') q == p (q'+p') D.
    """
    j_plus = groups.was_right & ~groups.is_right
    if groups.exact:
        (p_prev, q_prev), (p, q) = groups.r_prev.T, groups.r_cur.T
        den = (q_prev + p_prev) * groups.w_prev[:, 0]
        num = den - 2 * groups._mass(j_plus) * q_prev
        return (num, den), num * q == p * den
    r_prev = groups.r_prev
    simplified = (1 + r_prev - 2 * groups._mass(j_plus)) / (1 + r_prev)
    return simplified, np.abs(simplified - groups.r_cur) <= tol


def check_edge_update(trace: BoostTrace, tol: float = 1e-12) -> List[EdgeUpdateReport]:
    """Evaluate r_t = (1 + r_prev - 2*sum_{J+} w_prev) / (1 + r_prev) at every
    iteration t >= 1 and report where it reproduces the true edge.

    Exact traces compare with equality; float traces within tol.
    """
    groups = transition_groups(trace)
    simplified, matches = _edge_update(groups, tol)
    if groups.exact:
        simplified = [Fraction(num, den) for num, den in zip(simplified[0].tolist(), simplified[1].tolist())]
    else:
        simplified = simplified.tolist()
    j_minus_empty = ~groups.j_minus.any(axis=1)
    return [
        EdgeUpdateReport(t, empty, value, edge, match)
        for t, empty, value, edge, match in zip(
            range(1, len(trace)),
            j_minus_empty.tolist(),
            simplified,
            trace.edges()[1:],
            matches.tolist(),
        )
    ]


@dataclass(frozen=True)
class SubsumReport:
    """The three scaled subsums of the edge under the periodic learning
    condition, plus the edge they produce: i_plus = r/2, i_minus = 1/2,
    j_plus = (1-r)/2."""

    i_plus: Scalar
    i_minus: Scalar
    j_plus: Scalar
    edge: Scalar


SUBSUMS_INCONSISTENT = (
    "subsums inconsistent: r_prev is not the edge of the previous dichotomy on these weights"
)


def subsums(w_prev: WeightVector, r_prev: Scalar, part: IndexPartition) -> SubsumReport:
    """Compute the three-term decomposition of the edge for a step where no
    point is misclassified twice in a row.

    In rational mode the identities i_minus == 1/2 and i_plus + j_plus == 1/2
    (equivalently sum_{I-} w_prev == (1 - r_prev)/2) are verified; failure
    means r_prev is not the true edge of the previous dichotomy on w_prev.
    """
    if part.j_minus:
        raise PeriodicLearningRequired("J- must be empty for the three-term form")
    shrink = 1 + r_prev
    grow = 1 - r_prev
    a = sum(w_prev[i] for i in part.i_plus) / shrink
    b = sum(w_prev[i] for i in part.i_minus) / grow
    c = sum(w_prev[j] for j in part.j_plus) / shrink
    edge = a - c + b
    if is_exact(w_prev.components) and isinstance(r_prev, (int, Fraction)):
        half = Fraction(1, 2)
        if b != half or a + c != half:
            raise ValueError(SUBSUMS_INCONSISTENT)
    return SubsumReport(a, b, c, edge)


@dataclass(frozen=True)
class CycleReport:
    """A detected limit cycle.

    period is the primitive period of the full state (weights and edges
    together); edge_period divides it and is the primitive period of the
    edge sequence alone. phase is the first iteration from which deviations
    stay below tol. edge_values and weight_cycle are taken from the final
    period of the trace, in iteration order.
    """

    period: int
    edge_period: int
    phase: int
    edge_values: Tuple[Scalar, ...]
    weight_cycle: Tuple[WeightVector, ...]
    periodic_violation: Optional[Tuple[int, int]]
    residual: float
    tol: float
    farey_word: Optional[FareyWord] = None

    @property
    def periodic_learning_holds(self) -> bool:
        return self.periodic_violation is None


def detect_cycle(
    trace: BoostTrace,
    tol: float = 1e-9,
    min_repeats: int = 3,
) -> Optional[CycleReport]:
    """Find the smallest period k such that edges and weight vectors repeat
    within tol over min_repeats consecutive trailing periods.

    The first half of the trace is burn-in, so that min_repeats periods fit
    in the second half. A period k can pass only if the state k steps
    before the last one is within tol of it; those steps in the second
    half give the candidates, which are tried least first against every
    state of the window. The first that passes is the least period, and so
    primitive: a proper divisor would have passed first. Returns None when
    nothing qualifies.
    """
    n_steps = len(trace)
    if min_repeats < 2:
        raise ValueError("min_repeats must be at least 2")
    burn_in = n_steps // 2
    k_max = (n_steps - burn_in) // min_repeats
    if k_max < 1:
        return None

    states = trace.state_matrix

    def deviation(k: int, start: int, stop: int) -> np.ndarray:
        """max |S[t] - S[t+k]| over the state's entries, for t in [start, stop)."""
        d = states[start + k : stop + k] - states[start:stop]
        return np.abs(d, out=d).max(axis=1)

    def verified(k: int) -> Optional[float]:
        """The largest deviation between states k apart over the last
        min_repeats periods, or None if any exceeds tol."""
        d = deviation(k, n_steps - min_repeats * k, n_steps - k)
        return None if (d > tol).any() else float(d.max())

    # the steps t >= burn_in within tol of the last state (the negation of
    # verified's failure test), as periods n - 1 - t, least first
    d = states[burn_in:-1] - states[-1]
    near = np.flatnonzero(~(np.abs(d, out=d) > tol).any(axis=1))
    for k in (n_steps - 1 - burn_in - near[::-1]).tolist():
        if k > k_max:
            return None
        residual = verified(k)
        if residual is not None:
            period = k
            break
    else:
        return None

    # walk back from the verified window while states one period apart
    # agree. When the period is a multiple of the trace's bit period, states
    # a period apart are bit-equal from the bit onset on, so the walk-back
    # starts there: it would pass every step after it.
    window_start = n_steps - min_repeats * period
    phase = window_start
    repeat = trace.repeat
    if repeat is not None and period % repeat[1] == 0:
        phase = min(phase, repeat[0])
    while phase > 0:
        lo = max(0, phase - STEP_BLOCK)
        apart = np.flatnonzero(deviation(period, lo, phase) > tol)
        if apart.size:
            phase = lo + int(apart[-1]) + 1
            break
        phase = lo

    edges = states[:, 0]
    edge_period = period
    for e in sorted(d for d in range(1, period) if period % d == 0):
        if (np.abs(edges[window_start + e :] - edges[window_start : n_steps - e]) <= tol).all():
            edge_period = e
            break

    edge_values = tuple(trace.state(t)[0] for t in range(n_steps - edge_period, n_steps))
    weight_cycle = tuple(WeightVector(trace.state(t)[1:]) for t in range(n_steps - period, n_steps))
    # mask rows repeat with the bit period from the bit onset on, so one
    # period past max(phase, onset) holds the first violation if any does
    stop = None if repeat is None else max(phase, repeat[0]) + repeat[1]
    violation = first_repeated_mistake(trace.repeated_mistakes[phase:stop])
    if violation is not None:
        violation = (violation[0], violation[1] + phase)
    return CycleReport(
        period=period,
        edge_period=edge_period,
        phase=phase,
        edge_values=edge_values,
        weight_cycle=weight_cycle,
        periodic_violation=violation,
        residual=residual,
        tol=tol,
    )


def match_farey(report: CycleReport) -> Optional[FareyWord]:
    """Classify each consecutive edge pair of the cycle as an application of
    the left or right inverse branch; returns the word when every step
    classifies (within the report's tol), None otherwise.

    The word maps value i to value i+1 (cyclically), so replaying it from
    the first edge value reproduces the cycle.
    """
    tol = report.tol
    values = [float(v) for v in report.edge_values]
    letters = []
    k = len(values)
    for i in range(k):
        cur, nxt = values[i], values[(i + 1) % k]
        if abs(nxt - float(inv_R(cur))) <= tol:
            letters.append("R")
        elif abs(nxt - float(inv_L(cur))) <= tol:
            letters.append("L")
        else:
            return None
    return FareyWord(tuple(letters))


def attach_farey(report: CycleReport) -> CycleReport:
    """Return the report with its matched Farey word filled in (if any)."""
    return replace(report, farey_word=match_farey(report))


@dataclass(frozen=True)
class AgreementReport:
    """Outcome of the window-agreement check.

    status is one of "agree_everywhere", "disagreement" (a counterexample to
    the cycling-determinism property) or "precondition_failed" (the inputs
    do not satisfy the property's hypotheses); reason and offset locate the
    finding.
    """

    status: str
    reason: Optional[str] = None
    offset: Optional[int] = None


def aligned_weight_distance(a: WeightVector, b: WeightVector) -> float:
    """Max componentwise gap after the best permutation alignment.

    Cycles can permute which point carries which weight value, so comparing
    a detected weight cycle against a reference set goes through sorted
    components (the optimal alignment for scalar multisets).
    """
    if len(a) != len(b):
        raise ValueError("weight vectors must have equal length")
    xs = sorted(float(v) for v in a)
    ys = sorted(float(v) for v in b)
    return max(abs(x - y) for x, y in zip(xs, ys))


def _weights_before(trace: BoostTrace, start: int, stop: int) -> np.ndarray:
    """weights_before(t) for t in [start, stop) as float64 rows."""
    rows = trace.state_matrix[max(start - 1, 0) : stop - 1, 1:]
    if start == 0:
        rows = np.vstack((np.array(trace.initial_weights.components, dtype=np.float64), rows))
    return rows


def _windows_agree(
    trace_a: BoostTrace,
    rep_a: CycleReport,
    trace_b: BoostTrace,
    rep_b: CycleReport,
    window_a: Tuple[int, int],
    window_b: Tuple[int, int],
    q: int,
    tol: float,
) -> AgreementReport:
    """lattice_agreement on windows known to lie in their traces, given
    both traces' cycle reports."""
    (start_a, length), (start_b, _) = window_a, window_b
    if rep_a.edge_period != rep_b.edge_period or not all(
        any(abs(float(x) - float(y)) <= 2 * tol for y in rep_b.edge_values)
        for x in rep_a.edge_values
    ):
        return AgreementReport("precondition_failed", "edge cycles differ")

    for trace, start in ((trace_a, start_a), (trace_b, start_b)):
        if trace.repeated_mistakes[start : start + length - 1].any():
            return AgreementReport(
                "precondition_failed", "periodic learning condition fails on a window"
            )

    signs_a = trace_a.signs[start_a : start_a + length]
    signs_b = trace_b.signs[start_b : start_b + length]
    if signs_a.shape != signs_b.shape:
        return AgreementReport("precondition_failed", "windows do not agree at q")
    etas_differ = (signs_a != signs_b).any(axis=1)
    weights_differ = (
        np.abs(
            _weights_before(trace_a, start_a, start_a + length)
            - _weights_before(trace_b, start_b, start_b + length)
        )
        > tol
    ).any(axis=1)
    if etas_differ[q] or weights_differ[q]:
        return AgreementReport("precondition_failed", "windows do not agree at q")

    # forward from q, then backward from q - 1
    order = np.concatenate((np.arange(q, length), np.arange(q - 1, -1, -1)))
    differ = np.flatnonzero((etas_differ | weights_differ)[order])
    if differ.size:
        offset = int(order[differ[0]])
        if etas_differ[offset]:
            return AgreementReport("disagreement", "mistake dichotomies differ", offset)
        return AgreementReport("disagreement", "weights differ beyond tolerance", offset)
    return AgreementReport("agree_everywhere")


def lattice_agreement(
    trace_a: BoostTrace,
    trace_b: BoostTrace,
    window_a: Tuple[int, int],
    window_b: Tuple[int, int],
    q: int,
    tol: float = 1e-9,
) -> AgreementReport:
    """Check that two cycling trace windows agreeing at one iteration agree
    at every iteration, forward and backward.

    window_a and window_b are (start, length) in iteration indices; q is a
    common offset into both windows where weights and dichotomy must agree.
    Precondition failures (windows out of range, traces not cycling on the
    same edge values, periodic learning condition broken, or no agreement
    at q) are reported distinctly from genuine disagreements.
    """
    start_a, length = window_a
    start_b, length_b = window_b
    if length != length_b or length < 2:
        return AgreementReport("precondition_failed", "windows must have equal length >= 2")
    if not (0 <= start_a and start_a + length <= len(trace_a)):
        return AgreementReport("precondition_failed", "window out of range for first trace")
    if not (0 <= start_b and start_b + length <= len(trace_b)):
        return AgreementReport("precondition_failed", "window out of range for second trace")
    if not 0 <= q < length:
        return AgreementReport("precondition_failed", "q outside the windows")

    rep_a = detect_cycle(trace_a, tol=tol)
    rep_b = rep_a if trace_b is trace_a else detect_cycle(trace_b, tol=tol)
    if rep_a is None or rep_b is None:
        return AgreementReport("precondition_failed", "both traces must cycle")
    return _windows_agree(trace_a, rep_a, trace_b, rep_b, window_a, window_b, q, tol)


@dataclass(frozen=True)
class CheckResult:
    """The verdict of one analysis check: ok, a one-line detail, and the
    facts behind it as JSON-ready data."""

    name: str
    ok: bool
    detail: str
    data: Dict[str, object]


def _too_short(name: str, trace: BoostTrace) -> CheckResult:
    return CheckResult(name, False, "trace too short", {"steps": len(trace)})


def _check_periodic_learning(trace, report, groups, index, tol) -> CheckResult:
    name = "periodic-learning"
    if groups is None:
        return _too_short(name, trace)
    # the index maps every transition to one at or before it, so the first
    # violation is among the evaluated transitions
    violation = first_repeated_mistake(groups.j_minus)
    if violation is None:
        return CheckResult(name, True, "holds on the whole trace", {"violation": None})
    i, t = violation
    data = {"violation": {"point": i, "iteration": t}}
    return CheckResult(name, False, f"violated at point {i}, iteration {t}", data)


def _check_edge_update(trace, report, groups, index, tol) -> CheckResult:
    name = "edge-update"
    if groups is None:
        return _too_short(name, trace)
    matches = np.concatenate([_edge_update(block, tol)[1] for _, block in groups.blocks()])
    j_minus_empty = ~groups.j_minus.any(axis=1)
    broken = (np.flatnonzero((matches != j_minus_empty)[index]) + 1).tolist()
    mismatch = (np.flatnonzero(~matches[index]) + 1).tolist()
    data = {"steps_checked": len(index), "mismatch_iterations": mismatch, "broken_iterations": broken}
    if broken:
        return CheckResult(name, False, f"biconditional broken at iterations {broken}", data)
    if mismatch:
        detail = f"holds; update differs exactly where J- is nonempty: iterations {mismatch}"
        return CheckResult(name, True, detail, data)
    return CheckResult(name, True, "holds; update matches at every iteration (J- always empty)", data)


def _subsums_inconsistent(groups: TransitionGroups) -> np.ndarray:
    """Exact subsums: whether b == 1/2 or a + c == 1/2 fails at each
    transition, as integer cross-products. With r_prev = p'/q', w_prev = a/D,
    I- = sum_{I-} a and W = sum_{I+ and J+} a (the points right at t-1), b ==
    1/2 reads 2 I- q' == D (q' - p') and a + c == 1/2 reads 2 W q' ==
    D (q' + p'). a == r/2 and c == (1 - r)/2 follow from these two, since
    the edge r is a - c + b."""
    p_prev, q_prev = groups.r_prev.T
    d = groups.w_prev[:, 0]
    i_minus = groups._mass(~groups.was_right & groups.is_right)
    was_right = groups._mass(groups.was_right)
    return (2 * i_minus * q_prev != d * (q_prev - p_prev)) | (2 * was_right * q_prev != d * (q_prev + p_prev))


def _check_subsums(trace, report, groups, index, tol) -> CheckResult:
    name = "subsums"
    if groups is None:
        return _too_short(name, trace)
    skipped = int(groups.j_minus.any(axis=1)[index].sum())
    data = {"steps_verified": 0, "steps_skipped": skipped, "failed_iteration": None}
    # a failure is found among the evaluated transitions, where the index is
    # the identity, so the steps verified before it are counted there
    for lo, block in groups.blocks():
        held = np.flatnonzero(~block.j_minus.any(axis=1))
        block = block.rows(held)
        if block.exact:
            failed = _subsums_inconsistent(block)
        else:
            shrink, grow = 1 + block.r_prev, 1 - block.r_prev
            a = block._mass(block.was_right & block.is_right) / shrink
            b = block._mass(~block.was_right & block.is_right) / grow
            c = block._mass(block.was_right & ~block.is_right) / shrink
            edge = a - c + b
            failed = ~(
                (np.abs(a - edge / 2) <= tol)
                & (np.abs(b - 0.5) <= tol)
                & (np.abs(c - (1 - edge) / 2) <= tol)
            )
        if failed.any():
            j = int(failed.argmax())
            t = lo + int(held[j]) + 1
            data.update(steps_verified=data["steps_verified"] + j, failed_iteration=t)
            if block.exact:
                return CheckResult(name, False, f"iteration {t}: {SUBSUMS_INCONSISTENT}", data)
            r = edge.item(j)
            got = (a.item(j), b.item(j), c.item(j))
            targets = (r / 2, 0.5, (1 - r) / 2)
            return CheckResult(name, False, f"iteration {t}: subsums {got} != {targets}", data)
        data["steps_verified"] += len(held)
    # no failure: every transition where J- is empty verifies
    checked = data["steps_verified"] = len(index) - skipped
    if checked == 0:
        return CheckResult(name, True, "no step satisfied the periodic learning condition", data)
    return CheckResult(name, True, f"subsum values (r/2, 1/2, (1-r)/2) verified on {checked} steps", data)


def _check_farey(trace, report, groups, index, tol) -> CheckResult:
    name = "farey"
    if report is None:
        return CheckResult(name, False, "no cycle to match", {"word": None})
    if report.farey_word is None:
        return CheckResult(name, False, "edge cycle is not generated by the inverse branches", {"word": None})
    data = {"word": str(report.farey_word), "canonical": str(report.farey_word.canonical())}
    return CheckResult(name, True, f"word {report.farey_word}", data)


def _check_agreement(trace, report, groups, index, tol) -> CheckResult:
    """Two copies of the cycling window, one period apart, must agree
    everywhere (lattice_agreement on the analysis' own cycle report)."""
    name = "agreement"
    if report is None:
        return CheckResult(name, False, "no cycle detected", {"status": None})
    k = report.period
    length = 2 * k
    start_a = report.phase
    start_b = report.phase + k
    if start_b + length > len(trace):
        length = k
    if start_b + length > len(trace) or length < 2:
        return CheckResult(name, False, "cycling window too short to compare offset copies", {"status": None})
    windows = ((start_a, length), (start_b, length))
    result = _windows_agree(trace, report, trace, report, windows[0], windows[1], 0, tol)
    data = {
        "status": result.status,
        "reason": result.reason,
        "offset": result.offset,
        "windows": [list(w) for w in windows],
    }
    if result.status == "agree_everywhere":
        return CheckResult(name, True, f"offset windows of length {length} agree everywhere", data)
    return CheckResult(name, False, f"{result.status}: {result.reason} (offset {result.offset})", data)


# name -> check(trace, report, groups, index, tol); analyze runs them in this
# order
CHECKS: Dict[str, Callable[..., CheckResult]] = {
    "periodic-learning": _check_periodic_learning,
    "edge-update": _check_edge_update,
    "subsums": _check_subsums,
    "farey": _check_farey,
    "agreement": _check_agreement,
}
ALL_CHECKS = tuple(CHECKS)
# the checks of theorems; the others (periodic-learning status, a Farey match)
# describe the trace
IDENTITY_CHECKS = ("edge-update", "subsums", "agreement")


def transition_index(trace: BoostTrace) -> np.ndarray:
    """For each transition t = 1 .. T-1 (at row t-1), the row of the
    transition it repeats: transition t reads the signs of steps t-1 and t,
    the weights before step t-1 and the two edges, so once step t-2 lies
    past the trace's bit onset (see `BoostTrace.repeat`), transition t reads
    exactly the inputs of transition t - period. Transitions 1 .. onset +
    period + 1 map to themselves and every later one to one of them; with
    no bit repeat (every exact trace) the index is the identity."""
    if trace.repeat is None:
        return np.arange(len(trace) - 1)
    onset, period = trace.repeat
    return _tiling(onset + 1, period, len(trace) - 1)


def analyze_trace(
    trace: BoostTrace,
    tol: float = 1e-9,
    min_repeats: int = 3,
    checks: Sequence[str] = ALL_CHECKS,
) -> Tuple[Optional[CycleReport], List[CheckResult]]:
    """Detect the trace's cycle once (with its Farey word attached) and run
    the named checks against it, each once, in the order first named.

    The per-transition checks evaluate their kernels on the transitions
    that `transition_index` maps to, at most onset + period + 1 of them,
    and read every transition's result through the index."""
    unknown = [name for name in checks if name not in CHECKS]
    if unknown:
        raise ValueError(f"unknown checks {unknown}; available: {', '.join(ALL_CHECKS)}")
    report = None
    if len(trace):
        report = detect_cycle(trace, tol=tol, min_repeats=min_repeats)
        if report is not None:
            report = attach_farey(report)
    groups = index = None
    if len(trace) >= 2 and not {"periodic-learning", "edge-update", "subsums"}.isdisjoint(checks):
        index = transition_index(trace)
        groups = transition_groups(trace, int(index.max()) + 1)
    return report, [CHECKS[name](trace, report, groups, index, tol) for name in dict.fromkeys(checks)]
