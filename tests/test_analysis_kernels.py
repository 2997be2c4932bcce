"""Differential tests of the array analysis kernels in `cycles`.

The per-step loops that `detect_cycle`, `check_edge_update`,
`lattice_agreement`, `check_periodic_learning` and the five `analyze` checks
ran before they became array kernels are kept below as the reference. On
every corpus the kernels must give:
- the same CycleReport, with a bit-identical residual;
- the same `matches` list from check_edge_update;
- the same check verdicts and details;
- in exact mode, equal Fractions (compared with == only);
- in float mode, group masses within the rounding of a sum of n weights,
  n * eps: the kernel sums each group in another order than the loop.
"""

from __future__ import annotations

import random
from dataclasses import replace
from fractions import Fraction
from importlib import resources
from typing import Optional, Tuple

import numpy as np
import pytest

from boostcycles import (
    FirstAbove,
    HypothesisPool,
    MistakeDichotomy,
    Optimal,
    WeightVector,
    check_edge_update,
    check_periodic_learning,
    detect_cycle,
    lattice_agreement,
    load_csv,
    partition,
    run,
    run_on_dataset,
    subsums,
)
from boostcycles.cycles import (
    ALL_CHECKS,
    AgreementReport,
    CycleReport,
    analyze_trace,
    attach_farey,
    transition_groups,
)

EPS = np.finfo(np.float64).eps


def take_steps(trace, index):
    """The trace with its steps taken at the given indices, in that order."""
    return replace(trace, rows=trace.rows[index], signs=trace.signs[index], states=trace.states[index])


# --- reference: the per-step loops, as they were before the array kernels ---


def reference_check_periodic_learning(columns) -> Optional[Tuple[int, int]]:
    for t in range(len(columns) - 1):
        cur, nxt = columns[t], columns[t + 1]
        for i in range(len(cur)):
            if cur[i] == -1 and nxt[i] == -1:
                return (i, t)
    return None


def reference_check_edge_update(trace, tol=1e-12):
    reports = []
    for t in range(1, len(trace)):
        prev_step = trace.steps[t - 1]
        cur_step = trace.steps[t]
        w_prev = trace.weights_before(t - 1)
        r_prev = prev_step.edge
        part = partition(prev_step.eta, cur_step.eta)
        simplified = (1 + r_prev - 2 * sum(w_prev[j] for j in part.j_plus)) / (1 + r_prev)
        if trace.mode == "exact":
            matches = simplified == cur_step.edge
        else:
            matches = abs(simplified - cur_step.edge) <= tol
        reports.append((t, part.periodic_learning_holds, simplified, cur_step.edge, matches))
    return reports


def _state_distance(edges, weights, s, t):
    d = abs(float(edges[s]) - float(edges[t]))
    for a, b in zip(weights[s], weights[t]):
        d = max(d, abs(float(a) - float(b)))
    return d


def _window_periodic(edges, weights, k, start, end, tol):
    worst = 0.0
    for t in range(start, end - k):
        d = _state_distance(edges, weights, t, t + k)
        if d > tol:
            return None
        worst = max(worst, d)
    return worst


def _prime_factors(n):
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def reference_detect_cycle(trace, tol=1e-9, min_repeats=3):
    n_steps = len(trace)
    burn_in = n_steps // 2
    k_max = (n_steps - burn_in) // min_repeats
    if k_max < 1:
        return None
    edges = [s.edge for s in trace.steps]
    weights = [s.weights_after for s in trace.steps]

    def verified(k):
        return _window_periodic(edges, weights, k, n_steps - min_repeats * k, n_steps, tol)

    candidates = set(range(1, min(k_max, 64) + 1))
    if trace.mode == "float":
        quantum = tol / 10
        last_key = tuple(round(float(v) / quantum) for v in (edges[-1], *weights[-1]))
        for t in range(n_steps - 2, burn_in - 1, -1):
            key = tuple(round(float(v) / quantum) for v in (edges[t], *weights[t]))
            if key == last_key:
                candidates.add(n_steps - 1 - t)
    else:
        last = (edges[-1], weights[-1].components)
        for t in range(n_steps - 2, burn_in - 1, -1):
            if (edges[t], weights[t].components) == last:
                candidates.add(n_steps - 1 - t)

    period = None
    residual = 0.0
    for k in sorted(c for c in candidates if c <= k_max):
        res = verified(k)
        if res is not None:
            period, residual = k, res
            break
    if period is None:
        return None
    reduced = True
    while reduced:
        reduced = False
        for f in _prime_factors(period):
            res = verified(period // f)
            if res is not None:
                period, residual = period // f, res
                reduced = True
                break
    phase = n_steps - min_repeats * period
    while phase > 0 and _state_distance(edges, weights, phase - 1, phase - 1 + period) <= tol:
        phase -= 1
    edge_period = period
    for e in sorted(d for d in range(1, period) if period % d == 0):
        ok = all(
            abs(float(edges[t]) - float(edges[t + e])) <= tol
            for t in range(n_steps - min_repeats * period, n_steps - e)
        )
        if ok:
            edge_period = e
            break
    edge_values = tuple(edges[n_steps - edge_period:])
    weight_cycle = tuple(weights[n_steps - period:])
    window = tuple(s.eta for s in trace.steps[phase:])
    violation = reference_check_periodic_learning(window) if len(window) >= 2 else None
    if violation is not None:
        violation = (violation[0], violation[1] + phase)
    return CycleReport(period, edge_period, phase, edge_values, weight_cycle, violation, residual, tol)


def least_passing_period(trace, tol=1e-9, min_repeats=3):
    """The definition of the period, by brute force: the least k in
    1 .. k_max whose trailing window of min_repeats periods repeats within
    tol, or None."""
    n_steps = len(trace)
    k_max = (n_steps - n_steps // 2) // min_repeats
    edges = [s.edge for s in trace.steps]
    weights = [s.weights_after for s in trace.steps]
    for k in range(1, k_max + 1):
        if _window_periodic(edges, weights, k, n_steps - min_repeats * k, n_steps, tol) is not None:
            return k
    return None


def _weights_close(a, b, tol):
    if len(a) != len(b):
        return False
    return all(abs(float(x) - float(y)) <= tol for x, y in zip(a, b))


def reference_lattice_agreement(trace_a, trace_b, window_a, window_b, q, tol=1e-9):
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
    rep_a = reference_detect_cycle(trace_a, tol=tol)
    rep_b = reference_detect_cycle(trace_b, tol=tol)
    if rep_a is None or rep_b is None:
        return AgreementReport("precondition_failed", "both traces must cycle")
    if rep_a.edge_period != rep_b.edge_period or not all(
        any(abs(float(x) - float(y)) <= 2 * tol for y in rep_b.edge_values)
        for x in rep_a.edge_values
    ):
        return AgreementReport("precondition_failed", "edge cycles differ")
    for trace, start in ((trace_a, start_a), (trace_b, start_b)):
        cols = tuple(s.eta for s in trace.steps[start : start + length])
        if reference_check_periodic_learning(cols) is not None:
            return AgreementReport(
                "precondition_failed", "periodic learning condition fails on a window"
            )

    def state(trace, t):
        return trace.steps[t].eta, trace.weights_before(t)

    eta_qa, w_qa = state(trace_a, start_a + q)
    eta_qb, w_qb = state(trace_b, start_b + q)
    if eta_qa != eta_qb or not _weights_close(w_qa, w_qb, tol):
        return AgreementReport("precondition_failed", "windows do not agree at q")
    for offset in list(range(q, length)) + list(range(q - 1, -1, -1)):
        eta_a, w_a = state(trace_a, start_a + offset)
        eta_b, w_b = state(trace_b, start_b + offset)
        if eta_a != eta_b:
            return AgreementReport("disagreement", "mistake dichotomies differ", offset)
        if not _weights_close(w_a, w_b, tol):
            return AgreementReport("disagreement", "weights differ beyond tolerance", offset)
    return AgreementReport("agree_everywhere")


def ref_check_edge_update(trace, tol):
    reports = reference_check_edge_update(trace, tol)
    broken = [t for t, empty, _, _, match in reports if match != empty]
    mismatch = [t for t, _, _, _, match in reports if not match]
    if broken:
        return False, f"biconditional broken at iterations {broken}"
    if mismatch:
        return True, f"holds; update differs exactly where J- is nonempty: iterations {mismatch}"
    return True, "holds; update matches at every iteration (J- always empty)"


def ref_check_subsums(trace, tol):
    checked = 0
    for t in range(1, len(trace)):
        prev = trace.steps[t - 1]
        part = partition(prev.eta, trace.steps[t].eta)
        if not part.periodic_learning_holds:
            continue
        w_prev = trace.weights_before(t - 1)
        try:
            rep = subsums(w_prev, prev.edge, part)
        except ValueError as exc:
            return False, f"iteration {t}: {exc}"
        r = rep.edge
        half = Fraction(1, 2) if trace.mode == "exact" else 0.5
        targets = (r / 2, half, (1 - r) / 2)
        got = (rep.i_plus, rep.i_minus, rep.j_plus)
        if trace.mode == "exact":
            ok = got == targets
        else:
            ok = all(abs(float(g) - float(tv)) <= tol for g, tv in zip(got, targets))
        if not ok:
            return False, f"iteration {t}: subsums {got} != {targets}"
        checked += 1
    if checked == 0:
        return True, "no step satisfied the periodic learning condition"
    return True, f"subsum values (r/2, 1/2, (1-r)/2) verified on {checked} steps"


def ref_check_farey(report):
    if report is None:
        return False, "no cycle to match"
    if report.farey_word is None:
        return False, "edge cycle is not generated by the inverse branches"
    return True, f"word {report.farey_word}"


def ref_check_agreement(trace, report, tol):
    if report is None:
        return False, "no cycle detected"
    k = report.period
    length = 2 * k
    start_a = report.phase
    start_b = report.phase + k
    if start_b + length > len(trace):
        length = k
    if start_b + length > len(trace) or length < 2:
        return False, "cycling window too short to compare offset copies"
    result = reference_lattice_agreement(trace, trace, (start_a, length), (start_b, length), 0, tol)
    if result.status == "agree_everywhere":
        return True, f"offset windows of length {length} agree everywhere"
    return False, f"{result.status}: {result.reason} (offset {result.offset})"


def ref_check_periodic_learning(trace):
    if len(trace) < 2:
        return False, "trace too short"
    violation = reference_check_periodic_learning([s.eta for s in trace.steps])
    if violation is None:
        return True, "holds on the whole trace"
    return False, f"violated at point {violation[0]}, iteration {violation[1]}"


def reference_analyze(trace, tol, min_repeats=3):
    """The report and (ok, detail) of every check, as `analyze` computed them."""
    report = None
    if trace.steps:
        report = reference_detect_cycle(trace, tol=tol, min_repeats=min_repeats)
        if report is not None:
            report = attach_farey(report)
    short = (False, "trace too short")
    results = {
        "periodic-learning": ref_check_periodic_learning(trace),
        "edge-update": ref_check_edge_update(trace, tol) if len(trace) >= 2 else short,
        "subsums": ref_check_subsums(trace, tol) if len(trace) >= 2 else short,
        "farey": ref_check_farey(report),
        "agreement": ref_check_agreement(trace, report, tol),
    }
    return report, results


def group_masses(groups):
    """The mass of the weights before each transition on its I+, I- and J+:
    float64 columns, or in exact mode Fractions, the `_mass` numerators over
    each row's D."""
    was, now = groups.was_right, groups.is_right
    masses = [groups._mass(mask) for mask in (was & now, ~was & now, was & ~now)]
    if groups.exact:
        d = groups.w_prev[:, 0].tolist()
        masses = [[Fraction(m, q) for m, q in zip(mass.tolist(), d)] for mass in masses]
    return masses


# --- corpora ---


def _wide_pool(seed: int, n_points: int = 64, n_pairs: int = 100) -> HypothesisPool:
    """A random pool of rows and their negations, as the benchmark draws it."""
    rng = random.Random(seed)
    rows, seen = [], set()
    full = (1 << n_points) - 1
    while len(rows) < 2 * n_pairs:
        bits = rng.getrandbits(n_points)
        if bits in (0, full) or bits in seen:
            continue
        seen.update((bits, full ^ bits))
        row = tuple(1 if bits >> i & 1 else -1 for i in range(n_points))
        rows.extend((row, tuple(-e for e in row)))
    return HypothesisPool.from_signs(rows)


@pytest.fixture(scope="module")
def named_traces(pool3, golden_exact, golden_float, twocycle_float):
    iris = str(resources.files("boostcycles") / "data" / "iris.csv")
    traces = {
        "golden exact": golden_exact,
        "golden float": golden_float,
        "golden float 2000": run(pool3, Optimal(), 2000, "float"),
        "sqrt2 float": twocycle_float,
        "sqrt2 first-above:2/5 float": run(pool3, FirstAbove(Fraction(2, 5)), 500, "float"),
        "sqrt2 first-above:2/5 exact": run(pool3, FirstAbove(Fraction(2, 5)), 40, "exact"),
        "golden exact 300": run(pool3, Optimal(), 300, "exact"),
        "iris (3,4) 1000": run_on_dataset(load_csv(iris, "species", "versicolor"), 3, 4, 1000, "float"),
    }
    for seed in range(3):
        traces[f"wide pool {seed}"] = run(_wide_pool(seed), Optimal(), 300, "float")
    return traces


def _tiled_70(trace):
    """The trace's first 70 steps, reversed so that each block ends on the
    unsettled first steps, repeated 7 times: period 70."""
    return take_steps(trace, np.tile(np.arange(69, -1, -1), 7))


def _moved_last_state(trace):
    """The exact trace with its last state moved by less than a double can
    show: the same state matrix, but no longer an exact repeat."""
    states = trace.states.copy()
    states[-1, 2:] *= 2**200  # D and the a_i
    states[-1, 3] += 1
    states[-1, 4] -= 1
    return replace(trace, states=states)


def _float_bits(x):
    return float(x).hex()


def assert_same_report(got: Optional[CycleReport], want: Optional[CycleReport], case):
    assert (got is None) == (want is None), case
    if got is None:
        return
    assert got == want, case
    assert _float_bits(got.residual) == _float_bits(want.residual), case


def assert_same_edge_update(trace, tol, case):
    got = check_edge_update(trace, tol)
    want = reference_check_edge_update(trace, tol)
    assert [r.matches for r in got] == [w[4] for w in want], case
    assert [(r.t, r.j_minus_empty) for r in got] == [(w[0], w[1]) for w in want], case
    assert [r.actual_edge for r in got] == [w[3] for w in want], case
    if trace.mode == "exact":
        assert [r.simplified_edge for r in got] == [w[2] for w in want], case
    else:
        # the J+ mass moves the simplified edge by at most n * eps, times
        # 2 / (1 + r) <= 2, plus an ulp for each of the two roundings that
        # follow (the subtraction's and the division's)
        bound = 2 * (len(trace.initial_weights) + 1) * EPS
        for r, w in zip(got, want):
            assert abs(r.simplified_edge - w[2]) <= bound, case


def assert_same_checks(trace, tol, case, min_repeats=3):
    report, results = analyze_trace(trace, tol, min_repeats)
    want_report, want = reference_analyze(trace, tol, min_repeats)
    assert_same_report(report, want_report, case)
    assert [r.name for r in results] == list(ALL_CHECKS)
    for result in results:
        assert (result.ok, result.detail) == want[result.name], (case, result.name)


# --- the differential tests ---


class TestNamedTraces:
    def test_checks_and_reports(self, named_traces):
        for name, trace in named_traces.items():
            for tol in (1e-9, 1e-6, 1e-12):
                assert_same_checks(trace, tol, (name, tol))

    def test_failing_checks_on_three_points(self, named_traces):
        # a tol below the rounding error fails the float identities; on the
        # 3-point pool every group has at most one member, so the kernel's
        # masses are the loop's, bit for bit, and so are the details
        for name, trace in named_traces.items():
            if len(trace.initial_weights) == 3:
                assert_same_checks(trace, 1e-300, (name, 1e-300))
                assert_same_checks(trace, 1e-300, (name, 1e-300, 2), min_repeats=2)

    def test_failure_past_the_first_block(self, named_traces, lattice_states):
        # a wrong recorded edge breaks the identities at the next transition,
        # here in a later block of transitions than the first
        for name, t, delta in (("golden exact 300", 280, Fraction(1, 10**6)), ("golden float 2000", 700, 1e-6)):
            trace = named_traces[name]
            states = trace.states.copy()
            if trace.mode == "exact":
                edge, *weights = trace.state(t)
                states[t] = lattice_states([(edge + delta, *weights)])[0]
            else:
                states[t, 0] += delta
            tampered = replace(trace, states=states)
            assert_same_checks(tampered, 1e-9, name)
            assert_same_edge_update(tampered, 1e-12, name)
            subsums_result = analyze_trace(tampered, checks=("subsums",))[1][0]
            assert subsums_result.data == {"steps_verified": t, "steps_skipped": 0, "failed_iteration": t + 1}

    def test_detect_cycle_options(self, named_traces):
        for name, trace in named_traces.items():
            for min_repeats in (2, 3, 5):
                assert_same_report(
                    detect_cycle(trace, 1e-9, min_repeats),
                    reference_detect_cycle(trace, 1e-9, min_repeats),
                    (name, min_repeats),
                )

    def test_edge_update(self, named_traces):
        for name, trace in named_traces.items():
            for tol in (1e-12, 1e-9):
                assert_same_edge_update(trace, tol, (name, tol))

    def test_cycles_found_where_expected(self, named_traces):
        # the corpus exercises the cycle paths, not only "no cycle"
        periods = {name: getattr(detect_cycle(t), "period", None) for name, t in named_traces.items()}
        assert periods["golden float"] == 3
        assert periods["sqrt2 float"] == 4
        assert periods["iris (3,4) 1000"] == 3
        assert periods["golden exact 300"] == 3

    def test_long_exact_repeats(self, named_traces):
        # a state sequence repeating exactly with period 70, in both modes
        for name in ("golden exact 300", "golden float 2000"):
            repeated = _tiled_70(named_traces[name])
            report = detect_cycle(repeated)
            assert report.period == 70 and report.residual == 0.0, name
            assert_same_report(report, reference_detect_cycle(repeated), name)

    def test_exact_confirmation_of_float_collisions(self, named_traces):
        # the last state, moved by less than a double can show, repeats
        # within tol but not exactly: the period is that of the unmoved trace
        repeated = _tiled_70(named_traces["golden exact 300"])
        moved = _moved_last_state(repeated)
        assert np.array_equal(moved.state_matrix, repeated.state_matrix)
        assert moved.states[-1].tolist() != repeated.states[-1].tolist()
        want = detect_cycle(repeated)
        got = detect_cycle(moved)
        assert got.period == 70 and got.residual == 0.0
        assert (got.period, got.phase, got.edge_period) == (want.period, want.phase, want.edge_period)
        assert got.period == least_passing_period(moved)

    def test_float_group_masses(self, named_traces):
        for name, trace in named_traces.items():
            if trace.mode != "float":
                continue
            groups = transition_groups(trace)
            masses = group_masses(groups)
            bound = len(trace.initial_weights) * EPS
            for t in range(1, len(trace)):
                prev = trace.steps[t - 1]
                part = partition(prev.eta, trace.steps[t].eta)
                w_prev = trace.weights_before(t - 1)
                for members, mass in zip((part.i_plus, part.i_minus, part.j_plus), masses):
                    loop = sum(w_prev[i] for i in sorted(members))
                    assert abs(mass[t - 1] - loop) <= bound, (name, t)
                assert groups.j_minus[t - 1].any() == bool(part.j_minus), (name, t)

    def test_agreement_windows(self, named_traces):
        for name, trace in named_traces.items():
            report = detect_cycle(trace)
            if report is None:
                continue
            k = report.period
            n = len(trace)
            cases = [
                ((report.phase, 12), (report.phase, 12), 5),
                ((n - 4 * k, 3 * k), (n - 3 * k, 3 * k), 0),
                ((n - 3 * k - 1, k), (n - 3 * k, k), 0),  # not a whole period apart
                ((0, 6), (n - 6, 6), 2),  # before the cycle
                ((n - 2 * k, 2 * k), (n - 2 * k, 2 * k), 2 * k - 1),
            ]
            for window_a, window_b, q in cases:
                if q >= window_a[1]:
                    continue
                got = lattice_agreement(trace, trace, window_a, window_b, q)
                want = reference_lattice_agreement(trace, trace, window_a, window_b, q)
                assert got == want, (name, window_a, window_b, q)

    def test_disagreements_located(self, golden_float):
        report = detect_cycle(golden_float)
        start, length = report.phase + 30, 12
        signs, states = golden_float.signs.copy(), golden_float.states.copy()
        # an all-correct dichotomy differs from every pool row without
        # creating a repeated mistake; a permuted weight vector is still one
        signs[start + 7] = (1, 1, 1)
        states[start + 2, 1:] = states[start + 2, [2, 3, 1]]
        tampered = replace(golden_float, signs=signs, states=states)
        seen = set()
        for q in (0, 1, 5, 11):
            got = lattice_agreement(golden_float, tampered, (start, length), (start, length), q)
            want = reference_lattice_agreement(golden_float, tampered, (start, length), (start, length), q)
            assert got == want, q
            seen.add((got.reason, got.offset))
        assert seen == {
            ("weights differ beyond tolerance", 3),
            ("mistake dichotomies differ", 7),
        }

    def test_agreement_across_traces(self, named_traces):
        golden, other = named_traces["golden float"], named_traces["golden float 2000"]
        sqrt2 = named_traces["sqrt2 float"]
        for a, b, wa, wb in (
            (golden, other, (150, 9), (1800, 9)),
            (golden, other, (150, 9), (1801, 9)),
            (golden, sqrt2, (190, 8), (490, 8)),
            (named_traces["wide pool 0"], golden, (0, 6), (150, 6)),
        ):
            for q in (0, 3):
                got = lattice_agreement(a, b, wa, wb, q)
                assert got == reference_lattice_agreement(a, b, wa, wb, q)


class TestFuzzCorpora:
    def test_exact_traces(self, fuzz_exact_traces):
        for i, trace in enumerate(fuzz_exact_traces):
            assert_same_edge_update(trace, 1e-12, i)
            assert_same_checks(trace, 1e-9, i, min_repeats=2)
        for i, trace in enumerate(fuzz_exact_traces[:300]):
            assert_same_checks(trace, 1e-9, i)
            columns = tuple(s.eta for s in trace.steps)
            assert check_periodic_learning(columns) == reference_check_periodic_learning(columns)

    def test_exact_masses_are_fractions(self, fuzz_exact_traces):
        for trace in fuzz_exact_traces[:200]:
            masses = group_masses(transition_groups(trace))
            for t in range(1, len(trace)):
                prev = trace.steps[t - 1]
                part = partition(prev.eta, trace.steps[t].eta)
                w_prev = trace.weights_before(t - 1)
                for members, mass in zip((part.i_plus, part.i_minus, part.j_plus), masses):
                    assert mass[t - 1] == sum(w_prev[i] for i in members)
                    assert isinstance(mass[t - 1], (int, Fraction))

    def test_float_cycles(self, fuzz_float_cycles):
        for i, (trace, report) in enumerate(fuzz_float_cycles):
            assert_same_report(report, reference_detect_cycle(trace, 1e-9, 3), i)
            assert_same_edge_update(trace, 1e-12, i)
            assert_same_checks(trace, 1e-9, i)
            for min_repeats in (2, 4):
                assert_same_report(
                    detect_cycle(trace, 1e-9, min_repeats),
                    reference_detect_cycle(trace, 1e-9, min_repeats),
                    (i, min_repeats),
                )

    def test_float_cycle_agreement(self, fuzz_float_cycles):
        for i, (trace, report) in enumerate(fuzz_float_cycles):
            k = report.period
            length = max(2, k)
            start_b = len(trace) - length
            for start_a in (start_b - k, start_b - 1, report.phase):
                if start_a < 0:
                    continue
                got = lattice_agreement(trace, trace, (start_a, length), (start_b, length), 0)
                want = reference_lattice_agreement(trace, trace, (start_a, length), (start_b, length), 0)
                assert got == want, (i, start_a)


class TestLeastPassingPeriod:
    """detect_cycle's period is the least k <= k_max whose window passes."""

    CASES = [(tol, m) for tol in (1e-9, 1e-12) for m in (2, 3, 5)]

    def assert_least(self, trace, case):
        for tol, min_repeats in self.CASES:
            report = detect_cycle(trace, tol, min_repeats)
            got = None if report is None else report.period
            assert got == least_passing_period(trace, tol, min_repeats), (case, tol, min_repeats)

    def test_named_traces(self, named_traces):
        for name, trace in named_traces.items():
            self.assert_least(trace, name)
        for name in ("golden exact 300", "golden float 2000"):
            self.assert_least(_tiled_70(named_traces[name]), (name, "tiled"))
        self.assert_least(_moved_last_state(_tiled_70(named_traces["golden exact 300"])), "moved")

    def test_fuzz_exact_traces(self, fuzz_exact_traces):
        for i, trace in enumerate(fuzz_exact_traces):
            self.assert_least(trace, i)

    def test_fuzz_float_cycles(self, fuzz_float_cycles):
        for i, (trace, _) in enumerate(fuzz_float_cycles):
            self.assert_least(trace, i)


class TestTinyTolerance:
    """detect_cycle works however small tol is."""

    @pytest.mark.parametrize("tol", [1e-300, 1e-320, 5e-324])
    def test_detect_cycle(self, golden_float, tol):
        report = detect_cycle(golden_float, tol=tol)
        assert report is None or report.residual <= tol

    def test_equal_states_still_collide(self, pool3):
        # the float 3-point orbit repeats bit for bit once it has settled
        trace = run(pool3, Optimal(), 300, "float")
        report = detect_cycle(trace, tol=5e-324)
        assert report is not None and report.period == 3 and report.residual == 0.0


class TestSharedArrays:
    def test_arrays_built_once_and_read_only(self, golden_float):
        assert golden_float.state_matrix is golden_float.state_matrix
        assert golden_float.signs is golden_float.signs
        for array in (golden_float.state_matrix, golden_float.signs, golden_float.repeated_mistakes):
            assert not array.flags.writeable

    def test_matrices_match_steps(self, golden_exact):
        states = golden_exact.state_matrix
        for t, step in enumerate(golden_exact.steps):
            assert states[t, 0] == float(step.edge)
            assert states[t, 1:].tolist() == [float(c) for c in step.weights_after]
            assert golden_exact.signs[t].tolist() == list(step.eta.entries)

    def test_empty_trace(self, pool3):
        empty = take_steps(run(pool3, Optimal(), 3, "float"), [])
        assert empty.state_matrix.shape == (0, 4)
        assert empty.signs.shape == (0, 3)
        report, results = analyze_trace(empty)
        assert report is None
        assert {r.name: r.detail for r in results} == {
            "periodic-learning": "trace too short",
            "edge-update": "trace too short",
            "subsums": "trace too short",
            "farey": "no cycle to match",
            "agreement": "no cycle detected",
        }

    def test_unknown_check(self, golden_float):
        with pytest.raises(ValueError, match="unknown checks"):
            analyze_trace(golden_float, checks=("margins",))
