from dataclasses import replace
from fractions import Fraction

import pytest

from boostcycles import (
    FixedSequence,
    HypothesisPool,
    MistakeDichotomy,
    Optimal,
    WeightVector,
    check_edge_update,
    detect_cycle,
    edge_dot,
    lattice_agreement,
    match_farey,
    partition,
    run,
    subsums,
    weight_update,
)
from boostcycles.cycles import (
    IndexPartition,
    PeriodicLearningRequired,
    attach_farey,
)
from boostcycles.farey import GOLDEN, apply_word

GOLDEN_F = float(GOLDEN)


def wv(*values):
    return WeightVector(tuple(Fraction(v) for v in values))


def eta(*signs):
    return MistakeDichotomy(tuple(signs))


class TestPartition:
    def test_example(self):
        part = partition(eta(-1, 1, 1), eta(1, -1, 1))
        assert part.i_plus == {2}
        assert part.i_minus == {0}
        assert part.j_plus == {1}
        assert part.j_minus == frozenset()
        assert part.periodic_learning_holds

    def test_repeated_mistake(self):
        part = partition(eta(1, 1, -1), eta(1, 1, -1))
        assert part.j_minus == {2}
        assert not part.periodic_learning_holds

    def test_all_correct_current(self):
        part = partition(eta(1, 1, 1), eta(1, 1, 1))
        assert part.i_minus == frozenset() and part.j_minus == frozenset()
        assert part.j_plus == frozenset()

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            partition(eta(1, -1), eta(1, -1, 1))


class TestEdgeUpdate:
    def test_golden_trace_always_matches(self, golden_exact):
        for report in check_edge_update(golden_exact):
            assert report.j_minus_empty and report.matches

    # a row missing two points leaves each with weight < 1/2, so a later row
    # can repeat one of those mistakes and still have a positive edge
    J_MINUS_ROWS = [(-1, -1, 1, 1, 1), (-1, 1, 1, 1, 1), (1, 1, -1, 1, 1)]

    def test_forced_repeat_mismatch_located(self):
        pool = HypothesisPool.from_signs(self.J_MINUS_ROWS)
        trace = run(pool, FixedSequence((0, 1, 2)), 3, "exact")
        assert trace.halt is None and len(trace) == 3
        by_t = {r.t: r for r in check_edge_update(trace)}
        assert not by_t[1].j_minus_empty and not by_t[1].matches
        assert by_t[2].j_minus_empty and by_t[2].matches

    def test_gap_is_twice_j_minus_mass(self):
        # the simplified update overshoots the true edge by exactly
        # 2*sum_{J-} w_prev/(1-r_prev)
        pool = HypothesisPool.from_signs(self.J_MINUS_ROWS)
        trace = run(pool, FixedSequence((0, 1, 2)), 3, "exact")
        t = 1
        prev = trace.steps[t - 1]
        w_prev = trace.weights_before(t - 1)
        part = partition(prev.eta, trace.steps[t].eta)
        assert part.j_minus == {0}
        gap = 2 * sum(w_prev[j] for j in part.j_minus) / (1 - prev.edge)
        report = [r for r in check_edge_update(trace) if r.t == t][0]
        assert gap > 0
        assert report.simplified_edge - report.actual_edge == gap

    def test_all_correct_step_reduces_to_one(self):
        # J+ empty: the simplified update evaluates to 1 and so does the true
        # edge of the all-correct dichotomy on the updated weights
        w_prev = wv("1/3", "1/3", "1/3")
        r_prev = Fraction(1, 3)
        d_prev, d_cur = eta(-1, 1, 1), eta(1, 1, 1)
        part = partition(d_prev, d_cur)
        assert part.j_plus == frozenset()
        simplified = (1 + r_prev - 2 * sum(w_prev[j] for j in part.j_plus)) / (1 + r_prev)
        assert simplified == 1
        assert edge_dot(weight_update(w_prev, d_prev, r_prev), d_cur) == 1

    def test_biconditional_fuzz(self, fuzz_exact_traces):
        for trace in fuzz_exact_traces[:400]:
            for report in check_edge_update(trace):
                assert report.matches == report.j_minus_empty

    def test_short_trace_rejected(self, pool3):
        with pytest.raises(ValueError):
            check_edge_update(run(pool3, Optimal(), 1, "exact"))


class TestSubsums:
    def test_hand_trace_values(self):
        part = partition(eta(-1, 1, 1), eta(1, -1, 1))
        report = subsums(wv("1/5", "3/10", "1/2"), Fraction(3, 5), part)
        assert report.edge == Fraction(5, 8)
        assert report.i_plus == Fraction(5, 16) == report.edge / 2
        assert report.i_minus == Fraction(1, 2)
        assert report.j_plus == Fraction(3, 16) == (1 - report.edge) / 2

    def test_golden_steady_state_float(self, golden_float):
        t = len(golden_float) - 1
        prev = golden_float.steps[t - 1]
        part = partition(prev.eta, golden_float.steps[t].eta)
        report = subsums(golden_float.weights_before(t - 1), prev.edge, part)
        r = GOLDEN_F
        assert abs(float(report.i_plus) - r / 2) < 1e-9
        assert abs(float(report.i_minus) - 0.5) < 1e-9
        assert abs(float(report.j_plus) - (1 - r) / 2) < 1e-9

    def test_periodic_learning_required(self):
        part = partition(eta(1, 1, -1), eta(1, 1, -1))
        with pytest.raises(PeriodicLearningRequired):
            subsums(wv("1/4", "1/4", "1/2"), Fraction(1, 2), part)

    def test_inconsistent_edge_detected(self):
        part = partition(eta(-1, 1, 1), eta(1, -1, 1))
        with pytest.raises(ValueError, match="inconsistent"):
            subsums(wv("1/5", "3/10", "1/2"), Fraction(1, 3), part)

    def test_empty_i_minus_is_inconsistent(self):
        part = IndexPartition(
            i_plus=frozenset({0, 1}),
            i_minus=frozenset(),
            j_plus=frozenset({2}),
            j_minus=frozenset(),
        )
        with pytest.raises(ValueError, match="inconsistent"):
            subsums(wv("1/2", "1/4", "1/4"), Fraction(1, 2), part)

    def test_subsum_values_fuzz(self, fuzz_exact_traces):
        checked = 0
        for trace in fuzz_exact_traces[:400]:
            for t in range(1, len(trace)):
                prev = trace.steps[t - 1]
                part = partition(prev.eta, trace.steps[t].eta)
                if not part.periodic_learning_holds:
                    continue
                w_prev = trace.weights_before(t - 1)
                report = subsums(w_prev, prev.edge, part)
                r = report.edge
                assert report.i_plus == r / 2
                assert report.i_minus == Fraction(1, 2)
                assert report.j_plus == (1 - r) / 2
                assert sum(w_prev[i] for i in part.i_minus) == (1 - prev.edge) / 2
                checked += 1
        assert checked > 200


class TestDetectCycle:
    def test_golden_weights_period_3_edges_1(self, golden_float):
        report = detect_cycle(golden_float, tol=1e-9, min_repeats=3)
        assert report is not None
        assert report.period == 3
        assert report.edge_period == 1
        assert abs(float(report.edge_values[0]) - GOLDEN_F) < 1e-9
        assert report.periodic_learning_holds
        assert report.residual < 1e-9
        values = sorted(float(c) for c in report.weight_cycle[0])
        expected = sorted([0.5, GOLDEN_F / 2, (1 - GOLDEN_F) / 2])
        assert values == pytest.approx(expected, abs=1e-9)

    def test_two_cycle_period_4_edges_2(self, twocycle_float):
        report = detect_cycle(twocycle_float, tol=1e-9, min_repeats=3)
        assert report is not None
        assert report.edge_period == 2
        assert report.period == 4
        got = sorted(float(v) for v in report.edge_values)
        assert got == pytest.approx([0.41421356237309515, 0.7071067811865476], abs=1e-9)
        assert report.periodic_learning_holds

    def test_converging_trace_with_tight_tol(self, golden_exact):
        assert detect_cycle(golden_exact, tol=1e-16, min_repeats=3) is None

    def test_short_trace_none(self, pool3):
        trace = run(pool3, Optimal(), 4, "float")
        assert detect_cycle(trace, min_repeats=3) is None

    def test_idempotent_on_cycling_window(self, golden_float):
        report = detect_cycle(golden_float, tol=1e-9, min_repeats=3)
        window = replace(
            golden_float,
            rows=golden_float.rows[report.phase :],
            states=golden_float.states[report.phase :],
        )
        again = detect_cycle(window, tol=1e-9, min_repeats=3)
        assert again is not None
        assert again.period == report.period
        assert again.edge_period == report.edge_period
        assert [float(v) for v in again.edge_values] == pytest.approx(
            [float(v) for v in report.edge_values], abs=2e-9
        )

    def test_min_repeats_validated(self, golden_float):
        with pytest.raises(ValueError):
            detect_cycle(golden_float, min_repeats=1)

    def test_aligned_weight_distance(self, golden_float):
        from boostcycles import aligned_weight_distance

        report = detect_cycle(golden_float)
        r = GOLDEN_F
        reference = WeightVector((0.5, r / 2, (1 - r) / 2))
        # every vector in the cycle is a permutation of the reference values
        for w in report.weight_cycle:
            assert aligned_weight_distance(w, reference) < 1e-9
        with pytest.raises(ValueError):
            aligned_weight_distance(reference, WeightVector((0.5, 0.5)))


class TestMatchFarey:
    def test_golden_matches_R(self, golden_float):
        report = detect_cycle(golden_float)
        word = match_farey(report)
        assert word is not None and str(word) == "R"

    def test_two_cycle_matches_RL_class(self, twocycle_float):
        report = attach_farey(detect_cycle(twocycle_float))
        assert report.farey_word is not None
        assert str(report.farey_word.canonical()) == "LR"

    def test_replay_soundness(self, twocycle_float):
        from boostcycles import FareyWord

        report = detect_cycle(twocycle_float)
        word = match_farey(report)
        x = report.edge_values[0]
        targets = list(report.edge_values[1:]) + [report.edge_values[0]]
        for letter, expected in zip(word.letters, targets):
            x = apply_word(FareyWord((letter,)), x)
            assert abs(float(x) - float(expected)) <= 2 * report.tol

    def test_non_farey_cycle_returns_none(self, golden_float):
        base = detect_cycle(golden_float)
        fake = replace(base, edge_period=2, edge_values=(0.3, 0.5))
        assert match_farey(fake) is None


class TestLatticeAgreement:
    def test_trace_against_itself(self, golden_float):
        report = detect_cycle(golden_float)
        window = (report.phase, 12)
        result = lattice_agreement(golden_float, golden_float, window, window, 5)
        assert result.status == "agree_everywhere"

    def test_offset_by_one_period(self, golden_float):
        report = detect_cycle(golden_float)
        k = report.period
        length = 3 * k
        start_b = len(golden_float) - length
        start_a = start_b - k
        result = lattice_agreement(
            golden_float, golden_float, (start_a, length), (start_b, length), 0
        )
        assert result.status == "agree_everywhere"

    def test_different_edge_cycles_precondition(self, golden_float, twocycle_float):
        result = lattice_agreement(
            golden_float, twocycle_float, (190, 8), (490, 8), 0
        )
        assert result.status == "precondition_failed"
        assert "edge cycles" in result.reason

    def test_non_cycling_precondition(self, pool3, golden_float):
        short = run(pool3, Optimal(), 12, "float")
        result = lattice_agreement(short, golden_float, (0, 6), (150, 6), 0)
        assert result.status == "precondition_failed"

    def test_window_bounds_precondition(self, golden_float):
        result = lattice_agreement(golden_float, golden_float, (0, 999), (0, 999), 0)
        assert result.status == "precondition_failed"

    def test_no_agreement_at_q_precondition(self, golden_float):
        report = detect_cycle(golden_float)
        k = report.period
        # windows offset by a non-multiple of the period disagree at q itself
        start_a = len(golden_float) - 3 * k - 1
        result = lattice_agreement(
            golden_float, golden_float, (start_a, k), (start_a + 1, k), 0
        )
        assert result.status == "precondition_failed"
        assert "agree at q" in result.reason
