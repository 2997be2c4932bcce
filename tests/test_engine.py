import json
import math
import random
import re
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from boostcycles import (
    BoostTrace,
    FirstAbove,
    FixedSequence,
    HypothesisPool,
    MistakeDichotomy,
    Optimal,
    PerfectClassification,
    WeakLearningFailure,
    WeightVector,
    alpha,
    edge_dot,
    exponential_update,
    load_csv,
    run,
    run_on_dataset,
    select,
    uniform_weights,
    weight_update,
)
import boostcycles.engine as engine
from boostcycles.engine import _lattice_point, _lattice_step, boost
from boostcycles.simplex import DimensionMismatch
from boostcycles.traceio import dumps_trace, loads_trace


def wv(*values):
    return WeightVector(tuple(Fraction(v) for v in values))


def eta(*signs):
    return MistakeDichotomy(tuple(signs))


def fib(n):
    a, b = 1, 1
    for _ in range(n - 1):
        a, b = b, a + b
    return a


class TestSelect:
    def test_optimal_tie_breaks_low(self, pool3):
        row, d, r = select(wv("1/3", "1/3", "1/3"), pool3, Optimal())
        assert (row, r) == (0, Fraction(1, 3))
        assert d is pool3[0]

    def test_optimal_max(self, pool3):
        row, _, r = select(wv("1/2", "1/4", "1/4"), pool3, Optimal())
        assert (row, r) == (1, Fraction(1, 2))

    def test_first_above(self, pool3):
        row, _, r = select(wv("1/2", "1/4", "1/4"), pool3, FirstAbove(Fraction(2, 5)))
        assert (row, r) == (1, Fraction(1, 2))

    def test_first_above_prefers_smallest_qualifying(self, pool3):
        # edges here are (3/5, 2/5, 0); 2/5 qualifies and is smaller
        row, _, r = select(wv("1/5", "3/10", "1/2"), pool3, FirstAbove(Fraction(2, 5)))
        assert (row, r) == (1, Fraction(2, 5))

    def test_first_above_fallback(self, pool3):
        row, _, r = select(wv("1/3", "1/3", "1/3"), pool3, FirstAbove(Fraction(2, 5)))
        assert (row, r) == (0, Fraction(1, 3))

    def test_fixed_sequence_wraps(self, pool3):
        rule = FixedSequence((2, 0))
        assert select(wv("1/3", "1/3", "1/3"), pool3, rule, t=0)[0] == 2
        assert select(wv("1/3", "1/3", "1/3"), pool3, rule, t=1)[0] == 0
        assert select(wv("1/3", "1/3", "1/3"), pool3, rule, t=2)[0] == 2

    def test_fixed_sequence_bounds(self, pool3):
        with pytest.raises(IndexError):
            select(wv("1/3", "1/3", "1/3"), pool3, FixedSequence((5,)))
        # only the row for t is checked
        schedule = FixedSequence((0, 7))
        assert select(wv("1/3", "1/3", "1/3"), pool3, schedule, 2)[0] == 0
        with pytest.raises(IndexError, match="scheduled row 7 outside pool of 3 rows"):
            select(wv("1/3", "1/3", "1/3"), pool3, schedule, 1)

    def test_weak_learning_failure(self):
        pool = HypothesisPool.from_signs([(1, -1, -1)])
        with pytest.raises(WeakLearningFailure):
            select(wv("1/3", "1/3", "1/3"), pool, Optimal())

    def test_rule_validation(self):
        with pytest.raises(ValueError):
            FirstAbove(Fraction(0))
        with pytest.raises(ValueError):
            FirstAbove(1.0)
        with pytest.raises(ValueError):
            FixedSequence(())


def reference_select(w, pool):
    """Optimal selection as the reference defines it: every row scored with
    edge_dot, ties to the lowest index."""
    best = max(range(len(pool)), key=lambda i: (edge_dot(w, pool[i]), -i))
    return best, edge_dot(w, pool[best])


def wide_pool(seed, n_points=64, n_pairs=100):
    """n_pairs random rows over n_points points plus their negations."""
    rng = random.Random(seed)
    rows, seen = [], set()
    while len(rows) < 2 * n_pairs:
        row = tuple(rng.choice((1, -1)) for _ in range(n_points))
        neg = tuple(-e for e in row)
        if 1 not in row or 1 not in neg or row in seen:
            continue
        seen.update((row, neg))
        rows += [row, neg]
    return HypothesisPool.from_signs(rows)


def full_scan(w, pool, rule, edges=None):
    """(row, edge) as the rule defines it on every row's reference edge
    (edges, when given, are those of the pool's rows on w): optimal is
    reference_select; first-above takes the smallest edge at or above
    theta, ties to the lowest index, else falls back to optimal."""
    if isinstance(rule, FirstAbove):
        if edges is None:
            edges = [edge_dot(w, d) for d in pool.rows]
        qualifying = [(r, i) for i, r in enumerate(edges) if r >= rule.theta]
        if qualifying:
            return min(qualifying)[::-1]
    return reference_select(w, pool)


# a pool whose rows all tie on uniform weights: its screen keeps several
# candidates, and the loop re-scores them all
EQUAL_EDGES = HypothesisPool.from_signs([(1, 1, -1), (-1, 1, 1), (1, -1, 1)])
THETAS = (0.05, 0.1, 0.2, 0.3, 0.99)


class TestScreenedSelect:
    """Float selection screens the pool with one matrix product; it must
    choose the same row and the same edge bits as the reference."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_wide_pool_matches_reference(self, seed):
        pool = wide_pool(seed)
        w = uniform_weights(pool.n_points, "float")
        for _ in range(100):
            row, d, r = select(w, pool, Optimal())
            assert (row, r) == reference_select(w, pool)
            assert d is pool[row]
            w = weight_update(w, d, r)

    def test_fuzz_float_cycles_match_reference(self, fuzz_float_cycles):
        fallbacks = 0
        for trace, _ in fuzz_float_cycles:
            for t in range(len(trace)):
                w = trace.weights_before(t)
                expected = reference_select(w, trace.pool)
                assert select(w, trace.pool, Optimal())[::2] == expected
                rule = trace.rule
                if isinstance(rule, FirstAbove) and all(
                    edge_dot(w, d) < rule.theta for d in trace.pool.rows
                ):
                    fallbacks += 1
                    assert select(w, trace.pool, rule)[::2] == expected
        assert fallbacks > 0

    def test_equal_edges_lowest_index_wins(self):
        pool = EQUAL_EDGES
        w = WeightVector((0.25, 0.25, 0.5))
        assert edge_dot(w, pool[1]) == edge_dot(w, pool[2]) == 0.5
        assert select(w, pool, Optimal())[::2] == (1, 0.5) == reference_select(w, pool)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_first_above_matches_full_scan(self, seed):
        pool = wide_pool(seed)
        w = uniform_weights(pool.n_points, "float")
        checked = {theta: 0 for theta in THETAS}
        margin = engine.SCREEN_MARGIN * pool.n_points
        for step in range(100):
            edges = [edge_dot(w, d) for d in pool.rows]
            for theta in checked:
                # the full scan the screen replaces
                assert select(w, pool, FirstAbove(theta))[::2] == full_scan(w, pool, FirstAbove(theta), edges)
                checked[theta] += any(r >= theta for r in edges)
            if step % 5 == 0:
                # thresholds on a row's edge, an ulp beside it, and within
                # or just past the screen's margin of it: the row is then
                # the least sure product, or within the margin of theta
                positive = sorted({r for r in edges if 0 < r < 1})
                for r in positive[:: max(1, len(positive) // 8)] + positive[-1:]:
                    beside = (math.nextafter(r, 0), math.nextafter(r, 1), *(r + k * margin for k in (-2, -0.5, 0.5, 2)))
                    for theta in (r, *beside):
                        if 0 < theta < 1:
                            rule = FirstAbove(theta)
                            assert select(w, pool, rule)[::2] == full_scan(w, pool, rule, edges), (step, theta)
            row, d, r = select(w, pool, Optimal())
            w = weight_update(w, d, r)
        assert checked[0.99] == 0  # no row reaches it: always the fallback
        assert all(checked[t] > 0 for t in (0.05, 0.1))

    @pytest.mark.parametrize("rule", [Optimal(), *map(FirstAbove, THETAS)], ids=repr)
    @pytest.mark.parametrize("pool", [wide_pool(1), wide_pool(2), EQUAL_EDGES], ids=["wide1", "wide2", "equal"])
    def test_run_matches_full_scan(self, pool, rule):
        # the loop's own selection, step by step: each step's row and edge
        # bits are the full scan's on the weights before it, and its weights
        # after are weight_update's
        trace = run(pool, rule, 100, "float")
        assert trace.halt is None and len(trace) == 100
        margin = engine.SCREEN_MARGIN * pool.n_points
        screened = 0
        for t in range(100):
            w = trace.weights_before(t)
            row, edge = trace.rows[t].item(), trace.states[t, 0].item()
            assert (row, edge) == full_scan(w, pool, rule)
            assert trace.state(t)[1:] == weight_update(w, pool[row], edge).components
            approx = pool.matrix @ w.as_array()
            screened += (approx >= approx.max() - margin).sum() > 1
        if pool is EQUAL_EDGES:
            assert screened > 0  # the multi-candidate branch ran

    def test_first_above_edge_equal_to_theta_qualifies(self):
        pool = HypothesisPool.from_signs([(1, 1, 1), (1, -1, 1), (-1, 1, 1)])
        w = WeightVector((0.5, 0.25, 0.25))
        assert [edge_dot(w, d) for d in pool.rows] == [1.0, 0.5, 0.0]
        assert select(w, pool, FirstAbove(0.5))[::2] == (1, 0.5)
        assert select(w, pool, FirstAbove(math.nextafter(0.5, 1)))[::2] == (0, 1.0)

    def test_one_ulp_larger_edge_wins(self):
        pool = HypothesisPool.from_signs([(1, -1, 1), (1, 1, -1)])
        w = WeightVector((0.5, math.nextafter(0.25, 1), 0.25))
        low, high = edge_dot(w, pool[0]), edge_dot(w, pool[1])
        assert high == math.nextafter(low, 1)
        assert select(w, pool, Optimal())[::2] == (1, high) == reference_select(w, pool)


class TestAlpha:
    def test_values(self):
        assert alpha(Fraction(1, 3)) == pytest.approx(0.5 * math.log(2), abs=1e-15)
        assert alpha(Fraction(3, 5)) == pytest.approx(math.log(2), abs=1e-15)

    def test_monotone_and_small(self):
        grid = [i / 100 for i in range(1, 100)]
        values = [alpha(r) for r in grid]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert 0 < alpha(1e-9) < 1e-8

    def test_domain(self):
        for bad in (0, 1, -0.5, 1.5):
            with pytest.raises(ValueError):
                alpha(bad)


class TestWeightUpdate:
    def test_example_uniform(self):
        out = weight_update(wv("1/3", "1/3", "1/3"), eta(-1, 1, 1), Fraction(1, 3))
        assert out.components == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))

    def test_example_second_step(self):
        out = weight_update(wv("1/2", "1/4", "1/4"), eta(1, -1, 1), Fraction(1, 2))
        assert out.components == (Fraction(1, 3), Fraction(1, 2), Fraction(1, 6))

    def test_matches_exponential_oracle(self):
        w = wv("1/3", "1/3", "1/3")
        d = eta(-1, 1, 1)
        rational = weight_update(w, d, Fraction(1, 3))
        oracle = exponential_update(w, d, 0.5 * math.log(2))
        for a, b in zip(rational, oracle):
            assert abs(float(a) - b) < 1e-14

    def test_domain_errors(self):
        w = wv("1/2", "1/4", "1/4")
        with pytest.raises(PerfectClassification):
            weight_update(w, eta(1, 1, 1), 1)
        with pytest.raises(ValueError):
            weight_update(w, eta(-1, 1, 1), 0)
        with pytest.raises(ValueError):
            weight_update(w, eta(-1, 1, 1), Fraction(-1, 2))

    def test_exact_self_normalization_fuzz(self):
        # the raw rational update sums to 1 with no renormalization when r is
        # the true edge
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(2, 8)
            raw = [rng.randint(1, 30) for _ in range(n)]
            total = sum(raw)
            w = WeightVector(tuple(Fraction(v, total) for v in raw))
            signs = [rng.choice((1, -1)) for _ in range(n)]
            signs[rng.randrange(n)] = 1
            d = MistakeDichotomy(tuple(signs))
            r = edge_dot(w, d)
            if not 0 < r < 1:
                continue
            updated = [c / (1 + e * r) for c, e in zip(w, d)]
            assert sum(updated) == 1

    def test_exact_edge_must_be_the_edge_of_eta(self):
        w = wv("1/3", "1/3", "1/3")
        with pytest.raises(ValueError, match="not the edge 1/3 of eta"):
            weight_update(w, eta(-1, 1, 1), Fraction(1, 2))
        with pytest.raises(ValueError, match="not the edge 1/3 of eta"):
            weight_update(w, eta(-1, 1, 1), Fraction(1, 3) + Fraction(1, 10**30))
        # every point in one class: the edge is 1, and no r in (0, 1) is it
        with pytest.raises(ValueError, match="one class"):
            weight_update(w, eta(1, 1, 1), Fraction(1, 2))
        # a float edge makes a float update, checked by nothing
        assert len(weight_update(w, eta(-1, 1, 1), 0.5)) == 3


class TestLatticeStep:
    def test_fuzz_matches_fractions(self):
        # the edge in lowest terms and the canonical point of the rational
        # update, from random points, signs with both classes, and halving
        # both taken and not
        rng = random.Random(15)
        halved = 0
        for _ in range(500):
            n = rng.randint(2, 7)
            raw = [Fraction(rng.randint(1, 90), rng.choice((1, 2, 4, 6, 9))) for _ in range(n)]
            w = WeightVector(tuple(c / sum(raw) for c in raw))
            signs = [rng.choice((1, -1)) for _ in range(n)]
            signs[0], signs[-1] = 1, -1
            r = edge_dot(w, eta(*signs))
            start = _lattice_point(w).tolist()
            s, p, q, point = _lattice_step(start, signs)
            # the edge's numerator over D as the selection sums it, and in lowest terms
            assert s == sum(e * a for e, a in zip(signs, start[1:]))
            assert (p, q) == (r.numerator, r.denominator)
            d, *a = point
            assert math.gcd(*point) == 1
            assert [Fraction(x, d) for x in a] == [c / (1 + e * r) for c, e in zip(w, signs)]
            mass = sum(c for c, e in zip(w, signs) if e > 0)
            halved += (mass.numerator * (1 - mass).numerator) % 2 == 1
        assert halved > 50

    def test_one_class_is_refused(self):
        for signs in ((1, 1, 1), (-1, -1, -1)):
            with pytest.raises(ValueError, match="one class"):
                _lattice_step([3, 1, 1, 1], signs)


class TestBoostChecksChoose:
    """The loop's exact step derives the edge from the weights, so a choose
    whose edge numerator is not that edge's is an error, not a trace."""

    @pytest.mark.parametrize("wrong_at", [0, 5])
    def test_wrong_edge_numerator_raises(self, pool3, wrong_at):
        select = engine._chooser(pool3, Optimal(), True)

        def choose(w, t):
            row, eta, s = select(w, t)
            return row, eta, s + (t == wrong_at)

        with pytest.raises(ValueError, match="choose gave the edge"):
            boost(choose, uniform_weights(3, "exact"), 10)

    def test_one_class_signs_raise(self, pool3):
        # an edge in (0, 1) for signs whose true edge is 1
        def choose(w, t):
            return 0, np.array([1, 1, 1], dtype=object), 1

        with pytest.raises(ValueError, match="one class"):
            boost(choose, uniform_weights(3, "exact"), 3)


class TestExponentialUpdate:
    def test_identity_at_zero(self):
        w = WeightVector((0.5, 0.25, 0.25))
        out = exponential_update(w, eta(-1, 1, 1), 0.0)
        assert out.components == w.components

    def test_uniform_symmetry(self):
        w = WeightVector((0.25,) * 4)
        out = exponential_update(w, eta(-1, 1, -1, 1), 0.7)
        assert out[0] == out[2] and out[1] == out[3]

    def test_oracle_equivalence_fuzz(self):
        rng = random.Random(8)
        for _ in range(200):
            n = rng.randint(2, 10)
            raw = [rng.random() + 1e-3 for _ in range(n)]
            total = sum(raw)
            w = WeightVector(tuple(v / total for v in raw))
            signs = [rng.choice((1, -1)) for _ in range(n)]
            signs[rng.randrange(n)] = 1
            d = MistakeDichotomy(tuple(signs))
            r = edge_dot(w, d)
            if not 0 < r < 1:
                continue
            a = weight_update(w, d, r)
            b = exponential_update(w, d, alpha(r))
            assert all(abs(x - y) <= 1e-12 for x, y in zip(a, b))


class TestRun:
    def test_exact_fibonacci_edges(self, pool3):
        trace = run(pool3, Optimal(), 6, "exact")
        assert trace.edges() == (
            Fraction(1, 3),
            Fraction(1, 2),
            Fraction(2, 3),
            Fraction(3, 5),
            Fraction(5, 8),
            Fraction(8, 13),
        )
        assert [s.row for s in trace.steps] == [0, 1, 2, 0, 1, 2]
        assert trace.steps[2].weights_after.components == (
            Fraction(1, 5),
            Fraction(3, 10),
            Fraction(1, 2),
        )

    def test_fibonacci_ratio_closed_form(self, golden_exact):
        for t in range(2, 31):
            assert golden_exact.steps[t].edge == Fraction(fib(t + 1), fib(t + 2))

    def test_float_golden_limit(self, golden_float):
        assert abs(golden_float.steps[200].edge - 0.6180339887498949) < 1e-9

    def test_two_cycle_tail(self, twocycle_float):
        tail = twocycle_float.edges()[-4:]
        hi, lo = 0.7071067811865476, 0.41421356237309515
        expected = (hi, lo) if abs(tail[0] - hi) < 1e-6 else (lo, hi)
        for i, r in enumerate(tail):
            assert abs(r - expected[i % 2]) < 1e-9

    def test_determinism(self, pool3):
        a = run(pool3, FirstAbove(0.4), 120, "float")
        b = run(pool3, FirstAbove(0.4), 120, "float")
        assert a == b

    @pytest.mark.parametrize("t_max", [1, 2, 5])
    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_schedule_checked_before_step_0(self, pool3, monkeypatch, mode, t_max):
        # every scheduled row is checked once, before the loop selects
        calls = []
        monkeypatch.setattr(engine, "_chooser", lambda *args: calls.append(args))
        with pytest.raises(IndexError, match="^scheduled row 7 outside pool of 3 rows$"):
            run(pool3, FixedSequence((0, 7)), t_max, mode)
        assert calls == []

    @pytest.mark.parametrize("row", [1.5, "0", True, np.int64(1)])
    def test_schedule_rows_must_be_ints(self, row):
        # the rule the trace reader applies: a row that is not an int, bools
        # included, is rejected when the schedule is built
        with pytest.raises(TypeError, match=f"^{re.escape(f'scheduled row {row!r} is not an integer')}$"):
            FixedSequence((row, 2))

    def test_int_schedule_runs(self, pool3):
        trace = run(pool3, FixedSequence((1, 2, 0)), 6, "exact")
        assert [s.row for s in trace.steps] == [1, 2, 0, 1, 2, 0]

    def test_halts_recorded(self):
        perfect = HypothesisPool.from_signs([(1, 1, 1)])
        trace = run(perfect, Optimal(), 5, "exact")
        assert trace.halt == "perfect_classification" and len(trace) == 0

        hopeless = HypothesisPool.from_signs([(1, -1, -1)])
        trace = run(hopeless, Optimal(), 5, "exact")
        assert trace.halt == "weak_learning_failure" and len(trace) == 0

    def test_fixed_sequence_nonpositive_edge_halts(self, pool3):
        # row 0 twice: the second visit has edge 0
        trace = run(pool3, FixedSequence((0, 0)), 5, "exact")
        assert trace.halt == "weak_learning_failure"
        assert len(trace) == 1

    def test_float_edge_of_rounding_residue_halts(self, pool3):
        # row 0 twice: the exact edge of the second visit is 0, the float
        # edge a residue of about 5.6e-17, within the screen's bound
        trace = run(pool3, FixedSequence((0, 0)), 5, "float")
        assert (trace.halt, len(trace)) == ("weak_learning_failure", 1)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_float_run_takes_the_exact_halt(self, mode, tmp_path, capsys):
        # after step 0 no row has a positive exact edge; a float run must not
        # keep choosing row 0 on its rounding residue
        from boostcycles.cli import main
        from boostcycles.traceio import load_trace

        pool, out = tmp_path / "p.pool", tmp_path / "t.json"
        pool.write_text("++-\n-+-\n--+\n")
        argv = ["run", "--pool", str(pool), "--rule", "optimal", "--iters", "200", "--mode", mode]
        assert main([*argv, "--out", str(out)]) == 0
        trace = load_trace(str(out))
        assert (trace.halt, len(trace)) == ("weak_learning_failure", 1)
        assert trace.rows.tolist() == [0]

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_mistake_free_row_halts_before_its_step(self, mode):
        # the float edge of row 0 is the left-to-right sum of ten 0.1s,
        # 0.9999999999999999: a float run must not step on it
        pool = HypothesisPool.from_signs([(1,) * 10, (1, -1) * 5])
        trace = run(pool, Optimal(), 5, mode)
        assert (trace.halt, len(trace)) == ("perfect_classification", 0)

    def test_iris_sample_halts_on_its_perfect_tree(self, tmp_path, capsys):
        # the tree learner's float edge of its perfect tree rounds below 1:
        # a step on it once left weights of 0 that `analyze` saw as a
        # broken subsum identity
        from boostcycles.cli import main
        from boostcycles.traceio import load_trace

        iris = str(resources.files("boostcycles") / "data" / "iris.csv")
        out = str(tmp_path / "t.json")
        argv = ["run", "--dataset", iris, "--label", "species", "--positive", "virginica",
                "--sample", "80", "--seed", "3", "--iters", "300", "--out", out]
        assert main(argv) == 0
        trace = load_trace(out)
        assert (trace.halt, len(trace)) == ("perfect_classification", 5)
        capsys.readouterr()
        assert main(["analyze", out]) == 0
        assert "check subsums: pass" in capsys.readouterr().out

    def test_float_runs_take_no_mistake_free_step(self):
        # seeded random pools: no float step's signs are all +1, as no
        # exact step's can be
        from conftest import random_pool

        rng = random.Random(5)
        runs = 0
        for _ in range(3000):
            pool = random_pool(rng, max_points=8, max_rows=10)
            if pool is None:
                continue
            rule = Optimal() if rng.random() < 0.7 else FirstAbove(Fraction(rng.randint(1, 9), 10))
            trace = run(pool, rule, 20, "float")
            assert not (trace.signs > 0).all(axis=1).any(), (pool, rule)
            runs += 1
        assert runs > 2900

    def test_t_max_validated(self, pool3):
        with pytest.raises(ValueError):
            run(pool3, Optimal(), 0, "exact")

    def test_weights_before(self, pool3):
        trace = run(pool3, Optimal(), 4, "exact")
        assert trace.weights_before(0) == trace.initial_weights
        assert trace.weights_before(2) == trace.steps[1].weights_after


class TestTraceBoundary:
    """A trace keeps no signs column: it reads each step's signs from the
    pool, at the step's row. Its constructor checks what that relies on:
    every row lies in the pool, and the weights have one component per
    point."""

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_row_outside_pool_raises(self, pool3, bad):
        trace = run(pool3, Optimal(), 5, "float")
        rows = trace.rows.copy()
        rows[3] = bad
        with pytest.raises(IndexError, match=rf"^step 3: row {bad} outside pool of 3 rows$"):
            BoostTrace("float", pool3, Optimal(), trace.initial_weights, rows, trace.states)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_weights_wider_than_pool_raise(self, pool3, mode):
        width = 7 if mode == "exact" else 5  # the states of 4 weights
        states = np.empty((0, width), dtype=object if mode == "exact" else np.float64)
        with pytest.raises(DimensionMismatch, match="initial weights have 4 components, pool rows 3"):
            BoostTrace(mode, pool3, Optimal(), uniform_weights(4, mode), np.empty(0, np.int64), states)

    def test_signs_are_the_rows_of_the_pool(self, pool3):
        iris = load_csv(str(resources.files("boostcycles") / "data" / "iris.csv"), "species", "versicolor")
        traces = [run(pool3, Optimal(), 50, mode) for mode in ("exact", "float")]
        traces.append(run_on_dataset(iris, 3, 4, 300, "float"))
        text = dumps_trace(run(pool3, Optimal(), 200, "float"))
        assert json.loads(text)["schema"] == "boostcycles-trace-v3"
        traces.append(loads_trace(text))
        for trace in traces:
            assert trace.signs.dtype == np.int8 and not trace.signs.flags.writeable
            assert np.array_equal(trace.signs, trace.pool.signs[trace.rows])
