"""Differential tests of the columnar trace: the shared boosting loop
(`engine.boost`), the writer that reads the columns and the batched replay
in `load_trace`.

The per-step loops they replaced are kept below as the reference: the
object-per-step `engine.run`, `learners.run_on_dataset` and
`traceio.trace_from_dict`, with the `select`, `weight_update` and `edge_dot`
they called; the dataset loop fits the tree learner as it was before
presorting (`test_learners.reference_train_tree`). On every corpus the columnar code must give equal traces (the
same rows, dichotomies, edge and weight bits, halt and pool), and a
tampered file must fail with the reference's exception and message.
"""

from __future__ import annotations

import json
import operator
from fractions import Fraction
from functools import reduce
from importlib import resources

import numpy as np
import pytest

import boostcycles.engine as engine
import boostcycles.learners as learners
import boostcycles.simplex as simplex
from boostcycles import (
    BoostTrace,
    FirstAbove,
    FixedSequence,
    HypothesisPool,
    MistakeDichotomy,
    Optimal,
    WeightVector,
    alpha,
    dichotomy_of,
    load_csv,
    run,
    run_on_dataset,
    uniform_weights,
)
from boostcycles.cli import main
from boostcycles.engine import BoostStep, PerfectClassification, WeakLearningFailure
from boostcycles.simplex import DimensionMismatch
from boostcycles.traceio import (
    CHECKPOINT_EVERY,
    SCREEN_MARGIN,
    TraceFormatError,
    _decode_rule,
    _parse_ratio,
    _replay_drift,
    dumps_trace,
    load_trace,
    loads_trace,
)

from test_engine import wide_pool
from test_learners import reference_train_tree
from test_repeat_traces import brute_first_repeat
from test_traceio import v2_dumps_trace

DATA = resources.files("boostcycles") / "data"


# --- reference: the object-per-step loops, as they were before the columns ---


def least_edge(mode, n):
    """The smallest edge a step may take: a float edge within the screen's
    rounding bound of 0 is a weak-learning failure, as `engine.boost` has it."""
    return SCREEN_MARGIN * n if mode == "float" else 0


def left_to_right_sum(terms):
    """The terms added left to right, one rounding per float addition, as
    the kernels add them: Python's float `sum` is compensated from 3.12."""
    return reduce(operator.add, terms, 0)


def reference_edge_dot(w, eta):
    return left_to_right_sum(e * c for e, c in zip(eta, w))


def reference_select(w, pool, rule, t=0):
    if isinstance(rule, FixedSequence):
        row = rule.rows[t % len(rule.rows)]
        if not 0 <= row < len(pool):
            raise IndexError(f"scheduled row {row} outside pool of {len(pool)} rows")
        return row, pool[row], reference_edge_dot(w, pool[row])
    rows = range(len(pool))
    approx = None
    weights = np.array(w.components)
    if weights.dtype == np.float64:
        approx = pool.matrix @ weights
        margin = SCREEN_MARGIN * len(w)
    if isinstance(rule, FirstAbove):
        scan = rows if approx is None else (approx >= rule.theta - margin).nonzero()[0].tolist()
        edges = ((reference_edge_dot(w, pool[i]), i) for i in scan)
        qualifying = [(r, i) for r, i in edges if r >= rule.theta]
        if qualifying:
            r, row = min(qualifying)
            return row, pool[row], r
    if approx is not None:
        top = approx[approx.argmax()]
        rows = (approx >= top - margin).nonzero()[0].tolist()
    edge, neg_row = max((reference_edge_dot(w, pool[i]), -i) for i in rows)
    if edge <= 0:
        raise WeakLearningFailure("all available edges are <= 0")
    return -neg_row, pool[-neg_row], edge


def reference_weight_update(w, eta, r):
    if r >= 1:
        raise PerfectClassification("edge reached 1; rational update undefined")
    if r <= 0:
        raise ValueError(f"invalid edge {r!r}: must be positive")
    right, wrong = 1 + r, 1 - r
    new = tuple(c / (right if e == 1 else wrong) for c, e in zip(w, eta))
    if not simplex.is_exact(new):
        total = left_to_right_sum(new)
        new = tuple(c / total for c in new)
    return WeightVector(new)


def from_steps(mode, pool, rule, initial, steps, halt, lattice_states):
    """A columnar trace holding the reference's BoostSteps."""
    states = np.empty((len(steps), len(initial) + 1), dtype=object if mode == "exact" else np.float64)
    for t, s in enumerate(steps):
        states[t] = (s.edge, *s.weights_after)
    if mode == "exact":
        states = lattice_states(states)
    rows = np.array([s.row for s in steps], dtype=np.int64)
    return BoostTrace(mode, pool, rule, initial, rows, states, halt)


def reference_run(pool, rule, t_max, mode, lattice_states):
    w = initial = uniform_weights(pool.n_points, mode)
    steps, halt = [], None
    for t in range(t_max):
        try:
            row, eta, r = reference_select(w, pool, rule, t)
        except WeakLearningFailure:
            halt = "weak_learning_failure"
            break
        if r <= least_edge(mode, pool.n_points):
            halt = "weak_learning_failure"
            break
        if r >= 1:
            halt = "perfect_classification"
            break
        w = reference_weight_update(w, eta, r)
        steps.append(BoostStep(t, row, eta, r, alpha(r), w))
    return steps, from_steps(mode, pool, rule, initial, steps, halt, lattice_states)


def reference_run_on_dataset(ds, max_depth, max_leaves, t_max, mode, lattice_states):
    w = initial = uniform_weights(ds.n, mode)
    row_of, pool_rows, steps, halt = {}, [], [], None
    for t in range(t_max):
        tree = reference_train_tree(ds, w, max_depth, max_leaves)
        eta = dichotomy_of(tree, ds)
        if mode == "exact":
            r = sum(e * c for e, c in zip(eta, w))
        else:
            r = float(np.dot(np.asarray(w.components), np.asarray(eta.entries, dtype=np.float64)))
        if r <= least_edge(mode, ds.n):
            halt = "weak_learning_failure"
            break
        if r >= 1:
            halt = "perfect_classification"
            break
        if eta.entries not in row_of:
            row_of[eta.entries] = len(pool_rows)
            pool_rows.append(eta)
        w = reference_weight_update(w, eta, r)
        steps.append(BoostStep(t, row_of[eta.entries], eta, r, alpha(r), w))
    if not pool_rows:
        pool_rows = [eta]
    pool = HypothesisPool(tuple(pool_rows), origin="learned")
    return steps, from_steps(mode, pool, Optimal(), initial, steps, halt, lattice_states)


def reference_decode_scalar(value, mode):
    if mode == "exact":
        return Fraction(*_parse_ratio(value)) if isinstance(value, str) else Fraction(value)
    return float(value)


def reference_trace_from_dict(doc, lattice_states):
    if doc.get("schema") != "boostcycles-trace-v2":
        raise TraceFormatError(f"unsupported schema {doc.get('schema')!r}")
    mode = doc["mode"]
    if mode not in ("exact", "float"):
        raise TraceFormatError(f"unknown mode {mode!r}")
    exact = mode == "exact"
    pool = HypothesisPool(
        tuple(MistakeDichotomy.from_string(r) for r in doc["pool"]["rows"]),
        origin=doc["pool"].get("origin", "synthetic"),
    )
    rule = _decode_rule(doc["rule"], pool)
    n = pool.n_points
    initial = WeightVector(tuple(reference_decode_scalar(c, mode) for c in doc["initial_weights"]))
    if len(initial) != n:
        raise TraceFormatError(f"initial_weights has {len(initial)} components, pool rows {n}")
    records = doc["steps"]
    if records and "weights" not in records[-1]:
        raise TraceFormatError(f"step {len(records) - 1}: the last step has no weights checkpoint")
    w = initial
    since = 0
    steps = []
    for t, rec in enumerate(records):
        row = int(rec["row"])
        if not 0 <= row < len(pool):
            raise TraceFormatError(f"step {t}: row {row} outside pool of {len(pool)} rows")
        eta = pool[row]
        edge = reference_decode_scalar(rec["r_exact"], mode) if exact else float(rec["r"])
        try:
            a = alpha(edge)
        except ValueError:
            raise TraceFormatError(f"step {t}: edge {edge} outside (0, 1)") from None
        if not exact:
            replayed_edge = reference_edge_dot(w, eta)
            if abs(replayed_edge - edge) > SCREEN_MARGIN * n + _replay_drift(since, n):
                raise TraceFormatError(
                    f"step {t}: edge {edge!r} is not the edge of row {row} on the replayed "
                    f"weights ({replayed_edge!r})"
                )
        try:
            w = reference_weight_update(w, eta, edge)
        except ValueError:
            raise TraceFormatError(
                f"step {t}: edge {edge} is not the edge of row {row} on the replayed weights"
            ) from None
        since += 1
        if "weights" in rec:
            stored = WeightVector(tuple(reference_decode_scalar(c, mode) for c in rec["weights"]))
            if len(stored) != n:
                raise TraceFormatError(f"step {t}: weights have {len(stored)} components, pool rows {n}")
            if exact:
                matches = w.components == stored.components
            else:
                tol = _replay_drift(since, n)
                matches = all(abs(x - y) <= tol * y for x, y in zip(w, stored))
            if not matches:
                raise TraceFormatError(f"step {t}: stored weights do not match the replayed update")
            w, since = stored, 0
        steps.append(BoostStep(t=t, row=row, eta=eta, edge=edge, alpha=a, weights_after=w))
    return from_steps(mode, pool, rule, initial, steps, doc.get("halt"), lattice_states)


def reference_loads(text, lattice_states):
    """reference_trace_from_dict with loads_trace's mapping of exceptions."""
    try:
        return reference_trace_from_dict(json.loads(text), lattice_states)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        if isinstance(exc, TraceFormatError):
            raise
        raise TraceFormatError(f"malformed trace: {exc}") from exc


def t_max_of(trace):
    """The iteration budget that reproduces a trace: its length, one more
    when it halted."""
    return len(trace) + (trace.halt is not None)


def assert_same_run(trace, lattice_states):
    steps, expected = reference_run(trace.pool, trace.rule, t_max_of(trace), trace.mode, lattice_states)
    assert trace == expected
    text = dumps_trace(trace)
    assert dumps_trace(expected) == text
    assert loads_trace(text) == reference_loads(v2_dumps_trace(trace), lattice_states) == expected
    return steps


# --- the corpora ---


POOL3 = HypothesisPool.from_signs([(-1, 1, 1), (1, -1, 1), (1, 1, -1)])


@pytest.fixture(scope="module")
def iris():
    return load_csv(str(DATA / "iris.csv"), "species", "versicolor")


@pytest.fixture(scope="module")
def synthetic3():
    return load_csv(str(DATA / "synthetic3.csv"), "label", "a")


@pytest.fixture()
def selections(monkeypatch):
    """Counts of the loop's pool selections and tree fits (`learners._grow`,
    which `run_on_dataset` calls once per step it computes)."""
    counts = {"select": 0, "fits": 0}
    chooser, fit = engine._chooser, learners._grow

    def counted_chooser(*args):
        choose = chooser(*args)

        def counted_select(*args):
            counts["select"] += 1
            return choose(*args)

        return counted_select

    def counted_fit(*args):
        counts["fits"] += 1
        return fit(*args)

    monkeypatch.setattr(engine, "_chooser", counted_chooser)
    monkeypatch.setattr(learners, "_grow", counted_fit)
    return counts


# run lengths at the loop's key array boundaries: the array doubles, and a
# float run looks for a repeat in it, when t + 1 is a power of two
GROWTH_LENGTHS = (1, 2, 3, 4, 5, 63, 64, 65, 66)


class TestLoopMatchesReference:
    def test_fuzz_exact_traces(self, fuzz_exact_traces, lattice_states):
        for trace in fuzz_exact_traces:
            assert_same_run(trace, lattice_states)

    def test_fuzz_float_cycles(self, fuzz_float_cycles, lattice_states):
        fallbacks = 0
        for trace, _ in fuzz_float_cycles:
            steps = assert_same_run(trace, lattice_states)
            if isinstance(trace.rule, FirstAbove):
                fallbacks += sum(s.edge < trace.rule.theta for s in steps)
        assert fallbacks > 0  # the first-above fallback to optimal ran

    @pytest.mark.parametrize("mode, t_max", [("exact", 300), ("float", 2000)])
    @pytest.mark.parametrize("rule", [Optimal(), FirstAbove(Fraction(2, 5))], ids=["golden", "sqrt2"])
    def test_golden_and_sqrt2(self, mode, t_max, rule, selections, lattice_states):
        if mode == "float":
            rule = FirstAbove(0.4) if isinstance(rule, FirstAbove) else rule
        trace = run(POOL3, rule, t_max, mode)
        # a float run tiles its cycle; exact states never repeat
        assert (selections["select"] < 100) == (mode == "float")
        assert_same_run(trace, lattice_states)
        for steps in GROWTH_LENGTHS:
            assert_same_run(run(POOL3, rule, steps, mode), lattice_states)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("rows", [(0, 1, 2), (2, 2, 0, 1), (1,), (0, 1, 2, 0, 1, 2)])
    def test_fixed_schedules(self, mode, rows, lattice_states):
        pool = HypothesisPool.from_signs([(-1, -1, 1, 1, 1), (-1, 1, 1, 1, 1), (1, 1, -1, 1, 1)])
        for p in (POOL3, pool):
            assert_same_run(run(p, FixedSequence(rows), 60 if mode == "exact" else 400, mode), lattice_states)
        for steps in GROWTH_LENGTHS:
            assert_same_run(run(POOL3, FixedSequence(rows), steps, mode), lattice_states)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_halts(self, mode, lattice_states):
        # no positive edge at the start; a schedule whose edge turns
        # non-positive later; an all-correct row's edge of 1
        cases = [
            (HypothesisPool.from_signs([(1, -1)]), Optimal(), "weak_learning_failure", 0),
            (HypothesisPool.from_signs([(1, 1, -1), (-1, -1, 1)]), FixedSequence((0, 0, 0, 1)), None, None),
            (HypothesisPool.from_signs([(1, -1, 1), (1, 1, 1)]), FixedSequence((0, 1)), "perfect_classification", 1),
        ]
        for pool, rule, halt, steps in cases:
            trace = run(pool, rule, 10, mode)
            if halt is not None:
                assert (trace.halt, len(trace)) == (halt, steps)
            assert_same_run(trace, lattice_states)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_wide_pools(self, seed, lattice_states):
        # 64 points: numpy's pairwise sum would differ from the left-to-right
        # reference sum here, where it does not on fewer than 8 terms
        pool = wide_pool(seed)
        for rule in (Optimal(), FirstAbove(0.05), FixedSequence((0, 3, 5))):
            assert_same_run(run(pool, rule, 300, "float"), lattice_states)
        assert_same_run(run(pool, Optimal(), 4, "exact"), lattice_states)


class TestDatasetLoopMatchesReference:
    def test_iris(self, iris, lattice_states):
        trace = run_on_dataset(iris, 3, 4, 1000, "float")
        steps, expected = reference_run_on_dataset(iris, 3, 4, 1000, "float", lattice_states)
        assert trace == expected
        text = dumps_trace(trace)
        assert dumps_trace(expected) == text
        assert loads_trace(text) == reference_loads(text, lattice_states) == trace
        assert tuple(trace.steps) == tuple(steps)

    def test_synthetic3(self, synthetic3, lattice_states):
        for depth, leaves, t_max in ((1, 2, 400), (3, 4, 10)):
            trace = run_on_dataset(synthetic3, depth, leaves, t_max, "float")
            assert trace == reference_run_on_dataset(synthetic3, depth, leaves, t_max, "float", lattice_states)[1]

    def test_exact_and_halting_runs(self, iris, synthetic3, lattice_states):
        expected = reference_run_on_dataset(synthetic3, 1, 2, 12, "exact", lattice_states)[1]
        assert run_on_dataset(synthetic3, 1, 2, 12, "exact") == expected
        setosa = load_csv(str(DATA / "iris.csv"), "species", "setosa")
        trace = run_on_dataset(setosa, 3, 4, 5, "float")
        assert trace.halt == "perfect_classification" and len(trace) == 0
        assert trace == reference_run_on_dataset(setosa, 3, 4, 5, "float", lattice_states)[1]


# --- the cycle fast-forward: tiled traces equal the per-step reference ---


def first_bit_repeat(trace):
    """(mu, lambda): row mu + lambda is the first state row equal in every
    bit to an earlier one, row mu. None when no row repeats."""
    seen = {}
    for t, state in enumerate(trace.states):
        s = seen.setdefault(state.tobytes(), t)
        if s != t:
            return s, t - s
    return None


class TestFastForward:
    def test_iris_past_the_onset(self, iris, selections, lattice_states):
        # the key before step 1815 is the first to repeat, that of step
        # 1812: onset 1812, period 3
        trace = run_on_dataset(iris, 3, 4, 2500, "float")
        assert 0 < selections["fits"] < 2 * (1812 + 3)
        _, expected = reference_run_on_dataset(iris, 3, 4, 2500, "float", lattice_states)
        assert trace == expected
        text = dumps_trace(trace)
        assert dumps_trace(expected) == text
        assert loads_trace(text) == trace

    @pytest.mark.parametrize("rows", [(0, 1, 2), (1,)])
    def test_fixed_schedules_tile(self, rows, selections, lattice_states):
        trace = run(POOL3, FixedSequence(rows), 2000, "float")
        assert selections["select"] < 100
        assert_same_run(trace, lattice_states)

    def test_fuzz_float_cycles_tile(self, fuzz_float_cycles, selections):
        # TestLoopMatchesReference.test_fuzz_float_cycles compares these
        # traces with the reference loop
        tiled = 0
        for trace, _ in fuzz_float_cycles:
            selections["select"] = 0
            assert run(trace.pool, trace.rule, t_max_of(trace), "float") == trace
            tiled += selections["select"] < len(trace)
        assert tiled >= 5

    def test_key_holds_t_mod_the_schedule(self, lattice_states):
        # rows follow t mod 6 while the dichotomies, and so the weights,
        # follow t mod 3: the key must hold t mod 6, and the weights alone
        # would tile rows 3, 4, 5 where rows 0, 1, 2 are due
        schedule = FixedSequence((0, 1, 2))
        select = engine._chooser(POOL3, schedule, False)
        calls = []

        def choose(w, t):
            calls.append(t)
            _, eta, edge = select(w, t)
            return t % 6, eta, edge

        _, expected = reference_run(POOL3, schedule, 400, "float", lattice_states)
        rows, states, halt = engine.boost(choose, uniform_weights(3, "float"), 400, 6)
        assert len(calls) < 400 and halt is None
        assert rows.tolist() == [t % 6 for t in range(400)]
        assert states.tobytes() == expected.states.tobytes()
        mu, period = first_bit_repeat(expected)
        assert period == 3 and mu + period < len(calls)

        calls.clear()
        rows, *_ = engine.boost(choose, uniform_weights(3, "float"), 400)
        assert rows.tolist() != [t % 6 for t in range(400)]

    def test_subnormal_weight(self, selections, lattice_states):
        # a point that every row classifies right: its weight shrinks to the
        # least subnormal double and stays there, and only from then on can
        # the weights repeat
        pool = HypothesisPool.from_signs([(-1, 1, 1, 1), (1, -1, 1, 1), (1, 1, -1, 1)])
        trace = run(pool, Optimal(), 5000, "float")
        assert selections["select"] < 5000
        assert trace.states[-1, -1] == np.nextafter(0.0, 1.0)
        assert_same_run(trace, lattice_states)

    @pytest.mark.parametrize("edge", [1 - 2**-52, float("nan")], ids=["underflow", "nan"])
    def test_last_weights_validated_after_a_tile(self, edge):
        # an edge next to 1 drives the first weight to 0.0 in a few steps,
        # and a NaN edge turns every weight NaN; either state repeats at
        # once, and the tiled trace's last weights still fail validation
        calls = []
        signs = np.array([1.0, -1.0])

        def choose(w, t):
            calls.append(t)
            return 0, signs, edge

        with pytest.raises(ValueError, match="weights must be strictly positive"):
            engine.boost(choose, uniform_weights(2, "float"), 1000)
        assert len(calls) < 1000

    def test_selections_bound(self, iris, fuzz_float_cycles, selections):
        # the loop finds a repeat with onset mu and period lambda when its
        # key array first fills past step mu + lambda, so after fewer than
        # 2 (mu + lambda) selections
        trace = run(POOL3, Optimal(), 100_000, "float")
        mu, period = brute_first_repeat(trace)
        assert (mu, period) == (39, 3)
        assert selections["select"] < 2 * (mu + period)
        repeating = [(trace, brute_first_repeat(trace)) for trace, _ in fuzz_float_cycles if trace.halt is None]
        repeating = [(trace, repeat) for trace, repeat in repeating if repeat is not None]
        assert len(repeating) >= 15
        for trace, repeat in repeating:
            selections["select"] = 0
            assert run(trace.pool, trace.rule, len(trace), "float") == trace
            assert selections["select"] < 2 * sum(repeat)
        # a repeat that ends on the last row of a full key array: the golden
        # run from its weights after step 10 repeats with onset 28, period 3
        initial = WeightVector(tuple(run(POOL3, Optimal(), 11, "float").states[-1, 1:].tolist()))

        choose = engine._chooser(POOL3, Optimal(), False)
        selections["select"] = 0
        trace = BoostTrace("float", POOL3, Optimal(), initial, *engine.boost(choose, initial, 1000))
        assert brute_first_repeat(trace) == (28, 3) and selections["select"] == 31
        trace = run_on_dataset(iris, 3, 4, 2000, "float")
        assert brute_first_repeat(trace) == (1812, 3)
        assert selections["fits"] < 2 * (1812 + 3)


class TestStepsView:
    def test_steps_equal_the_reference_steps(self, lattice_states):
        for mode, theta in (("exact", Fraction(2, 5)), ("float", 0.4)):
            steps, _ = reference_run(POOL3, FirstAbove(theta), 150, mode, lattice_states)
            trace = run(POOL3, FirstAbove(theta), 150, mode)
            assert tuple(trace.steps) == tuple(steps)
            assert trace.steps[-1] == steps[-1] and trace.steps[3:7] == tuple(steps[3:7])
            assert [type(s.edge) for s in trace.steps] == [type(s.edge) for s in steps]

    def test_columns_are_read_only(self):
        trace = run(POOL3, Optimal(), 5, "float")
        assert trace.rows.dtype == np.int64 and trace.signs.dtype == np.int8
        assert trace.states.shape == (5, 4) and trace.state_matrix is trace.states
        for column in (trace.rows, trace.signs, trace.states):
            assert not column.flags.writeable

    def test_column_shapes_checked(self):
        trace = run(POOL3, Optimal(), 5, "float")
        with pytest.raises(ValueError, match="states has shape"):
            BoostTrace("float", POOL3, Optimal(), trace.initial_weights, trace.rows, trace.states[:, :3])

    def test_exact_states_take_the_integer_form(self, lattice_states):
        # an exact trace holds its states as integer rows [p, q, D, a_1..a_n]:
        # the same states as (T, n+1) Fractions are the wrong shape
        trace = run(POOL3, Optimal(), 5, "exact")
        fractions = np.array([trace.state(t) for t in range(len(trace))], dtype=object)
        columns = ("exact", POOL3, Optimal(), trace.initial_weights, trace.rows)
        with pytest.raises(DimensionMismatch, match=r"states has shape \(5, 4\), expected \(5, 6\)"):
            BoostTrace(*columns, fractions)
        assert BoostTrace(*columns, lattice_states(fractions)) == trace


# --- no per-step objects on the CLI paths ---


@pytest.fixture()
def constructions(monkeypatch):
    """Counts of WeightVector validations and BoostStep constructions."""
    counts = {"WeightVector": 0, "BoostStep": 0}
    check, init = simplex.WeightVector.__post_init__, engine.BoostStep.__init__

    def counted_check(self):
        counts["WeightVector"] += 1
        check(self)

    def counted_init(self, *args, **kwargs):
        counts["BoostStep"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(simplex.WeightVector, "__post_init__", counted_check)
    monkeypatch.setattr(engine.BoostStep, "__init__", counted_init)
    return counts


class TestNoPerStepObjects:
    @pytest.mark.parametrize("mode, iters", [("float", 5000), ("exact", 2000)])
    def test_run_and_analyze(self, constructions, tmp_path, mode, iters):
        path = str(tmp_path / "t.json")
        pool = str(DATA / "three_dichotomies.pool")
        assert main(["run", "--pool", pool, "--iters", str(iters), "--mode", mode, "--out", path]) == 0
        assert main(["analyze", path]) == 0
        assert constructions["BoostStep"] == 0
        # the initial and last weights of the run; the load's initial weights
        # and stored checkpoints; the detected cycle's 3 weight vectors
        assert constructions["WeightVector"] <= iters // CHECKPOINT_EVERY + 8

    def test_replicate(self, constructions, tmp_path):
        argv = ["replicate", "--dataset", str(DATA / "iris.csv"), "--label", "species",
                "--positive", "versicolor", "--depth", "3", "--leaves", "4", "--iters", "1000",
                "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        assert constructions["BoostStep"] == 0
        assert constructions["WeightVector"] <= 1000 // CHECKPOINT_EVERY + 8


# --- tampered files: the reference's exception and message ---


def tampered(text, edit):
    doc = json.loads(text)
    edit(doc)
    return json.dumps(doc)


def assert_same_failure(text, lattice_states):
    with pytest.raises(TraceFormatError) as expected:
        reference_loads(text, lattice_states)
    with pytest.raises(TraceFormatError) as got:
        loads_trace(text)
    assert str(got.value) == str(expected.value)
    return str(got.value)


@pytest.fixture(scope="module")
def long_docs():
    return {mode: v2_dumps_trace(run(POOL3, Optimal(), 1000, mode)) for mode in ("exact", "float")}


def bump_edge(doc, t):
    rec = doc["steps"][t]
    if doc["mode"] == "exact":
        rec["r_exact"] = str(Fraction(rec["r_exact"]) + Fraction(1, 10**6))
    else:
        rec["r"] += 1e-9


def bump_checkpoint(doc, t):
    w = doc["steps"][t]["weights"]
    if doc["mode"] == "exact":
        delta = Fraction(w[0]) / 1000
        w[0], w[1] = str(Fraction(w[0]) - delta), str(Fraction(w[1]) + delta)
    else:
        w[0], w[1] = w[0] - w[0] / 1000, w[1] + w[0] / 1000


def swap_row(doc, t):
    doc["steps"][t]["row"] = (doc["steps"][t]["row"] + 1) % 3


class TestTamperedMatchesReference:
    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("edit", [bump_edge, bump_checkpoint, swap_row])
    def test_single_tamper(self, long_docs, mode, edit, lattice_states):
        for t in (0, 5, CHECKPOINT_EVERY - 1, 450, 999):
            if edit is bump_checkpoint and (t + 1) % CHECKPOINT_EVERY:
                continue
            if edit is swap_row and t == 0:
                continue  # every row has the edge 1/3 on uniform weights
            message = assert_same_failure(tampered(long_docs[mode], lambda d: edit(d, t)), lattice_states)
            assert message.startswith(f"step {t}:")

    @pytest.mark.parametrize("t", [CHECKPOINT_EVERY, 250])
    def test_float_edge_just_outside_the_tolerance(self, long_docs, t, lattice_states):
        # the tolerance grows with the steps since the stored weights: about
        # 18 eps for 3 points at a segment's first step, 418 eps 50 steps on
        def edit(doc):
            doc["steps"][t]["r"] += 1e-13

        assert assert_same_failure(tampered(long_docs["float"], edit), lattice_states).startswith(f"step {t}:")

    def test_float_checkpoint_just_outside_the_tolerance(self, long_docs, lattice_states):
        t = 2 * CHECKPOINT_EVERY - 1  # 100 updates since the stored weights: 806 eps

        def edit(doc):
            w = doc["steps"][t]["weights"]
            w[0], w[1] = w[0] * (1 - 1e-11), w[1] + w[0] * 1e-11

        message = assert_same_failure(tampered(long_docs["float"], edit), lattice_states)
        assert message == f"step {t}: stored weights do not match the replayed update"

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_earliest_of_two_segments(self, long_docs, mode, lattice_states):
        # the late segment fails at offset 3, the early one at offset 50:
        # the batch meets the late failure first, but the early step is
        # the first failure of the file
        def edit(doc):
            bump_edge(doc, 803)
            swap_row(doc, 250)

        assert assert_same_failure(tampered(long_docs[mode], edit), lattice_states).startswith("step 250:")

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_edge_before_checkpoint_of_same_step(self, long_docs, mode, lattice_states):
        def edit(doc):
            bump_edge(doc, 2 * CHECKPOINT_EVERY - 1)
            bump_checkpoint(doc, 2 * CHECKPOINT_EVERY - 1)
            bump_checkpoint(doc, 6 * CHECKPOINT_EVERY - 1)

        assert "is not the edge of row" in assert_same_failure(tampered(long_docs[mode], edit), lattice_states)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_v1_bad_step_in_the_middle(self, mode, lattice_states):
        # a document in the v1 layout: every step stores its weights
        text = v2_dumps_trace(run(POOL3, Optimal(), 150, mode), every=1)
        for edit in (bump_edge, swap_row, bump_checkpoint):
            message = assert_same_failure(tampered(text, lambda d: edit(d, 75)), lattice_states)
            assert message.startswith("step 75:")

    def test_replay_failure_before_a_malformed_record(self, long_docs):
        # a bad edge at step 40 comes before a row that is not an integer at 60
        def edit(doc):
            bump_edge(doc, 40)
            doc["steps"][60]["row"] = 0.5

        assert loads_trace_message(tampered(long_docs["float"], edit)).startswith("step 40:")

    def test_malformed_record_before_a_replay_failure(self, long_docs):
        def edit(doc):
            doc["steps"][40]["row"] = True
            bump_edge(doc, 60)

        assert loads_trace_message(tampered(long_docs["float"], edit)) == "step 40: row True is not an integer"

    def test_bad_checkpoint_after_its_replay_failure(self, long_docs):
        # the step's own edge is checked before its stored weights are read
        t = 3 * CHECKPOINT_EVERY - 1

        def edit(doc):
            bump_edge(doc, t)
            doc["steps"][t]["weights"][0] = -1.0

        assert "is not the edge of row" in loads_trace_message(tampered(long_docs["float"], edit))

        def only_weights(doc):
            doc["steps"][t]["weights"][0] = -1.0

        message = loads_trace_message(tampered(long_docs["float"], only_weights))
        assert message == f"step {t}: stored weights: weights must be strictly positive"


def loads_trace_message(text):
    with pytest.raises(TraceFormatError) as exc:
        loads_trace(text)
    return str(exc.value)


# --- malformed step fields and halt values exit 4 ---


@pytest.fixture()
def float_trace_file(tmp_path):
    path = tmp_path / "t.json"
    assert main(["run", "--pool", str(DATA / "three_dichotomies.pool"), "--iters", "250",
                 "--mode", "float", "--out", str(path)]) == 0
    # the v2 layout, which has a record for every step
    path.write_text(v2_dumps_trace(load_trace(str(path)), json.loads(path.read_text())["provenance"]))
    return path


def edit_file(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    return main(["analyze", str(path)])


class TestMalformedFields:
    def test_fractional_row(self, float_trace_file):
        assert edit_file(float_trace_file, lambda d: d["steps"][7].update(row=0.5)) == 4
        with pytest.raises(TraceFormatError, match=r"step 7: row 0.5 is not an integer"):
            loads_trace(float_trace_file.read_text())

    def test_boolean_row(self, float_trace_file):
        assert edit_file(float_trace_file, lambda d: d["steps"][7].update(row=True)) == 4
        with pytest.raises(TraceFormatError, match=r"step 7: row True is not an integer"):
            loads_trace(float_trace_file.read_text())

    def test_string_edge_in_float_mode(self, float_trace_file):
        assert edit_file(float_trace_file, lambda d: d["steps"][7].update(r=str(d["steps"][7]["r"]))) == 4
        with pytest.raises(TraceFormatError, match=r"step 7: edge '0\.\d+' is not a number"):
            loads_trace(float_trace_file.read_text())

    def test_numeric_halt(self, float_trace_file):
        assert edit_file(float_trace_file, lambda d: d.update(halt=5)) == 4
        with pytest.raises(TraceFormatError, match="unknown halt 5"):
            loads_trace(float_trace_file.read_text())

    def test_unknown_halt(self, float_trace_file):
        assert edit_file(float_trace_file, lambda d: d.update(halt="bogus")) == 4
        with pytest.raises(TraceFormatError, match="unknown halt 'bogus'"):
            loads_trace(float_trace_file.read_text())

    def test_known_halts_load(self, float_trace_file):
        for halt in ("weak_learning_failure", "perfect_classification", None):
            assert edit_file(float_trace_file, lambda d: d.update(halt=halt)) == 0

    def test_string_weight_in_float_mode(self, float_trace_file):
        def edit(doc):
            doc["steps"][-1]["weights"][0] = str(doc["steps"][-1]["weights"][0])

        assert edit_file(float_trace_file, edit) == 4

    def test_non_object_step(self, float_trace_file):
        assert edit_file(float_trace_file, lambda d: d["steps"].__setitem__(3, [0, 0.5])) == 4
        with pytest.raises(TraceFormatError, match="step 3: not a JSON object"):
            loads_trace(float_trace_file.read_text())

    def test_huge_integer_edge(self, float_trace_file):
        assert edit_file(float_trace_file, lambda d: d["steps"][7].update(r=10**400)) == 4

