"""Exact mode's integer lattice against the Fraction kernels it replaced.

The `fraction_*` functions below are the exact paths of the selection,
update, loop, replay and identity-check kernels as they were when exact
weights were object arrays of Fractions, kept as the reference. The integer
lattice must give equal traces, trace files, loads (with the same first
failure for a tampered file) and check results on:

- all 1000 fuzz_exact_traces;
- the golden and first-above:2/5 runs on the 3-point pool, fixed schedules,
  and both halts;
- the 7-point pool whose numbers pass 4300 digits (written in hexadecimal);
- synthetic3 in exact mode, 12 steps.

Every state row must also be in canonical form: an edge p/q in lowest terms,
and numerators a_1..a_n over a denominator D with gcd(a_1..a_n, D) = 1 that
sum to D.
"""

import hashlib
import json
import math
from bisect import bisect_left
from dataclasses import replace
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
    WeakLearningFailure,
    dichotomy_of,
    load_csv,
    run,
    run_on_dataset,
    train_tree,
    uniform_weights,
)
from boostcycles.cli import main
from boostcycles.cycles import SUBSUMS_INCONSISTENT, CheckResult, analyze_trace
from boostcycles.traceio import (
    CHECKPOINT_EVERY,
    TraceFormatError,
    _parse_ratio,
    _ratio_text,
    dumps_trace,
    loads_trace,
)

DATA = resources.files("boostcycles") / "data"
POOL7 = "-+--+-- --+-+-- +--+-++ ---+-+- -++++++ -----+- ++-+--+ -+++++- ++++-+- +-++--+ ++-+---".split()


# --- reference: the Fraction kernels ---


def fraction_select(w, pool, rule, t):
    signs = pool.signs
    if isinstance(rule, FixedSequence):
        row = rule.rows[t % len(rule.rows)]
        return row, (signs[row : row + 1] @ w).tolist()[0]
    rows = np.arange(len(pool))
    edges = signs @ w
    if isinstance(rule, FirstAbove):
        qualifying = [(r, i) for r, i in zip(edges.tolist(), rows.tolist()) if r >= rule.theta]
        if qualifying:
            r, row = min(qualifying)
            return row, r
    best = int(edges.argmax())
    edge = edges.tolist()[best]
    if edge <= 0:
        raise WeakLearningFailure("all available edges are <= 0")
    return int(rows[best]), edge


def fraction_update(w, eta, r):
    new = w / np.where(eta > 0, 1 + r, 1 - r)
    return new, new.sum(axis=-1)


def fraction_boost(choose, initial, t_max):
    w = np.array(initial.components, dtype=object)
    rows, edges, weights = [], [], []
    halt = None
    for t in range(t_max):
        try:
            row, eta, r = choose(w, t)
        except WeakLearningFailure:
            halt = "weak_learning_failure"
            break
        if r <= 0:
            halt = "weak_learning_failure"
            break
        if r >= 1:
            halt = "perfect_classification"
            break
        w, total = fraction_update(w, eta, r)
        assert total == 1
        rows.append(row)
        edges.append(r)
        weights.append(w)
    n = len(initial)
    if not rows:
        return np.empty(0, np.int64), np.empty((0, n + 1), object), halt
    states = np.column_stack((np.array(edges, dtype=object), np.stack(weights)))
    return np.array(rows, dtype=np.int64), states, halt


def fraction_run(pool, rule, t_max, lattice_states):
    """(trace built from the Fraction columns, the Fraction states)."""
    initial = uniform_weights(pool.n_points, "exact")
    signs = list(pool.matrix)

    def choose(w, t):
        row, edge = fraction_select(w, pool, rule, t)
        return row, signs[row], edge

    rows, states, halt = fraction_boost(choose, initial, t_max)
    return BoostTrace("exact", pool, rule, initial, rows, lattice_states(states), halt), states


def fraction_run_on_dataset(ds, max_depth, max_leaves, t_max, lattice_states):
    initial = uniform_weights(ds.n, "exact")
    chosen = {}

    def choose(w, t):
        eta = dichotomy_of(train_tree(ds, w, max_depth, max_leaves), ds)
        row, _ = chosen.setdefault(eta.entries, (len(chosen), eta))
        signs = np.array([eta.entries], dtype=np.int8)
        return row, signs[0], (signs @ w).tolist()[0]

    rows, states, halt = fraction_boost(choose, initial, t_max)
    used = int(rows.max()) + 1 if len(rows) else 1
    pool = HypothesisPool(tuple(eta for _, eta in list(chosen.values())[:used]), origin="learned")
    return BoostTrace("exact", pool, Optimal(), initial, rows, lattice_states(states), halt), states


def fraction_steps(states, rows):
    """The step records of a v2 trace file, written from Fraction states."""
    steps = [
        {"row": row, "r_exact": _ratio_text(r.numerator, r.denominator)}
        for row, r in zip(rows.tolist(), states[:, 0].tolist())
    ]
    if steps:
        for t in (*range(CHECKPOINT_EVERY - 1, len(steps) - 1, CHECKPOINT_EVERY), len(steps) - 1):
            steps[t]["weights"] = [_ratio_text(c.numerator, c.denominator) for c in states[t, 1:].tolist()]
    return steps


def fraction_replay(initial, rows, signs, edges, checkpoints):
    steps, n = signs.shape
    cuts = sorted({0, steps, *(t + 1 for t in checkpoints if t + 1 < steps)})
    segments = sorted(zip(np.diff(cuts).tolist(), cuts[:-1]), key=lambda seg: -seg[0])
    starts = np.array([start for _, start in segments], dtype=np.int64)
    negated_lengths = [-length for length, _ in segments]
    running = [bisect_left(negated_lengths, -j) for j in range(segments[0][0])] if steps else []
    w = np.stack([initial if start == 0 else checkpoints[start - 1] for _, start in segments]) if steps else initial
    ends = {}
    for length, start in segments:
        if start + length - 1 in checkpoints:
            ends.setdefault(length - 1, []).append(start + length - 1)
    states = np.empty((steps, n + 1), dtype=object)
    states[:, 0] = edges
    first = None

    def fail(failed, message):
        nonlocal first
        step = int(failed.min())
        if first is None or step < first[0]:
            first = step, message(step)

    for j, live in enumerate(running):
        t = starts[:live] + j
        eta, r, w = signs[t], edges[t], w[:live]
        w, totals = fraction_update(w, eta, r[:, None])
        bad = totals != 1
        if bad.any():
            fail(t[bad], lambda step: (
                f"step {step}: edge {edges[step]} is not the edge of row {rows[step]} on the replayed weights"
            ))
        states[t, 1:] = w
        stored = ends.get(j)
        if stored:
            replayed = states[stored, 1:]
            expected = np.stack([checkpoints[u] for u in stored])
            matches = (replayed == expected).all(axis=1)
            if not matches.all():
                fail(
                    np.array(stored)[~matches],
                    lambda step: f"step {step}: stored weights do not match the replayed update",
                )
            states[stored, 1:] = expected
    return states, None if first is None else first[1]


def fraction_load(text):
    """(the Fraction states, None) or (None, the first failure's message),
    for a v2 exact trace whose records are well formed."""
    doc = json.loads(text)
    pool = HypothesisPool(tuple(map(MistakeDichotomy.from_string, doc["pool"]["rows"])))
    records = doc["steps"]
    rows = np.array([rec["row"] for rec in records], dtype=np.int64)
    edges = np.empty(len(records), dtype=object)
    edges[:] = [Fraction(*_parse_ratio(rec["r_exact"])) for rec in records]
    checkpoints = {
        t: np.array([Fraction(*_parse_ratio(c)) for c in rec["weights"]], dtype=object)
        for t, rec in enumerate(records)
        if "weights" in rec
    }
    initial = np.array([Fraction(*_parse_ratio(c)) for c in doc["initial_weights"]], dtype=object)
    states, failure = fraction_replay(initial, rows, pool.signs[rows], edges, checkpoints)
    return (None, failure) if failure else (states, None)


def fraction_checks(trace, states):
    """The edge-update and subsums CheckResults, from Fraction states."""
    if len(trace) < 2:
        short = {"steps": len(trace)}
        return [CheckResult(name, False, "trace too short", short) for name in ("edge-update", "subsums")]
    signs = trace.signs
    w_prev = np.vstack((np.array(trace.initial_weights.components, dtype=object), states[:-2, 1:]))
    r_prev, r_cur = states[:-1, 0], states[1:, 0]
    was_right, is_right = signs[:-1] > 0, signs[1:] > 0
    j_minus = (signs[:-1] < 0) & (signs[1:] < 0)

    def mass(mask, rows=slice(None)):
        return np.where(mask[rows], w_prev[rows], 0).sum(axis=1)

    simplified = (1 + r_prev - 2 * mass(was_right & ~is_right)) / (1 + r_prev)
    matches = (simplified == r_cur).astype(bool)
    j_minus_empty = ~j_minus.any(axis=1)
    broken = (np.flatnonzero(matches != j_minus_empty) + 1).tolist()
    mismatch = (np.flatnonzero(~matches) + 1).tolist()
    data = {"steps_checked": len(matches), "mismatch_iterations": mismatch, "broken_iterations": broken}
    if broken:
        edge_update = CheckResult("edge-update", False, f"biconditional broken at iterations {broken}", data)
    elif mismatch:
        detail = f"holds; update differs exactly where J- is nonempty: iterations {mismatch}"
        edge_update = CheckResult("edge-update", True, detail, data)
    else:
        detail = "holds; update matches at every iteration (J- always empty)"
        edge_update = CheckResult("edge-update", True, detail, data)

    half = Fraction(1, 2)
    held = np.flatnonzero(j_minus_empty)
    data = {"steps_verified": 0, "steps_skipped": int((~j_minus_empty).sum()), "failed_iteration": None}
    shrink, grow = 1 + r_prev[held], 1 - r_prev[held]
    a = mass(was_right & is_right, held) / shrink
    b = mass(~was_right & is_right, held) / grow
    c = mass(was_right & ~is_right, held) / shrink
    edge = a - c + b
    inconsistent = ((b != half) | (a + c != half)).astype(bool)
    ok = ((a == edge / 2) & (b == half) & (c == (1 - edge) / 2)).astype(bool)
    failed = inconsistent | ~ok
    if failed.any():
        j = int(failed.argmax())
        t = int(held[j]) + 1
        data.update(steps_verified=j, failed_iteration=t)
        assert inconsistent[j]
        subsums = CheckResult("subsums", False, f"iteration {t}: {SUBSUMS_INCONSISTENT}", data)
    else:
        data["steps_verified"] = len(held)
        if len(held) == 0:
            subsums = CheckResult("subsums", True, "no step satisfied the periodic learning condition", data)
        else:
            detail = f"subsum values (r/2, 1/2, (1-r)/2) verified on {len(held)} steps"
            subsums = CheckResult("subsums", True, detail, data)
    return [edge_update, subsums]


# --- the comparison ---


def fraction_states(trace):
    """An exact trace's states as Fractions, rows [r, w_1..w_n]."""
    return np.array([trace.state(t) for t in range(len(trace))], dtype=object)


def assert_canonical(trace):
    for p, q, d, *a in trace.states.tolist():
        assert q > 0 and math.gcd(p, q) == 1
        assert d > 0 and math.gcd(d, *a) == 1 and sum(a) == d


def assert_same_load(text, lattice_states):
    states, failure = fraction_load(text)
    if failure is None:
        loaded = loads_trace(text)
        assert np.array_equal(loaded.states, lattice_states(states))
        assert_canonical(loaded)
        assert json.loads(dumps_trace(loaded))["steps"] == fraction_steps(states, loaded.rows)
        return loaded
    with pytest.raises(TraceFormatError) as raised:
        loads_trace(text)
    assert str(raised.value) == failure
    return None


def tampered_texts(trace, text):
    """The trace file with one thing changed that only the replay can see:
    an edge, a row, or a checkpoint's weights; and with an edge that is
    written unreduced (the same trace)."""
    doc = json.loads(text)
    steps = doc["steps"]
    t = len(steps) // 2
    p, q = trace.states[t, :2].tolist()
    variants = []
    for field, value in (
        ("r_exact", f"{p}/{q + 1}"),
        ("r_exact", f"{2 * p}/{2 * q}"),
        ("row", (steps[t]["row"] + 1) % len(trace.pool)),
    ):
        changed = json.loads(text)
        changed["steps"][t][field] = value
        variants.append(json.dumps(changed))
    changed = json.loads(text)
    changed["steps"][-1]["weights"] = changed["steps"][-1]["weights"][::-1]
    variants.append(json.dumps(changed))
    return variants


def assert_same_as_fraction_kernels(trace, reference, states, lattice_states, tamper=True):
    assert trace == reference
    ints = lattice_states(states)
    assert np.array_equal(trace.states, ints)
    assert [type(v) for v in trace.states.ravel().tolist()] == [type(v) for v in ints.ravel().tolist()]
    read = [trace.state(t) for t in range(len(trace))]
    assert read == [tuple(row) for row in states.tolist()]
    assert [type(v) for row in read for v in row] == [type(v) for v in states.ravel().tolist()]
    assert_canonical(trace)
    text = dumps_trace(trace)
    assert json.loads(text)["steps"] == fraction_steps(states, trace.rows)
    assert assert_same_load(text, lattice_states) == trace
    if tamper and len(trace):
        for variant in tampered_texts(trace, text):
            assert_same_load(variant, lattice_states)
    assert analyze_trace(trace, checks=("edge-update", "subsums"))[1] == fraction_checks(trace, states)


class TestFuzzCorpus:
    def test_fuzz_exact_traces(self, fuzz_exact_traces, lattice_states):
        for trace in fuzz_exact_traces:
            t_max = len(trace) + (trace.halt is not None)
            reference, states = fraction_run(trace.pool, trace.rule, t_max, lattice_states)
            assert_same_as_fraction_kernels(trace, reference, states, lattice_states)
            assert run(trace.pool, trace.rule, t_max, "exact") == trace


class TestNamedRuns:
    @pytest.mark.parametrize(
        "rule, t_max",
        [
            (Optimal(), 300),
            (FirstAbove(Fraction(2, 5)), 500),
            (FirstAbove(0.4), 200),
            (FixedSequence((0, 1, 2)), 250),
            (FixedSequence((2, 0, 0, 1)), 120),
        ],
    )
    def test_three_point_pool(self, pool3, rule, t_max, lattice_states):
        reference, states = fraction_run(pool3, rule, t_max, lattice_states)
        assert_same_as_fraction_kernels(run(pool3, rule, t_max, "exact"), reference, states, lattice_states)

    @pytest.mark.parametrize(
        "rows, rule, halt, steps",
        [
            ([(1, -1, 1), (1, 1, 1)], FixedSequence((0, 1)), "perfect_classification", 1),
            ([(1, 1, 1), (1, -1, 1)], Optimal(), "perfect_classification", 0),
            ([(1, -1, -1), (-1, 1, 1)], FixedSequence((1, 1, 0)), "weak_learning_failure", 1),
            ([(1, -1, -1)], Optimal(), "weak_learning_failure", 0),
        ],
    )
    def test_halts(self, rows, rule, halt, steps, lattice_states):
        pool = HypothesisPool.from_signs(rows)
        trace = run(pool, rule, 10, "exact")
        assert (trace.halt, len(trace)) == (halt, steps)
        reference, states = fraction_run(pool, rule, 10, lattice_states)
        assert_same_as_fraction_kernels(trace, reference, states, lattice_states)

    def test_hexadecimal_numbers(self, lattice_states):
        pool = HypothesisPool(tuple(map(MistakeDichotomy.from_string, POOL7)))
        rule = FirstAbove(Fraction(1, 5))
        trace = run(pool, rule, 30, "exact")
        assert trace.states[-1, 2].bit_length() > 14300  # past the 4300-digit limit
        assert any(w.startswith("0x") for w in json.loads(dumps_trace(trace))["steps"][-1]["weights"])
        reference, states = fraction_run(pool, rule, 30, lattice_states)
        assert_same_as_fraction_kernels(trace, reference, states, lattice_states, tamper=False)

    def test_synthetic3(self, lattice_states):
        ds = load_csv(str(DATA / "synthetic3.csv"), "label", "a")
        trace = run_on_dataset(ds, 1, 2, 12, "exact")
        assert len(trace) == 12
        reference, states = fraction_run_on_dataset(ds, 1, 2, 12, lattice_states)
        assert_same_as_fraction_kernels(trace, reference, states, lattice_states)


class TestFailingChecks:
    def test_tampered_edges(self, pool3, lattice_states):
        # a wrong recorded edge breaks both identities at the next transition
        trace = run(pool3, Optimal(), 300, "exact")
        for t, delta in ((3, Fraction(1, 7)), (150, Fraction(1, 10**6)), (280, Fraction(-1, 10**9))):
            states = fraction_states(trace)
            states[t, 0] += delta
            tampered = replace(trace, states=lattice_states(states))
            assert_canonical(tampered)
            got = analyze_trace(tampered, checks=("edge-update", "subsums"))[1]
            assert got == fraction_checks(tampered, states)
            assert not got[1].ok and got[1].data["failed_iteration"] == t + 1

    def test_tampered_weights(self, pool3, lattice_states):
        # permuted weights, and weights that no longer sum to 1, at one step
        trace = run(pool3, FirstAbove(Fraction(2, 5)), 200, "exact")
        for t, tamper in ((100, lambda w: w[[1, 2, 0]]), (60, lambda w: w * np.array([2, 1, 1])), (7, lambda w: w / 2)):
            states = fraction_states(trace)
            states[t, 1:] = tamper(states[t, 1:])
            tampered = replace(trace, states=lattice_states(states))
            got = analyze_trace(tampered, checks=("edge-update", "subsums"))[1]
            assert got == fraction_checks(tampered, states)
            assert not got[1].ok


class TestMalformedValues:
    """Values the integer reader parses itself fail with the messages of the
    Fraction values they are."""

    @pytest.mark.parametrize(
        "edge, message",
        [
            ("1/0", "step 5: edge '1/0' is not a number (Fraction(1, 0))"),
            ("1/00", "step 5: edge '1/00' is not a number (Fraction(1, 0))"),
            ("-1/3", "step 5: edge -1/3 outside (0, 1)"),
            ("6/3", "step 5: edge 2 outside (0, 1)"),
            ("1/-3", "step 5: edge '1/-3' is not a number (Invalid literal for Fraction: '1/-3')"),
        ],
    )
    def test_edges(self, pool3, edge, message):
        doc = json.loads(dumps_trace(run(pool3, Optimal(), 20, "exact")))
        doc["steps"][5]["r_exact"] = edge
        with pytest.raises(TraceFormatError) as raised:
            loads_trace(json.dumps(doc))
        assert str(raised.value) == message

    @pytest.mark.parametrize(
        "weights, message",
        [
            (["0", "1/2", "1/2"], "weights must be strictly positive"),
            (["-1/4", "3/4", "1/2"], "weights must be strictly positive"),
            (["1/3", "1/3", "1/2"], "exact weights sum to 7/6, not 1"),
            ([], "empty weight vector"),
        ],
    )
    def test_stored_weights(self, pool3, weights, message):
        doc = json.loads(dumps_trace(run(pool3, Optimal(), 20, "exact")))
        doc["steps"][-1]["weights"] = weights
        with pytest.raises(TraceFormatError) as raised:
            loads_trace(json.dumps(doc))
        assert str(raised.value) == f"step 19: stored weights: {message}"


def test_fraction_constructions_per_run_and_analyze(tmp_path, monkeypatch, capsys):
    """One exact run and its analyze on the 3-point pool build about one
    Fraction per edge and per checkpoint weight at most, not one per weight
    per step."""
    pool = tmp_path / "p3.pool"
    pool.write_text("-++\n+-+\n++-\n")
    path = tmp_path / "t.json"
    built = 0
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    steps = 2000
    assert main(["run", "--pool", str(pool), "--rule", "optimal", "--iters", str(steps), "--mode", "exact",
                 "--out", str(path)]) == 0
    assert main(["analyze", str(path)]) == 0
    monkeypatch.undo()
    assert "check subsums: pass" in capsys.readouterr().out
    checkpoint_weights = 3 * (steps // CHECKPOINT_EVERY)
    assert built <= steps + checkpoint_weights


def test_exact_run_and_analyze_keep_their_bytes(pool3, tmp_path, capsys):
    """The 2000-step exact run on the 3-point pool, written out, and its
    analyze output have the sha256 they had with the update kernel that
    reduced each new point by a multi-argument gcd over [D', a']: the exact
    arithmetic is canonical, so a change of kernel changes no byte."""
    text = dumps_trace(run(pool3, Optimal(), 2000, "exact"))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "972177afb68407c597fba5dcf1501a2aee2b1c28d219b6e5e8e32957d544fc30"
    )
    path = tmp_path / "t.json"
    path.write_text(text)
    capsys.readouterr()
    assert main(["analyze", str(path)]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "13e45fa45e2d53ddf379dbbf69875e85884dc7f27aac81b59b0bdd5062ed32ba"
    )
