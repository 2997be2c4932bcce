"""Float traces that repeat bit for bit: the repeat finder against a
brute-force reference, the boostcycles-trace-v3 layout's round trip, the
v2 layout everywhere else, and the reader's checks of a v3 header."""

import hashlib
import json
import math
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from boostcycles import (
    BoostTrace,
    FirstAbove,
    FixedSequence,
    HypothesisPool,
    Optimal,
    WeightVector,
    load_csv,
    run,
    run_on_dataset,
)
from boostcycles import engine
from boostcycles.cli import main
from boostcycles.cycles import detect_cycle
from boostcycles.engine import _first_repeat, _select, _update
from boostcycles.simplex import first_repeated_mistake
from boostcycles.traceio import TraceFormatError, dumps_trace, loads_trace

from test_engine import wide_pool
from test_traceio import v2_dumps_trace

POOL3 = HypothesisPool.from_signs([(-1, 1, 1), (1, -1, 1), (1, 1, -1)])
V2, V3 = "boostcycles-trace-v2", "boostcycles-trace-v3"


def schedule_length(rule):
    return len(rule.rows) if isinstance(rule, FixedSequence) else 1


def brute_first_repeat(trace):
    """(onset, period) of the first repeat of the key (bytes of the weights
    before step t, t mod L), found with a dict over the steps in order."""
    before = [trace.initial_weights.as_array(), *trace.states[:-1, 1:]][: len(trace)]
    seen = {}
    for t, w in enumerate(before):
        key = (w.tobytes(), t % schedule_length(trace.rule))
        if key in seen:
            return seen[key], t - seen[key]
        seen[key] = t
    return None


def finder(trace, schedule=None):
    schedule = schedule_length(trace.rule) if schedule is None else schedule
    return _first_repeat(trace.initial_weights.as_array(), trace.states[:-1, 1:], schedule)


@pytest.fixture(scope="module")
def named_runs():
    iris = load_csv(str(resources.files("boostcycles") / "data" / "iris.csv"), "species", "versicolor")
    return {
        "golden": run(POOL3, Optimal(), 5000, "float"),
        "first-above:2/5": run(POOL3, FirstAbove(Fraction(2, 5)), 500, "float"),
        "fixed:0,1,2": run(POOL3, FixedSequence((0, 1, 2)), 500, "float"),
        "fixed:0,0,1": run(POOL3, FixedSequence((0, 0, 1)), 500, "float"),
        # the weights repeat with period 3, the key (t mod 6) with period 6
        "fixed:0,1,2,0,1,2": run(POOL3, FixedSequence((0, 1, 2, 0, 1, 2)), 500, "float"),
        "iris": run_on_dataset(iris, 3, 4, 2000, "float"),
    }


@pytest.fixture()
def repeat_calls(monkeypatch):
    """The traces that `engine._repeat` is called on, while the test runs."""
    calls = []
    search = engine._repeat
    monkeypatch.setattr(engine, "_repeat", lambda trace: calls.append(trace) or search(trace))
    return calls


def cut(trace, steps):
    return trace.rows[:steps], trace.signs[:steps], trace.states[:steps]


def all_traces(named_runs, fuzz_float_cycles):
    return [*named_runs.items(), *((f"fuzz-{i}", trace) for i, (trace, _) in enumerate(fuzz_float_cycles))]


class TestRepeatFinder:
    def test_named_repeats(self, named_runs):
        found = {name: finder(trace) for name, trace in named_runs.items()}
        assert found == {
            "golden": (39, 3),
            "first-above:2/5": (47, 4),
            "fixed:0,1,2": (39, 3),
            "fixed:0,0,1": None,  # it halts after one step
            "fixed:0,1,2,0,1,2": (39, 6),
            "iris": (1812, 3),
        }
        # the weights alone repeat at a distance that is not a multiple of L
        assert finder(named_runs["fixed:0,1,2,0,1,2"], 1) == (39, 3)

    def test_matches_brute_force(self, named_runs, fuzz_float_cycles):
        repeats = 0
        for name, trace in all_traces(named_runs, fuzz_float_cycles):
            assert finder(trace) == brute_first_repeat(trace), name
            repeats += finder(trace) is not None
        assert repeats >= 15

    def test_short_traces(self, named_runs):
        golden = named_runs["golden"]
        for steps in (0, 1, 2, 42, 43):
            trace = BoostTrace("float", POOL3, Optimal(), golden.initial_weights, *cut(golden, steps))
            assert finder(trace) == brute_first_repeat(trace) == ((39, 3) if steps == 43 else None), steps


class TestViolationScan:
    def test_bounded_scan_finds_the_full_scans_violation(self, named_runs, fuzz_float_cycles):
        # on a repeating trace detect_cycle scans the J- masks only up to one
        # bit period past max(phase, onset); the first violation is the one
        # a scan of every mask row from the phase on finds
        kinds = set()
        for name, trace in all_traces(named_runs, fuzz_float_cycles):
            report = detect_cycle(trace, tol=1e-9, min_repeats=3)
            if report is None:
                continue
            full = first_repeated_mistake(trace.repeated_mistakes[report.phase :])
            expected = None if full is None else (full[0], full[1] + report.phase)
            assert report.periodic_violation == expected, name
            repeat = trace.repeat
            if repeat is not None and max(report.phase, repeat[0]) + repeat[1] < len(trace) - 1:
                kinds.add(expected is not None)
        assert named_runs["golden"].repeat is not None and len(named_runs["golden"]) == 5000
        assert kinds == {True, False}  # bounded scans with and without a violation


class TestV3Layout:
    def test_round_trip(self, named_runs, fuzz_float_cycles):
        for name, trace in all_traces(named_runs, fuzz_float_cycles):
            text = dumps_trace(trace)
            again = loads_trace(text)
            assert again == trace, name
            assert dumps_trace(again) == text, name

    def test_v3_exactly_when_the_columns_repeat(self, named_runs, fuzz_float_cycles):
        written = 0
        for name, trace in all_traces(named_runs, fuzz_float_cycles):
            doc = json.loads(dumps_trace(trace))
            repeat = brute_first_repeat(trace)
            assert (doc["schema"] == V3) == (repeat is not None and trace.halt is None), name
            if doc["schema"] == V2:
                assert dumps_trace(trace) == v2_dumps_trace(trace), name
                continue
            written += 1
            onset, period = repeat
            assert (doc["onset"], doc["period"], doc["length"]) == (onset, period, len(trace)), name
            assert len(doc["steps"]) == onset + period < len(trace)
            with_weights = {t for t, rec in enumerate(doc["steps"]) if "weights" in rec}
            assert onset + period - 1 in with_weights and (onset == 0 or onset - 1 in with_weights)
        assert written >= 15

    def test_load_keeps_the_header_repeat(self, named_runs, fuzz_float_cycles, repeat_calls):
        loaded = 0
        for name, trace in all_traces(named_runs, fuzz_float_cycles):
            text = dumps_trace(trace)
            doc = json.loads(text)
            if doc["schema"] != V3:
                continue
            repeat_calls.clear()
            again = loads_trace(text)
            assert again.repeat == (doc["onset"], doc["period"]), name
            assert repeat_calls == [], name  # read from the header, not searched for
            assert again.repeat == engine._repeat(again), name
            loaded += 1
        assert loaded >= 15

    def test_a_header_that_is_not_the_first_repeat(self, golden_doc, repeat_calls):
        # two periods stored as one: the file passes the reader's checks and
        # tiles the same columns, whose repeat is then searched for
        doc = json.loads(json.dumps(golden_doc))
        doc["steps"] += [dict(record) for record in doc["steps"][39:42]]
        doc["period"] = 6
        trace = loads_trace(json.dumps(doc))
        assert trace == run(POOL3, Optimal(), 200, "float")
        repeat_calls.clear()
        assert trace.repeat == (39, 3)
        assert len(repeat_calls) == 1

    def test_golden_size(self, named_runs):
        text = dumps_trace(named_runs["golden"])
        assert len(text.encode()) == 1971
        assert len(v2_dumps_trace(named_runs["golden"]).encode()) > 90 * len(text)

    def test_analyze_output_equals_the_v2_file(self, named_runs, fuzz_float_cycles, tmp_path, capsys):
        path = tmp_path / "t.json"
        for name, trace in all_traces(named_runs, fuzz_float_cycles):
            outputs = []
            for text in (dumps_trace(trace), v2_dumps_trace(trace)):
                path.write_text(text)
                code = main(["analyze", str(path)])
                outputs.append((code, capsys.readouterr().out))
            assert outputs[0] == outputs[1], name

    def test_onset_zero_stores_no_checkpoint_before_it(self, named_runs, tmp_path, capsys):
        # the golden run from step 39 on: its initial weights lie on the cycle
        golden = named_runs["golden"]
        initial = WeightVector(tuple(golden.states[38, 1:].tolist()))
        trace = BoostTrace("float", POOL3, Optimal(), initial, *(column[39:100] for column in cut(golden, 100)))
        doc = json.loads(dumps_trace(trace))
        assert (doc["schema"], doc["onset"], doc["period"], len(doc["steps"])) == (V3, 0, 3, 3)
        assert [t for t, rec in enumerate(doc["steps"]) if "weights" in rec] == [2]
        assert loads_trace(dumps_trace(trace)) == trace
        # one step past the period: the last key is the initial one
        short = BoostTrace("float", POOL3, Optimal(), initial, *(column[39:43] for column in cut(golden, 100)))
        assert finder(short) == brute_first_repeat(short) == (0, 3)

        def nudge(doc):
            w = doc["initial_weights"]
            w[0] = math.nextafter(w[0], 1.0)

        message = failure(doc, nudge, tmp_path, capsys)
        assert message == "step 2: stored weights are not bit-equal to the weights before step 0"


def switched_trace(tail_rows, steps=200, switch=60):
    """Columns no single rule produces: the golden run up to step `switch`,
    past its repeat at (39, 3), then the fixed schedule `tail_rows`."""
    golden = run(POOL3, Optimal(), switch, "float")
    rows, states = golden.rows.tolist(), golden.states.tolist()
    w = golden.states[-1, 1:]
    for t in range(switch, steps):
        row, r = _select(w, POOL3, FixedSequence(tail_rows), t)
        w, _ = _update(w, POOL3.matrix[row], r)
        rows.append(row)
        states.append([r, *w.tolist()])
    return BoostTrace("float", POOL3, Optimal(), golden.initial_weights, rows, POOL3.signs[rows], np.array(states))


class TestV2Kept:
    def test_columns_that_do_not_tile_are_v2(self):
        # the keys repeat at (39, 3), but the tail under fixed:0,1 never
        # repeats: the last key occurs once
        trace = switched_trace((0, 1))
        assert brute_first_repeat(trace) == (39, 3) and finder(trace) is None
        text = dumps_trace(trace)
        assert json.loads(text)["schema"] == V2 and text == v2_dumps_trace(trace)
        assert loads_trace(text) == trace

    def test_columns_take_the_repeat_they_end_in(self):
        # under fixed:0,1,2 the tail repeats from step 103 with period 9
        trace = switched_trace((0, 1, 2))
        assert brute_first_repeat(trace) == (39, 3) and finder(trace) == (103, 9)
        text = dumps_trace(trace)
        assert (json.loads(text)["onset"], json.loads(text)["period"]) == (103, 9)
        assert loads_trace(text) == trace

    def test_rows_that_do_not_tile_are_v2(self):
        # the weights and signs repeat, a row index does not (the trace is
        # hand-built: the row's signs are not its pool row's)
        golden = run(POOL3, Optimal(), 100, "float")
        rows = golden.rows.copy()
        rows[90] = (rows[90] + 1) % 3
        trace = BoostTrace("float", POOL3, Optimal(), golden.initial_weights, rows, golden.signs, golden.states)
        assert finder(trace) == (39, 3)
        assert json.loads(dumps_trace(trace))["schema"] == V2

    def test_a_halted_trace_is_v2(self):
        golden = run(POOL3, Optimal(), 100, "float")
        halt = "weak_learning_failure"
        halted = BoostTrace("float", POOL3, Optimal(), golden.initial_weights, *cut(golden, 100), halt)
        text = dumps_trace(halted)
        assert json.loads(text)["schema"] == V2
        assert loads_trace(text) == halted

    def test_parent_bytes(self):
        # sha256 of the v2 bytes written before the v3 layout existed
        iris = load_csv(str(resources.files("boostcycles") / "data" / "iris.csv"), "species", "versicolor")
        expected = [
            (run_on_dataset(iris, 3, 4, 1000, "float"),
             "e617875f8df759caedfa428c94fd65281c254abb09cb96fe3453c3ce87d62a4a"),
            (run(wide_pool(0), Optimal(), 300, "float"),
             "f7bb4ce595bf160cf1cb69773335981c82121bacc3458847a25e61d6529cf562"),
        ]
        for trace, digest in expected:
            assert hashlib.sha256(dumps_trace(trace).encode()).hexdigest() == digest


# --- a tampered v3 header or period exits 4 at the step it names ---


@pytest.fixture(scope="module")
def golden_doc():
    """The golden run's v3 document: onset 39, period 3, 42 records of 200."""
    doc = json.loads(dumps_trace(run(POOL3, Optimal(), 200, "float")))
    assert (doc["schema"], doc["onset"], doc["period"], doc["length"], len(doc["steps"])) == (V3, 39, 3, 200, 42)
    return doc


@pytest.fixture(scope="module")
def schedule6_doc():
    """fixed:0,1,2,0,1,2: onset 39, period 6 (L = 6), 45 records."""
    doc = json.loads(dumps_trace(run(POOL3, FixedSequence((0, 1, 2, 0, 1, 2)), 200, "float")))
    assert (doc["onset"], doc["period"], len(doc["steps"])) == (39, 6, 45)
    return doc


def failure(doc, edit, tmp_path, capsys):
    """The message of a tampered document: loads_trace's, which analyze
    prints as it exits 4."""
    doc = json.loads(json.dumps(doc))
    edit(doc)
    text = json.dumps(doc)
    with pytest.raises(TraceFormatError) as exc:
        loads_trace(text)
    path = tmp_path / "tampered.json"
    path.write_text(text)
    assert main(["analyze", str(path)]) == 4
    assert capsys.readouterr().err == f"error: {exc.value}\n"
    return str(exc.value)


def one_bit_off(doc, t):
    w = doc["steps"][t]["weights"]
    w[0] = math.nextafter(w[0], 1.0)


def append_record(doc):
    doc["steps"].append(dict(doc["steps"][-1]))


TAMPERS = [
    ("wrong onset", lambda d: d.update(onset=38), "step 41: onset 38 plus period 3 is 41 step records, not 42"),
    ("later onset", lambda d: d.update(onset=40, period=2), "step 39: no weights stored before the onset"),
    ("wrong period", lambda d: d.update(period=4), "step 42: onset 39 plus period 4 is 43 step records, not 42"),
    ("longer period", lambda d: d.update(onset=36, period=6), "step 35: no weights stored before the onset"),
    ("last checkpoint off", lambda d: one_bit_off(d, 41),
     "step 41: stored weights are not bit-equal to the weights before step 39"),
    ("onset checkpoint off", lambda d: one_bit_off(d, 38),
     "step 41: stored weights are not bit-equal to the weights before step 39"),
    ("length at the repeat", lambda d: d.update(length=42),
     "step 42: length 42 does not exceed onset 39 plus period 3"),
    ("length short", lambda d: d.update(length=5), "step 42: length 5 does not exceed onset 39 plus period 3"),
    ("halt", lambda d: d.update(halt="weak_learning_failure"),
     "step 42: halt 'weak_learning_failure' in a trace that repeats from step 39"),
    ("extra record", append_record, "step 42: onset 39 plus period 3 is 42 step records, not 43"),
    ("missing record", lambda d: d["steps"].pop(), "step 41: onset 39 plus period 3 is 42 step records, not 41"),
    ("missing middle record", lambda d: d["steps"].pop(5),
     "step 41: onset 39 plus period 3 is 42 step records, not 41"),
]


class TestTamperedV3:
    @pytest.mark.parametrize("name, edit, message", TAMPERS, ids=[name for name, _, _ in TAMPERS])
    def test_exits_4_at_the_step(self, golden_doc, tmp_path, capsys, name, edit, message):
        assert failure(golden_doc, edit, tmp_path, capsys) == message

    def test_one_bit_within_the_replay_tolerance(self, golden_doc):
        # the off checkpoint passes the replay's check: only bit-equality fails it
        doc = json.loads(json.dumps(golden_doc))
        one_bit_off(doc, 41)
        doc["schema"] = V2
        for key in ("onset", "period", "length"):
            del doc[key]
        assert len(loads_trace(json.dumps(doc))) == 42

    def test_period_not_a_multiple_of_the_schedule(self, schedule6_doc, tmp_path, capsys):
        message = failure(schedule6_doc, lambda d: d.update(onset=42, period=3), tmp_path, capsys)
        assert message == "step 45: period 3 is not a multiple of the schedule length 6"

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("onset", "39", "onset '39' is not an integer >= 0"),
            ("onset", -1, "onset -1 is not an integer >= 0"),
            ("period", 0, "period 0 is not an integer >= 1"),
            ("period", 3.0, "period 3.0 is not an integer >= 1"),
            ("length", True, "length True is not an integer >= 1"),
            ("length", None, "length None is not an integer >= 1"),
        ],
    )
    def test_malformed_fields(self, golden_doc, tmp_path, capsys, field, value, message):
        assert failure(golden_doc, lambda d: d.update({field: value}), tmp_path, capsys) == message

    def test_length_beyond_memory(self, golden_doc, run_python, tmp_path):
        # the child's address space is capped at 2 GB, so tiling 10**9 steps
        # fails to allocate at once
        doc = dict(golden_doc, length=10**9)
        (tmp_path / "t.json").write_text(json.dumps(doc))
        done = run_python(
            "import sys\n"
            "from boostcycles.cli import main\n"
            "sys.exit(main(['analyze', 't.json']))\n",
            tmp_path,
        )
        assert done.returncode == 4, done.stderr
        assert done.stderr == "error: step 42: length 1000000000 does not fit in memory\n"

    def test_exact_mode(self, tmp_path, capsys):
        doc = json.loads(dumps_trace(run(POOL3, Optimal(), 5, "exact")))
        doc.update(schema=V3, onset=0, period=1, length=10)
        message = failure(doc, lambda d: None, tmp_path, capsys)
        assert message == "a boostcycles-trace-v3 trace must be in float mode, not exact"
