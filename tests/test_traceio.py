import json
import math
import re
import tracemalloc
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest

from boostcycles import (
    BoostTrace,
    FirstAbove,
    FixedSequence,
    Optimal,
    load_csv,
    run,
    run_on_dataset,
    uniform_weights,
)
from boostcycles.cli import main
from boostcycles.traceio import (
    CHECKPOINT_EVERY,
    TraceFormatError,
    _encode_rule,
    _parse_ratio,
    _point_texts,
    _ratio_text,
    _stored_point,
    dumps_trace,
    load_pool,
    load_trace,
    loads_trace,
    save_trace,
    trace_from_dict,
)

from test_engine import wide_pool

DATA = resources.files("boostcycles") / "data"


def scalar_text(value, mode):
    """A weight as the reference writers store it: the text of its reduced
    p/q in exact mode, a float otherwise."""
    if mode == "exact":
        value = Fraction(value)
        return _ratio_text(value.numerator, value.denominator)
    return float(value)


def hex_fraction(text):
    """A hexadecimal `p/q` or `p` as one Fraction of two ints read by
    int(_, 16), with the errors of those calls."""
    numerator, _, denominator = text.partition("/")
    return Fraction(int(numerator, 16), int(denominator or "1", 16))


def v2_trace_to_dict(trace, provenance=None, every=CHECKPOINT_EVERY):
    """The boostcycles-trace-v2 writer, kept as the reference for the v2
    reader: every step's row and edge, with the weights every `every` steps
    and on the last step. It writes a float trace that repeats bit for bit
    as v2 too, where dumps_trace writes v3. With every=1 each step stores
    its weights, as the v1 layout did."""
    mode = trace.mode
    exact = mode == "exact"
    states = trace.states
    if exact:
        edges = [scalar_text(Fraction(p, q), mode) for p, q in states[:, :2].tolist()]
    else:
        edges = states[:, 0].tolist()
    steps = [{"row": row, "r_exact" if exact else "r": r} for row, r in zip(trace.rows.tolist(), edges)]
    if steps:
        for t in (*range(every - 1, len(steps) - 1, every), len(steps) - 1):
            if exact:
                steps[t]["weights"] = [scalar_text(c, mode) for c in trace.state(t)[1:]]
            else:
                steps[t]["weights"] = states[t, 1:].tolist()
    return {
        "schema": "boostcycles-trace-v2",
        "mode": mode,
        "rule": _encode_rule(trace.rule),
        "pool": {
            "origin": trace.pool.origin,
            "rows": [row.to_string() for row in trace.pool.rows],
        },
        "provenance": provenance or {},
        "initial_weights": [scalar_text(c, mode) for c in trace.initial_weights],
        "halt": trace.halt,
        "steps": steps,
    }


def v2_dumps_trace(trace, provenance=None, every=CHECKPOINT_EVERY):
    """v2_trace_to_dict's document in dumps_trace's layout: one step record
    per line."""
    doc = v2_trace_to_dict(trace, provenance, every)
    steps = ",\n".join(json.dumps(record) for record in doc.pop("steps"))
    return f'{json.dumps(doc)[:-1]}, "steps": [\n{steps}\n]}}\n'


@pytest.fixture(scope="module")
def iris_trace():
    ds = load_csv(str(DATA / "iris.csv"), "species", "versicolor")
    return run_on_dataset(ds, 3, 4, 1000, "float")


@pytest.fixture(scope="module")
def synthetic3_trace():
    ds = load_csv(str(DATA / "synthetic3.csv"), "label", "a")
    return run_on_dataset(ds, 1, 2, 400, "float")


class TestTraceRoundTrip:
    def test_exact_bytes_identical(self, pool3, tmp_path):
        trace = run(pool3, Optimal(), 12, "exact")
        path = tmp_path / "t.json"
        save_trace(trace, str(path), {"pool_path": "x.pool"})
        text = path.read_text()
        again = loads_trace(text)
        assert again == trace
        assert dumps_trace(again, {"pool_path": "x.pool"}) == text

    def test_float_bytes_identical(self, pool3, tmp_path):
        trace = run(pool3, FirstAbove(0.4), 40, "float")
        path = tmp_path / "t.json"
        save_trace(trace, str(path))
        again = load_trace(str(path))
        assert again == trace
        save_trace(again, str(tmp_path / "t2.json"))
        assert (tmp_path / "t2.json").read_bytes() == path.read_bytes()

    def test_exact_values_survive(self, pool3, tmp_path):
        trace = run(pool3, Optimal(), 20, "exact")
        path = tmp_path / "t.json"
        save_trace(trace, str(path))
        again = load_trace(str(path))
        assert again.steps[19].edge == Fraction(6765, 10946)
        assert isinstance(again.steps[0].weights_after[0], Fraction)

    def test_rules_and_halt_survive(self, pool3, tmp_path):
        for rule in (Optimal(), FirstAbove(Fraction(2, 5)), FixedSequence((0, 1, 2))):
            trace = run(pool3, rule, 5, "exact")
            path = tmp_path / "r.json"
            save_trace(trace, str(path))
            assert load_trace(str(path)).rule == rule

    def test_provenance_side_channel(self, pool3, tmp_path):
        trace = run(pool3, Optimal(), 3, "exact")
        path = tmp_path / "t.json"
        save_trace(trace, str(path), {"note": "hello"})
        assert json.loads(path.read_text())["provenance"] == {"note": "hello"}

    def test_dataset_trace_round_trip(self, tmp_path):
        from importlib import resources

        from boostcycles import load_csv, run_on_dataset

        csv_path = str(resources.files("boostcycles") / "data" / "synthetic3.csv")
        ds = load_csv(csv_path, "label", "a")
        trace = run_on_dataset(ds, 1, 2, 30, "float")
        path = tmp_path / "d.json"
        save_trace(trace, str(path), ds.provenance)
        again = load_trace(str(path))
        assert again == trace
        assert again.pool.origin == "learned"


class TestTraceErrors:
    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all {")
        with pytest.raises(TraceFormatError, match="JSON"):
            load_trace(str(path))

    def test_wrong_schema(self, pool3):
        doc = json.loads(dumps_trace(run(pool3, Optimal(), 2, "exact")))
        doc["schema"] = "something-else"
        with pytest.raises(TraceFormatError, match="schema"):
            loads_trace(json.dumps(doc))

    def test_not_an_object(self):
        with pytest.raises(TraceFormatError):
            loads_trace("[1, 2, 3]")

    def test_missing_field(self, pool3):
        doc = json.loads(dumps_trace(run(pool3, Optimal(), 2, "exact")))
        del doc["steps"]
        with pytest.raises(TraceFormatError, match="malformed"):
            loads_trace(json.dumps(doc))

    def test_unknown_mode(self, pool3):
        doc = json.loads(dumps_trace(run(pool3, Optimal(), 2, "exact")))
        doc["mode"] = "decimal"
        with pytest.raises(TraceFormatError, match="mode"):
            loads_trace(json.dumps(doc))

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("rule", "optimal", "rule is not a JSON object"),
            ("rule", ["optimal"], "rule is not a JSON object"),
            ("pool", {"rows": [1, 2]}, "pool row 1 is not a string"),
            ("pool", {"rows": "++-"}, "rows is not a JSON array"),
            ("pool", ["++-", "+-+"], "pool is not a JSON object"),
            ("initial_weights", "1/3", "initial_weights is not a JSON array"),
            ("initial_weights", {"1/3": 1}, "initial_weights is not a JSON array"),
            ("initial_weights", 1, "initial_weights is not a JSON array"),
        ],
    )
    def test_header_field_of_the_wrong_type(self, pool3, tmp_path, capsys, field, value, message):
        # a header field of the wrong JSON type is a malformed trace (exit 4),
        # never a traceback
        doc = json.loads(dumps_trace(run(pool3, Optimal(), 5, "exact")))
        doc[field] = value
        with pytest.raises(TraceFormatError, match=message):
            loads_trace(json.dumps(doc))
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", str(path)]) == 4
        assert message in capsys.readouterr().err


class TestFixedScheduleRows:
    @pytest.mark.parametrize(
        "rows, message",
        [
            ([1.5], "rule row 1.5 is not an integer"),
            ([True], "rule row True is not an integer"),
            ([10**30], f"rule row {10**30} outside pool of 3 rows"),
            ([-1], "rule row -1 outside pool of 3 rows"),
            ([0, 3], "rule row 3 outside pool of 3 rows"),
            ([], "rule rows is empty"),
            ("012", "rule rows '012' is not a JSON array"),
            (2, "rule rows 2 is not a JSON array"),
        ],
        ids=["fraction", "boolean", "huge", "negative", "past-the-pool", "empty", "string", "number"],
    )
    def test_bad_rows_exit_4(self, pool3, tmp_path, capsys, rows, message):
        # each was read as some other schedule, or as a traceback
        doc = json.loads(dumps_trace(run(pool3, FixedSequence((0, 1, 2)), 50, "float")))
        doc["rule"]["rows"] = rows
        with pytest.raises(TraceFormatError) as exc:
            loads_trace(json.dumps(doc))
        assert str(exc.value) == message
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", str(path)]) == 4
        assert message in capsys.readouterr().err


class TestHugeFractions:
    """Past the interpreter's 4300-digit limit on int-to-str conversion,
    exact numbers are written in hexadecimal; below it, in decimal."""

    def test_text_round_trip(self):
        big = 10**4400 + 1
        for value in (Fraction(3, 7), Fraction(5), Fraction(-2, 9), Fraction(big, 3),
                      Fraction(1, big), Fraction(-big), Fraction(10**4299, 7)):
            assert Fraction(*_parse_ratio(_ratio_text(value.numerator, value.denominator))) == value
        assert _ratio_text(10**4299, 7) == f"{10**4299}/7"  # 4300 digits: decimal
        assert _ratio_text(big, 3) == f"{big:#x}/0x3"
        assert _ratio_text(-big, 1) == f"{-big:#x}"

    @pytest.mark.parametrize("text", ["0x", "0x1/", "0xg/0x3", "0x1/0x0", "1/0"])
    def test_malformed_hex_edge(self, pool3, text):
        doc = json.loads(dumps_trace(run(pool3, Optimal(), 2, "exact")))
        doc["steps"][0]["r_exact"] = text
        with pytest.raises(TraceFormatError):
            loads_trace(json.dumps(doc))


class TestExactPointArithmetic:
    """The writer reduces each distinct numerator once, the reader scales
    each distinct (p, q) once and parses hexadecimal text with int alone;
    the results are those of one Fraction per value."""

    @pytest.mark.parametrize(
        "text", ["0x1/0x3", "0x2/0x6", "-0x4/0x6", "0x4/-0x6", "0x5", "0x5/", "0X5/0x7", " 0x5/0x7", "0x_5/0x7"]
    )
    def test_hex_pairs(self, text):
        p, q = _parse_ratio(text)
        assert q > 0 and Fraction(p, q) == hex_fraction(text)
        if text == "0x2/0x6":
            assert (p, q) == (2, 6)  # as written, no gcd

    @pytest.mark.parametrize("text", ["0x", "0xg/0x3", "0x1/0x", "0x1/0x0", "-0x3/0x0", "0x1/0x2/0x3"])
    def test_malformed_hex_raises_as_fraction(self, text):
        with pytest.raises((ValueError, ZeroDivisionError)) as caught:
            _parse_ratio(text)
        with pytest.raises(type(caught.value)) as expected:
            hex_fraction(text)
        assert str(caught.value) == str(expected.value)

    @pytest.mark.parametrize("text", ["1e-4300", "3E+04300", "-7e4300 ", "2.5e-0"])
    def test_exponents_within_the_digit_limit(self, text):
        assert Fraction(*_parse_ratio(text)) == Fraction(text)

    @pytest.mark.parametrize("text", ["1e-4301", "1E+04301", "-7e4301 ", "1e99999999999999999999"])
    def test_exponents_beyond_the_digit_limit_raise(self, text):
        with pytest.raises(ValueError, match=re.escape(f"{text!r} has an exponent beyond 4300 in magnitude")):
            _parse_ratio(text)

    def test_stored_point_is_canonical(self):
        rng = np.random.default_rng(3)
        for case in range(200):
            parts = rng.integers(1, 6, size=rng.integers(1, 12)).tolist()
            total = sum(parts)
            weights = [Fraction(v, total) for v in parts]
            texts = [
                [str(w), f"{2 * w.numerator}/{2 * w.denominator}", f"{w.numerator:#x}/{w.denominator:#x}"][rng.integers(3)]
                for w in weights
            ]
            d = math.lcm(*(w.denominator for w in weights))
            assert _stored_point(texts) == [d, *(int(w * d) for w in weights)], case
            assert _point_texts(_stored_point(texts)) == [str(w) for w in weights], case

    def test_stored_point_errors(self):
        with pytest.raises(ValueError, match="sum to 2/3"):
            _stored_point(["1/3", "1/3"])
        with pytest.raises(ValueError, match="strictly positive"):
            _stored_point(["0x0/0x1", "1"])
        with pytest.raises(ZeroDivisionError):
            _stored_point(["0x1/0x0"])


def infinite_edge(doc):
    doc["steps"][2]["r_exact"] = math.inf


def infinite_stored_weight(doc):
    doc["steps"][3]["weights"][0] = math.inf


def infinite_initial_weight(doc):
    doc["initial_weights"][0] = math.inf


def huge_threshold(doc):
    doc["rule"] = {"kind": "first_above", "theta": 10**400}


class TestOverflowingValues:
    """A JSON Infinity read as an exact value, or an int beyond a double read
    as a float, is a malformed trace (exit 4), not a traceback."""

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (infinite_edge, "step 2: edge inf is not a number (cannot convert Infinity to integer ratio)"),
            (infinite_stored_weight, "step 3: stored weights: cannot convert Infinity to integer ratio"),
            (infinite_initial_weight, "malformed trace: cannot convert Infinity to integer ratio"),
            (huge_threshold, "malformed trace: int too large to convert to float"),
        ],
        ids=["edge", "stored-weight", "initial-weight", "threshold"],
    )
    def test_exit_4(self, pool3, tmp_path, capsys, tamper, message):
        doc = json.loads(dumps_trace(run(pool3, Optimal(), 4, "exact")))
        tamper(doc)
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", str(path)]) == 4
        assert capsys.readouterr().err.strip().endswith(message)


def unreduced_text(text):
    """An exact value's `p/q` text with p and q doubled: `2p/2q`."""
    p, _, q = text.partition("/")
    return f"{2 * int(p)}/{2 * int(q or 1)}"


def hex_text(text):
    """An exact value's `p/q` text in hexadecimal."""
    p, _, q = text.partition("/")
    return f"{int(p):#x}/{int(q or 1):#x}"


class TestUnreducedValues:
    """The reader parses decimal edges without reducing them: a file whose
    edges (and stored weights) are not in lowest terms, or are hexadecimal,
    loads to the same trace, with reduced edges in its states column."""

    @pytest.mark.parametrize("rewrite", [unreduced_text, hex_text], ids=["doubled", "hex"])
    def test_loads_equal(self, pool3, rewrite):
        trace = run(pool3, Optimal(), 2 * CHECKPOINT_EVERY + 30, "exact")
        doc = json.loads(dumps_trace(trace))
        for rec in doc["steps"]:
            rec["r_exact"] = rewrite(rec["r_exact"])
            if "weights" in rec:
                rec["weights"] = [rewrite(c) for c in rec["weights"]]
        assert doc["steps"][0]["r_exact"] == {unreduced_text: "2/6", hex_text: "0x1/0x3"}[rewrite]
        again = loads_trace(json.dumps(doc))
        assert again == trace
        assert all(math.gcd(p, q) == 1 for p, q in again.states[:, :2].tolist())
        assert dumps_trace(again) == dumps_trace(trace)


def split_last_weight(w):
    """Widen an exact weight list by one and keep its sum at 1."""
    w[-1] = str(Fraction(w[-1]) / 2)
    w.append(w[-1])


def tamper_initial_width(doc):
    split_last_weight(doc["initial_weights"])


def tamper_row_range(doc):
    doc["steps"][1]["row"] = len(doc["pool"]["rows"])


def tamper_negative_row(doc):
    doc["steps"][1]["row"] = -1


def tamper_step_width(doc):
    split_last_weight(doc["steps"][1]["weights"])


class TestTraceConsistency:
    """Tampered documents that store the weights of every step."""

    @pytest.mark.parametrize(
        "tamper, message",
        [
            (tamper_initial_width, "initial_weights"),
            (tamper_row_range, "outside pool"),
            (tamper_negative_row, "outside pool"),
            (tamper_step_width, "weights have"),
        ],
    )
    def test_tampered_trace_rejected(self, pool3, tamper, message):
        doc = v2_trace_to_dict(run(pool3, Optimal(), 3, "exact"), every=1)
        tamper(doc)
        with pytest.raises(TraceFormatError, match=message):
            loads_trace(json.dumps(doc))

    @pytest.mark.parametrize(
        "mode, message",
        [
            ("float", "step 1: stored weights: float weights sum to 0.5, off by more than 1e-12"),
            ("exact", "step 1: stored weights: exact weights sum to 5/6, not 1"),
        ],
        ids=["float", "exact"],
    )
    def test_stored_weights_before_a_later_non_numeric_edge(self, pool3, mode, message):
        # the earliest failing step wins, whatever fails at a later one
        doc = v2_trace_to_dict(run(pool3, Optimal(), 4, mode), every=1)
        del doc["steps"][1]["weights"][2:]
        doc["steps"][2]["r_exact" if mode == "exact" else "r"] = "x"
        with pytest.raises(TraceFormatError) as info:
            loads_trace(json.dumps(doc))
        assert str(info.value) == message


class TestV2Layout:
    def test_checkpoints_and_fields(self, pool3):
        # a float run whose weights never repeat bit for bit: it is written as v2
        trace = run(pool3, FixedSequence((0, 1)), 2 * CHECKPOINT_EVERY + 7, "float")
        text = dumps_trace(trace)
        doc = json.loads(text)
        assert doc["schema"] == "boostcycles-trace-v2"
        steps = doc["steps"]
        with_weights = [t for t, rec in enumerate(steps) if "weights" in rec]
        assert with_weights == [CHECKPOINT_EVERY - 1, 2 * CHECKPOINT_EVERY - 1, len(steps) - 1]
        assert {key for rec in steps for key in rec} == {"row", "r", "weights"}
        # one step record per line after the header
        assert len(text.splitlines()) == len(steps) + 2

    def test_exact_steps_store_only_the_exact_edge(self, pool3):
        doc = json.loads(dumps_trace(run(pool3, Optimal(), 3, "exact")))
        assert doc["steps"][0] == {"row": 0, "r_exact": "1/3"}
        assert doc["steps"][-1]["weights"] == ["1/5", "3/10", "1/2"]

    def test_no_steps(self, pool3, lattice_states):
        columns = np.empty(0), lattice_states(np.empty((0, 4)))
        empty = BoostTrace("exact", pool3, Optimal(), uniform_weights(3, "exact"), *columns, "weak_learning_failure")
        assert loads_trace(dumps_trace(empty)) == empty


class TestRoundTripCorpora:
    def test_fuzz_exact_traces(self, fuzz_exact_traces):
        for trace in fuzz_exact_traces:
            text = dumps_trace(trace)
            again = loads_trace(text)
            assert again == trace
            assert dumps_trace(again) == text

    def test_fuzz_float_cycles(self, fuzz_float_cycles):
        for trace, _ in fuzz_float_cycles:
            assert loads_trace(dumps_trace(trace)) == trace

    def test_iris(self, iris_trace):
        assert len(iris_trace) == 1000
        assert loads_trace(dumps_trace(iris_trace)) == iris_trace

    def test_synthetic3(self, synthetic3_trace):
        assert len(synthetic3_trace) == 400
        assert loads_trace(dumps_trace(synthetic3_trace)) == synthetic3_trace


def v1_document(trace):
    """The trace as a boostcycles-trace-v1 document: every step stores t,
    row, eta, r (and r_exact in exact mode), alpha and its weights."""
    doc = v2_trace_to_dict(trace, every=1)
    doc["schema"] = "boostcycles-trace-v1"
    for t, (rec, s) in enumerate(zip(doc["steps"], trace.steps)):
        rec.update(t=t, eta=s.eta.to_string(), r=float(s.edge), alpha=s.alpha)
    return doc


class TestV1Reader:
    """v1 documents are not read. Their layout, the weights of every step,
    is still read in v2 documents: the float replay takes a checkpoint on
    any step."""

    def test_v1_document_unsupported(self, pool3, tmp_path, capsys):
        for mode in ("exact", "float"):
            doc = v1_document(run(pool3, Optimal(), 30, mode))
            with pytest.raises(TraceFormatError) as info:
                loads_trace(json.dumps(doc))
            assert str(info.value) == "unsupported schema 'boostcycles-trace-v1'"
            path = tmp_path / f"{mode}.json"
            path.write_text(json.dumps(doc))
            assert main(["analyze", str(path)]) == 4
            assert capsys.readouterr().err.strip().endswith("unsupported schema 'boostcycles-trace-v1'")

    def test_exact_and_float_runs(self, pool3):
        for rule in (Optimal(), FirstAbove(Fraction(2, 5)), FixedSequence((0, 1, 2))):
            for mode in ("exact", "float"):
                trace = run(pool3, rule, 150, mode)
                assert loads_trace(v2_dumps_trace(trace, every=1)) == trace

    def test_fuzz_exact_traces(self, fuzz_exact_traces):
        for trace in fuzz_exact_traces[:200]:
            assert loads_trace(v2_dumps_trace(trace, every=1)) == trace

    def test_dataset_runs(self, iris_trace, synthetic3_trace):
        assert loads_trace(v2_dumps_trace(iris_trace, every=1)) == iris_trace
        assert loads_trace(v2_dumps_trace(synthetic3_trace, every=1)) == synthetic3_trace

    def test_v1_rewritten_as_v2(self, pool3):
        # the v1 layout, every step's weights, is written again with checkpoints
        trace = run(pool3, Optimal(), 30, "exact")
        assert dumps_trace(loads_trace(v2_dumps_trace(trace, every=1))) == dumps_trace(trace)


def float_edge_off(doc):
    doc["steps"][5]["r"] += 1e-9


def exact_edge_changed(doc):
    doc["steps"][5]["r_exact"] = str(Fraction(doc["steps"][5]["r_exact"]) + Fraction(1, 10**6))


def checkpoint_weight_changed(doc):
    # move mass between two components: the sum stays 1, the replay differs
    w = doc["steps"][CHECKPOINT_EVERY - 1]["weights"]
    if doc["mode"] == "exact":
        delta = Fraction(w[0]) / 1000
        w[0], w[1] = str(Fraction(w[0]) - delta), str(Fraction(w[1]) + delta)
    else:
        delta = w[0] / 1000
        w[0], w[1] = w[0] - delta, w[1] + delta


def row_swapped(doc):
    rec = doc["steps"][5]
    rec["row"] = (rec["row"] + 1) % len(doc["pool"]["rows"])


def last_weights_removed(doc):
    del doc["steps"][-1]["weights"]


def step_deleted(doc):
    del doc["steps"][5]


V2_TAMPERS = [
    ("float", float_edge_off, "is not the edge of row"),
    ("exact", exact_edge_changed, "is not the edge of row"),
    ("exact", checkpoint_weight_changed, "do not match the replayed update"),
    ("float", checkpoint_weight_changed, "do not match the replayed update"),
    ("exact", row_swapped, "is not the edge of row"),
    ("float", row_swapped, "is not the edge of row"),
    ("exact", last_weights_removed, "no weights checkpoint"),
    ("exact", step_deleted, "is not the edge of row"),
    ("float", step_deleted, "is not the edge of row"),
]


class TestReplayVerification:
    @pytest.fixture(scope="class")
    def docs(self, pool3):
        return {
            mode: v2_dumps_trace(run(pool3, Optimal(), CHECKPOINT_EVERY + 20, mode))
            for mode in ("exact", "float")
        }

    @pytest.mark.parametrize(
        "mode, tamper, message", V2_TAMPERS, ids=[f"{m}-{f.__name__}" for m, f, _ in V2_TAMPERS]
    )
    def test_tampered_v2_rejected(self, docs, tmp_path, mode, tamper, message):
        doc = json.loads(docs[mode])
        tamper(doc)
        text = json.dumps(doc)
        with pytest.raises(TraceFormatError, match=message):
            loads_trace(text)
        path = tmp_path / "tampered.json"
        path.write_text(text)
        assert main(["analyze", str(path)]) == 4

    @pytest.mark.parametrize("tamper", [tamper_step_width, tamper_row_range])
    def test_tampered_v1_exits_4(self, pool3, tmp_path, tamper):
        # a document in the v1 layout: every step stores its weights
        doc = v2_trace_to_dict(run(pool3, Optimal(), 3, "exact"), every=1)
        tamper(doc)
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(doc))
        assert main(["analyze", str(path)]) == 4

    def test_float_edge_within_rounding_accepted(self, pool3):
        # an edge summed in another order differs in its last bits only
        trace = run(pool3, Optimal(), 20, "float")
        doc = json.loads(dumps_trace(trace))
        doc["steps"][5]["r"] = math.nextafter(doc["steps"][5]["r"], 1.0)
        assert loads_trace(json.dumps(doc)).steps[5].edge == doc["steps"][5]["r"]

    def test_replay_continues_from_stored_checkpoint(self, pool3):
        # a checkpoint written by a Python that sums in another order may
        # differ from this replay in its last bits; it loads as stored
        trace = run(pool3, Optimal(), CHECKPOINT_EVERY + 20, "float")
        doc = v2_trace_to_dict(trace)
        w = doc["steps"][CHECKPOINT_EVERY - 1]["weights"]
        w[0] = math.nextafter(w[0], 1.0)
        w[1] = math.nextafter(w[1], 0.0)
        again = loads_trace(json.dumps(doc))
        assert list(again.steps[CHECKPOINT_EVERY - 1].weights_after) == w
        assert again.steps[CHECKPOINT_EVERY - 2] == trace.steps[CHECKPOINT_EVERY - 2]

    @pytest.mark.parametrize("steps", [(255,), (256,), (300, 500), (599,)])
    def test_edge_failure_past_the_first_block(self, pool3, steps):
        # the edges are checked block by block; the earliest failure is named
        doc = v2_trace_to_dict(run(pool3, Optimal(), 600, "float"))
        for t in steps:
            doc["steps"][t]["r"] += 1e-9
        with pytest.raises(TraceFormatError, match=f"^step {steps[0]}: edge .* is not the edge of row"):
            loads_trace(json.dumps(doc))

    @pytest.mark.parametrize(
        "moved, edge, first",
        [
            ((99, 299), 150, "step 99: stored weights do not match"),
            ((299, 499), 350, "step 299: stored weights do not match"),
            ((299, 499), 250, "step 250: edge .* is not the edge of row"),
        ],
    )
    def test_earliest_of_checkpoints_and_edges(self, pool3, moved, edge, first):
        # two checkpoints in different segments fail, and an edge in a
        # segment between or before them: the earliest failing step is named
        doc = v2_trace_to_dict(run(pool3, Optimal(), 600, "float"))
        for t in moved:
            w = doc["steps"][t]["weights"]
            delta = w[0] / 1000
            w[0], w[1] = w[0] - delta, w[1] + delta
        doc["steps"][edge]["r"] += 1e-9
        with pytest.raises(TraceFormatError, match=f"^{first}"):
            loads_trace(json.dumps(doc))

    @staticmethod
    def replay_memory(doc, trace):
        """(kept, transient) bytes of loading doc, which must give trace."""
        tracemalloc.start()
        try:
            loaded = trace_from_dict(doc)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert loaded == trace
        return kept, peak - kept

    def test_float_replay_memory(self):
        # a long v2 float trace of 64 points: the edge check's temporaries
        # stay a block's, not three (steps x points) arrays
        trace = run(wide_pool(0), Optimal(), 5000, "float")
        doc = json.loads(dumps_trace(trace))
        assert doc["schema"] == "boostcycles-trace-v2" and trace.halt is None and len(trace) == 5000
        kept, transient = self.replay_memory(doc, trace)
        assert kept > 2.5e6  # the states column alone is 2.6 MB
        assert transient < 1.5e6

    def test_float_replay_memory_every_10(self):
        # a checkpoint every 10 steps: the replay advances 500 segments at
        # once, and its transient stays below the states column's size
        trace = run(wide_pool(0), Optimal(), 5000, "float")
        doc = json.loads(json.dumps(v2_trace_to_dict(trace, every=10)))
        kept, transient = self.replay_memory(doc, trace)
        assert kept > 2.5e6
        assert transient < trace.states.nbytes == 2.6e6

    def test_float_replay_memory_every_1(self):
        # every step's weights stored: 5000 one-step segments. The stored
        # weights (an array each), the segments' start weights and one block
        # of update factors are each about the states column's size; the
        # checkpoint compare's temporaries are a block's, not (steps x points)
        trace = run(wide_pool(0), Optimal(), 5000, "float")
        doc = json.loads(json.dumps(v2_trace_to_dict(trace, every=1)))
        kept, transient = self.replay_memory(doc, trace)
        assert kept > 2.5e6
        assert transient < 5 * trace.states.nbytes

    def test_edge_outside_unit_interval(self, pool3):
        doc = json.loads(dumps_trace(run(pool3, Optimal(), 3, "exact")))
        doc["steps"][1]["r_exact"] = "1"
        with pytest.raises(TraceFormatError, match=r"outside \(0, 1\)"):
            loads_trace(json.dumps(doc))


def replay_run(name):
    """The wide run or the 3-point run, of 300 float steps."""
    pool = wide_pool(0) if name == "wide" else load_pool(str(DATA / "three_dichotomies.pool"))
    return run(pool, Optimal(), 300, "float")


class TestReplayBlocks:
    """The float replay forms its update factors a block of (segment,
    offset) pairs at a time; every layout of checkpoints must load to the
    run's own columns, bit for bit. With 300 steps, a checkpoint every step
    gives 300 one-step segments, more than STEP_BLOCK, so each block holds
    one offset. Every 7 steps gives 43 segments, five offsets to a block,
    and the last, shorter segment ends at offset 5, inside the second
    block; random checkpoints give segments of uneven lengths."""

    @pytest.mark.parametrize("every", [1, 7, 100])
    @pytest.mark.parametrize("name", ["wide", "pool3"])
    def test_every(self, name, every):
        trace = replay_run(name)
        doc = v2_trace_to_dict(trace, every=every)
        loaded = loads_trace(json.dumps(doc))
        assert loaded == trace and loaded.states.tobytes() == trace.states.tobytes()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("name", ["wide", "pool3"])
    def test_random_checkpoints(self, name, seed):
        # checkpoints at seeded random steps
        trace = replay_run(name)
        doc = v2_trace_to_dict(trace, every=len(trace) + 1)  # the last step's only
        rng = np.random.default_rng(seed)
        for t in rng.choice(len(trace) - 1, size=rng.integers(1, 40), replace=False).tolist():
            doc["steps"][t]["weights"] = trace.states[t, 1:].tolist()
        loaded = loads_trace(json.dumps(doc))
        assert loaded == trace and loaded.states.tobytes() == trace.states.tobytes()

    def test_v3(self, pool3):
        trace = run(pool3, Optimal(), 5000, "float")
        text = dumps_trace(trace)
        assert json.loads(text)["schema"] == "boostcycles-trace-v3"
        loaded = loads_trace(text)
        assert loaded == trace and loaded.states.tobytes() == trace.states.tobytes()


class TestPoolFiles:
    def test_round_trip(self, pool3, tmp_path):
        path = tmp_path / "p.pool"
        path.write_text("".join(row.to_string() + "\n" for row in pool3.rows))
        assert path.read_text() == "-++\n+-+\n++-\n"
        assert load_pool(str(path)) == pool3

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "p.pool"
        path.write_text("# three rows\n\n-++\n+-+\n\n++-\n")
        assert len(load_pool(str(path))) == 3

    def test_bad_character(self, tmp_path):
        path = tmp_path / "p.pool"
        path.write_text("-+x\n")
        with pytest.raises(TraceFormatError, match="p.pool:1"):
            load_pool(str(path))

    def test_unequal_row_lengths(self, tmp_path):
        path = tmp_path / "p.pool"
        path.write_text("-++\n+-\n")
        with pytest.raises(TraceFormatError, match="p.pool:2"):
            load_pool(str(path))

    def test_empty_pool_file(self, tmp_path):
        path = tmp_path / "p.pool"
        path.write_text("# nothing\n")
        with pytest.raises(TraceFormatError, match="no dichotomies"):
            load_pool(str(path))
