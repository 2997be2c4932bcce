import json
from fractions import Fraction

import pytest

from boostcycles import FirstAbove, FixedSequence, Optimal, run
from boostcycles.traceio import (
    TraceFormatError,
    dumps_trace,
    load_pool,
    load_trace,
    loads_trace,
    save_pool,
    save_trace,
    trace_provenance,
)


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
        assert trace_provenance(str(path)) == {"note": "hello"}

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


def tamper_eta(doc):
    doc["steps"][1]["eta"] = doc["pool"]["rows"][0]


def tamper_step_width(doc):
    split_last_weight(doc["steps"][1]["weights"])


class TestTraceConsistency:
    @pytest.mark.parametrize(
        "tamper, message",
        [
            (tamper_initial_width, "initial_weights"),
            (tamper_row_range, "outside pool"),
            (tamper_negative_row, "outside pool"),
            (tamper_eta, "is not pool row"),
            (tamper_step_width, "weights have"),
        ],
    )
    def test_tampered_trace_rejected(self, pool3, tamper, message):
        doc = json.loads(dumps_trace(run(pool3, Optimal(), 3, "exact")))
        tamper(doc)
        with pytest.raises(TraceFormatError, match=message):
            loads_trace(json.dumps(doc))


class TestPoolFiles:
    def test_round_trip(self, pool3, tmp_path):
        path = tmp_path / "p.pool"
        save_pool(pool3, str(path))
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
