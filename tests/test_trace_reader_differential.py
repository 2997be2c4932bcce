"""The trace reader's one pass over the step records, tested against the
reader it replaced: kind-by-kind scans over the records that emulated, one
check at a time, the order of a per-step reader. On a seeded corpus of
tampered v1 and v2 documents both must give the same TraceFormatError
message, or equal traces, except where the old scans reached a later step's
non-numeric field before an earlier step's stored weights."""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from importlib import resources
from itertools import compress, count, repeat
from typing import Dict, List, Optional, Tuple

import numpy as np
import pytest

from boostcycles import Optimal, load_csv, run, run_on_dataset, traceio
from boostcycles.engine import alpha
from boostcycles.simplex import HypothesisPool, WeightVector
from boostcycles.traceio import (
    ALPHA_REL_TOL,
    TraceFormatError,
    _is_digits,
    _is_double,
    _stored_point,
    dumps_trace,
    loads_trace,
)
from test_engine import wide_pool
from test_traceio import v1_trace_to_dict, v2_trace_to_dict


def _parse_ratio(value) -> Tuple[int, int]:
    """The replaced reader's exact parse, as it was: the reduced pair (p, q),
    q > 0, of the value Fraction would read. A plain decimal `p/q` or `p` is
    parsed by int and one gcd; anything else is left to Fraction, which also
    raises the errors of malformed text."""
    if type(value) is str:
        numerator, slash, denominator = value.partition("/")
        if _is_digits(numerator[1:] if numerator[:1] == "-" else numerator) and (
            not slash or _is_digits(denominator) and denominator.strip("0")
        ):
            p, q = int(numerator), int(denominator) if slash else 1
            g = math.gcd(p, q)
            return p // g, q // g
        value = Fraction(*traceio._parse_ratio(value))
    else:
        value = Fraction(value)
    return value.numerator, value.denominator


def _float(value) -> float:
    """The replaced reader's float parse, as it was: a JSON number that
    converts to a double."""
    if not _is_double(value):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


class _FirstFailure:
    """The first failure found in the step records, read on their own.

    `limit` is the number of leading steps whose records passed every check
    made on the record alone; `error` is the failure at step `limit` (None
    if there is none), and `at_checkpoint` says that it lies in the step's
    stored weights, which are read after its edge and update are checked.
    """

    def __init__(self, steps: int) -> None:
        self.limit = steps
        self.error: Optional[TraceFormatError] = None
        self.at_checkpoint = False

    def fail(self, t: int, message: str, at_checkpoint: bool = False) -> None:
        """Note a failure at step t < limit: each check reads only the steps
        before the first failure so far."""
        self.limit, self.error, self.at_checkpoint = t, TraceFormatError(message), at_checkpoint


def _first(values, ok) -> Optional[int]:
    """The index of the first value failing ok, or None."""
    return next((t for t, v in enumerate(values) if not ok(v)), None)


def _field(records: List[dict], key: str) -> List:
    """Each record's value at key, None where it has none."""
    return list(map(dict.get, records, repeat(key)))


def scanning_read_steps(
    records: List, pool: HypothesisPool, mode: str, found: _FirstFailure
) -> Tuple[np.ndarray, np.ndarray, Dict[int, np.ndarray]]:
    """The replaced reader, as it was: one scan per kind of check, each
    reading only the steps before the first failure so far."""
    exact = mode == "exact"
    n = pool.n_points
    if not set(map(type, records)) <= {dict}:
        t = _first(records, lambda rec: type(rec) is dict)
        found.fail(t, f"step {t}: not a JSON object")
    records = records[: found.limit]
    keys = set().union(*records)

    if "t" in keys:
        t = _first(enumerate(records), lambda item: item[1].get("t", item[0]) == item[0])
        if t is not None:
            found.fail(t, f"step {t}: recorded t is {records[t]['t']!r}")

    rows = _field(records[: found.limit], "row")
    if not (set(map(type, rows)) <= {int} and (not rows or 0 <= min(rows) and max(rows) < len(pool))):
        t = _first(rows, lambda row: type(row) is int and 0 <= row < len(pool))
        row = rows[t]
        if type(row) is int:
            found.fail(t, f"step {t}: row {row} outside pool of {len(pool)} rows")
        else:
            found.fail(t, f"step {t}: row {row!r} is not an integer")

    if "eta" in keys:
        strings = [r.to_string() for r in pool.rows]
        t = _first(
            zip(records[: found.limit], rows), lambda item: item[0].get("eta", strings[item[1]]) == strings[item[1]]
        )
        if t is not None:
            found.fail(t, f"step {t}: eta {records[t]['eta']!r} is not pool row {rows[t]}")

    key = "r_exact" if exact else "r"
    raw = _field(records[: found.limit], key)
    if exact:
        edges = []
        for t, value in enumerate(raw):
            try:
                edges.append(_parse_ratio(value))
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                found.fail(t, f"step {t}: edge {value!r} is not a number ({exc})")
                break
        t = _first(edges, lambda edge: 0 < edge[0] < edge[1])
        if t is not None:
            found.fail(t, f"step {t}: edge {Fraction(*edges[t])} outside (0, 1)")
        edge_column = np.array(edges, dtype=object).reshape(len(edges), 2)
    else:
        t = None if set(map(type, raw)) <= {float} else _first(raw, _is_double)
        if t is not None:
            found.fail(t, f"step {t}: edge {raw[t]!r} is not a number")
        edge_column = np.array(raw[: found.limit], dtype=np.float64)
        outside = np.flatnonzero(~((edge_column > 0) & (edge_column < 1)))
        if outside.size:
            t = int(outside[0])
            found.fail(t, f"step {t}: edge {edge_column[t]} outside (0, 1)")

    if "alpha" in keys:
        for t, rec in enumerate(records[: found.limit]):
            if "alpha" in rec:
                a = alpha(Fraction(*edge_column[t]) if exact else edge_column[t])
                if abs(float(rec["alpha"]) - a) > ALPHA_REL_TOL * a:
                    found.fail(t, f"step {t}: alpha {rec['alpha']!r} is not alpha(r) = {a!r}")
                    break

    checkpoints: Dict[int, np.ndarray] = {}
    for t in compress(count(), map(dict.__contains__, records[: found.limit], repeat("weights"))):
        try:
            if exact:
                stored = _stored_point(records[t]["weights"])
            else:
                stored = WeightVector(tuple(map(_float, records[t]["weights"]))).as_array()
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            found.fail(t, f"step {t}: stored weights: {exc}", at_checkpoint=True)
            break
        components = len(stored) - 1 if exact else len(stored)
        if components != n:
            found.fail(t, f"step {t}: weights have {components} components, pool rows {n}", at_checkpoint=True)
            break
        checkpoints[t] = stored

    stop = found.limit + found.at_checkpoint
    return np.array(rows[:stop], dtype=np.int64), edge_column[:stop], checkpoints


def reference_read_steps(records, pool, mode):
    """The replaced reader behind the new reader's signature; the loader
    around it (header checks, the replay, which failure wins) is the same."""
    found = _FirstFailure(len(records))
    return (*scanning_read_steps(records, pool, mode, found), found.error)


def outcome(text: str) -> Tuple[str, str]:
    """What loading the text gives: the exception's type and message, or
    the loaded trace written out again."""
    try:
        trace = loads_trace(text)
    except Exception as exc:  # noqa: BLE001 - the outcome is compared, whatever it is
        return type(exc).__name__, str(exc)
    return "trace", dumps_trace(trace)


def reference_outcome(text: str) -> Tuple[str, str]:
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(traceio, "_read_steps", reference_read_steps)
        return outcome(text)


# --- tampers: each changes step t of a document, drawing from rng ---------


def edge_key(doc) -> str:
    return "r_exact" if doc["mode"] == "exact" else "r"


def non_object(doc, t, rng):
    rec = doc["steps"][t]
    doc["steps"][t] = rng.choice([[], "row", 3, None, [rec["row"]], list(rec)])


def wrong_t(doc, t, rng):
    doc["steps"][t]["t"] = rng.choice([t + 1, t - 1, str(t), None, t + 0.5])


def row_not_int(doc, t, rng):
    rec = doc["steps"][t]
    choice = rng.randrange(5)
    if choice == 4:
        del rec["row"]
    else:
        rec["row"] = [str(rec["row"]), float(rec["row"]), True, None][choice]


def row_outside(doc, t, rng):
    doc["steps"][t]["row"] = rng.choice([-1, len(doc["pool"]["rows"]), 10**30])


def wrong_eta(doc, t, rng):
    rec, rows = doc["steps"][t], doc["pool"]["rows"]
    rec["eta"] = rng.choice([r for r in rows if r != rows[rec["row"]]] + ["", 1])


def edge_not_number(doc, t, rng):
    key = edge_key(doc)
    choice = rng.randrange(7)
    if choice == 6:
        del doc["steps"][t][key]
    else:
        doc["steps"][t][key] = ["x", None, [0.5], {}, "1/2/3", True][choice]


def edge_out_of_range(doc, t, rng):
    if doc["mode"] == "exact":
        value = rng.choice(["0", "1", "-1/3", "3/2", 2, "7", 0.0, 1.5])
    else:
        value = rng.choice([0.0, 1.0, -0.25, 1.5, 2, -0.0, 1e300, 10**400, float("inf")])
    doc["steps"][t][edge_key(doc)] = value


def edge_hexadecimal(doc, t, rng):
    key = edge_key(doc)
    value = Fraction(doc["steps"][t][key])
    p, q = value.numerator, value.denominator
    doc["steps"][t][key] = rng.choice(
        [f"{p:#x}/{q:#x}", f"{q:#x}/{p:#x}", "0xzz/0x3", f"{p:#x}", "0x1p-1", f"{-p:#x}/{q:#x}"]
    )


def edge_zero_denominator(doc, t, rng):
    doc["steps"][t][edge_key(doc)] = rng.choice(["1/0", "0/0", "0x1/0x0", "3/00"])


def edge_nan(doc, t, rng):
    doc["steps"][t][edge_key(doc)] = float("nan")


def edge_off(doc, t, rng):
    # a number in (0, 1) that is not the edge: the replay rejects it
    key = edge_key(doc)
    if doc["mode"] == "exact":
        value = Fraction(doc["steps"][t][key])
        doc["steps"][t][key] = str(value * (1 - Fraction(1, rng.randint(10, 10**6))))
    else:
        doc["steps"][t][key] = rng.choice([doc["steps"][t][key] * (1 + 1e-6), 5e-324, 0.5])


def row_swapped(doc, t, rng):
    rec = doc["steps"][t]
    rec["row"] = (rec["row"] + rng.randint(1, len(doc["pool"]["rows"]) - 1)) % len(doc["pool"]["rows"])


def alpha_mismatch(doc, t, rng):
    rec = doc["steps"][t]
    rec["alpha"] = rec.get("alpha", 0.5) * rng.choice([1.001, 0.999, -1, 0])


def alpha_not_number(doc, t, rng):
    doc["steps"][t]["alpha"] = rng.choice(["x", None, [1.0]])


def weights_short(doc, t, rng):
    w = doc["steps"][t]["weights"]
    del w[rng.randrange(len(w)) :]


def weights_non_positive(doc, t, rng):
    w = doc["steps"][t]["weights"]
    i = rng.randrange(len(w))
    if doc["mode"] == "exact":
        w[i] = rng.choice(["0", f"-{w[i]}"])
    else:
        w[i] = rng.choice([0.0, -w[i], float("nan")])


def weights_widened(doc, t, rng):
    w = doc["steps"][t]["weights"]
    if doc["mode"] == "exact":
        w[-1] = str(Fraction(w[-1]) / 2)
    else:
        w[-1] /= 2
    w.append(w[-1])


def weights_moved(doc, t, rng):
    # mass moved between two components: the sum stays 1, the replay differs
    w = doc["steps"][t]["weights"]
    if doc["mode"] == "exact":
        delta = Fraction(w[0]) / rng.randint(2, 1000)
        w[0], w[1] = str(Fraction(w[0]) - delta), str(Fraction(w[1]) + delta)
    else:
        delta = w[0] / rng.randint(2, 1000)
        w[0], w[1] = w[0] - delta, w[1] + delta


# stored weights that fail the checks of the record alone
BAD_WEIGHTS = (weights_short, weights_non_positive, weights_widened)
# tampers of stored weights, drawn among the steps that store them
AT_CHECKPOINTS = BAD_WEIGHTS + (weights_moved,)
TAMPERS = (
    non_object, wrong_t, row_not_int, row_outside, wrong_eta, edge_not_number, edge_out_of_range,
    edge_hexadecimal, edge_zero_denominator, edge_nan, edge_off, row_swapped, alpha_mismatch, alpha_not_number,
) + AT_CHECKPOINTS
# a non-numeric alpha raises out of the replaced reader's alpha scan, which
# ran before its scan of every step's stored weights
RAISING = (alpha_not_number,)


def tampered_documents(doc, rng, singles: int, pairs: int):
    """(tampers as (step, function), text) for the document as it is, then
    for copies with one or two tampered steps, and for one whose last step
    lost its weights."""
    steps = len(doc["steps"])
    with_weights = [t for t, rec in enumerate(doc["steps"]) if "weights" in rec]

    def draw():
        tamper = rng.choice(TAMPERS)
        return rng.choice(with_weights) if tamper in AT_CHECKPOINTS else rng.randrange(steps), tamper

    plans = [[]] + [[draw()] for _ in range(singles)]
    while len(plans) < 1 + singles + pairs:
        first, second = draw(), draw()
        if first[0] != second[0]:
            plans.append([first, second])
    for plan in plans:
        copy = json.loads(json.dumps(doc))
        for t, tamper in plan:
            tamper(copy, t, rng)
        yield plan, json.dumps(copy)
    copy = json.loads(json.dumps(doc))
    del copy["steps"][-1]["weights"]
    yield [(steps - 1, "last_weights_removed")], json.dumps(copy)


def reads_earlier_weights(plan) -> bool:
    """The one case where the readers differ: stored weights that fail at
    one step and a raising field at a later one."""
    return any(f in BAD_WEIGHTS and g in RAISING and u > t for t, f in plan for u, g in plan)


def base_documents() -> Dict[str, dict]:
    pool3 = HypothesisPool.from_signs([(-1, 1, 1), (1, -1, 1), (1, 1, -1)])
    iris = load_csv(str(resources.files("boostcycles") / "data" / "iris.csv"), "species", "versicolor")
    traces = {
        "pool3-float": run(pool3, Optimal(), 250, "float"),
        "pool3-exact": run(pool3, Optimal(), 40, "exact"),
        "wide-float": run(wide_pool(0, n_points=16, n_pairs=20), Optimal(), 230, "float"),
        "wide-exact": run(wide_pool(0, n_points=16, n_pairs=20), Optimal(), 8, "exact"),
        "iris-float": run_on_dataset(iris, 3, 4, 220, "float"),
        "iris-exact": run_on_dataset(iris, 3, 4, 4, "exact"),
    }
    docs = {}
    for name, trace in traces.items():
        docs[f"{name}-v2"] = v2_trace_to_dict(trace)
        # every v1 step stores its weights: a prefix is a v1 document too
        docs[f"{name}-v1"] = v1_trace_to_dict(trace)
        del docs[f"{name}-v1"]["steps"][60:]
    # the 3-point float run repeats bit for bit: its own layout stores 42 steps
    docs["pool3-float-v3"] = json.loads(dumps_trace(traces["pool3-float"]))
    assert docs["pool3-float-v3"]["schema"] == "boostcycles-trace-v3"
    return docs


SINGLES, PAIRS = 30, 25
# a fragment of each message the corpus must reach
MESSAGES = (
    "not a JSON object", "recorded t", "is not an integer", "outside pool", "is not pool row", "is not a number",
    "outside (0, 1)", "is not alpha(r)", "stored weights: ", "weights have", "is not the edge of row",
    "do not match the replayed update", "no weights checkpoint", "malformed trace: ",
)


@pytest.fixture(scope="module")
def documents():
    return base_documents()


class TestOnePassMatchesScans:
    def test_tampered_corpus(self, documents):
        rng = random.Random(20261019)
        same = differ = 0
        messages = set()
        for name, doc in sorted(documents.items()):
            for plan, text in tampered_documents(doc, rng, SINGLES, PAIRS):
                got, expected = outcome(text), reference_outcome(text)
                messages.update(kind for kind in MESSAGES if kind in got[1])
                if not plan:
                    assert got[0] == "trace", name
                if not reads_earlier_weights(plan):
                    assert got == expected, (name, plan)
                    same += 1
                    continue
                # the earliest failing step wins: the weights, not the later field
                ((t, _),) = [(t, f) for t, f in plan if f in BAD_WEIGHTS]
                assert got[0] == "TraceFormatError" and got[1].startswith(f"step {t}: "), (name, plan, got)
                assert "weights" in got[1] and expected[1].startswith("malformed trace: "), (name, plan)
                differ += 1
        assert same + differ == len(documents) * (SINGLES + PAIRS + 2)
        assert differ > 0
        assert messages == set(MESSAGES)
