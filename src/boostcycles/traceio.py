"""Trace and pool file formats.

Traces are schema-versioned JSON documents that round-trip losslessly:
exact scalars are stored as `p/q` strings, floats as JSON numbers (whose
shortest-repr encoding is exact). A `p/q` whose decimal form would pass the
interpreter's int-to-string digit limit (4300 digits by default) is written
in hexadecimal, `0x.../0x...`. Pools are plain text, one dichotomy per
line over the alphabet {+, -}.

A `boostcycles-trace-v2` document stores the run, not its every state. The
header holds the schema, mode, rule, pool, provenance, initial weights and
halt reason; `steps` holds one record per iteration, one per line: the chosen
`row` and its edge (`r` in float mode, the `p/q` string `r_exact` in exact
mode). The weight vector after a step is stored only at checkpoints, every
CHECKPOINT_EVERY steps and always on the last step. Everything else follows
from the update rule: the dichotomy is `pool[row]`, alpha is `alpha(r)`, and
the weights are rebuilt on load by replaying w_i -> w_i / (1 + eta_i r) from
the initial weights.

The replay is also the check. In float mode every recorded edge must be the
edge of its row on the replayed weights, and every checkpoint must match the
replay, within the rounding bounds argued in `_replay_drift`. In exact mode a
wrong edge shows as replayed weights that do not sum to 1 (the update
preserves the sum exactly when, and only when, r is the edge), and a
checkpoint must equal the replay. After a checkpoint the replay continues
from the stored values. A `boostcycles-trace-v1` document, which stores the
weights, `t`, `eta` and `alpha` of every step, is read by the same replay as
a v2 document with a checkpoint on every step; its extra fields are checked.

Exact values never pass through `Fraction` on the way in or out. The reader
parses each `p/q` straight to a reduced pair of ints, turns stored weights
into lattice points (integer numerators over their least common
denominator), and replays with the engine's integer kernel; the writer
reduces a lattice point's numerators to `p/q` text only at checkpoints. A
Fraction is built only for the message of a failing value, so the messages
are those of the Fraction values the file holds.

The writer reads the trace's columns, and the reader builds them. Reading
takes two passes over the steps. The first reads the records into columns
and checks each record on its own: its fields' types (a row is an int, a
float edge a JSON number), its row, its edge's range and the v1 fields.
The second is the replay. Since a replay restarts at every checkpoint, the
steps fall into segments, each starting at the initial or at stored
weights, and `_replay` advances all segments together, one step offset at a
time, with the engine's update kernel on a (segments x points) array. A bad
file fails with the message of its earliest failing step, in the order in
which the per-step reader it replaces checked a step: the record's fields,
then the edge and the update, then the stored weights.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from fractions import Fraction
from itertools import compress, count, repeat
from typing import Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from .engine import (
    SCREEN_MARGIN,
    HALTS,
    BoostTrace,
    FirstAbove,
    FixedSequence,
    Optimal,
    SelectionRule,
    _lattice_point,
    _lattice_update,
    _update,
    alpha,
)
from .simplex import HypothesisPool, MistakeDichotomy, Scalar, WeightVector, _signed_sums

TRACE_SCHEMA = "boostcycles-trace-v2"
READABLE_SCHEMAS = ("boostcycles-trace-v1", TRACE_SCHEMA)

# Steps between stored weight vectors. Each checkpoint bounds again the
# drift a float replay may open (_replay_drift grows with the steps since).
CHECKPOINT_EVERY = 100

_EPS = 2.0 ** -52


def _replay_drift(k: int, n: int) -> float:
    """Relative tolerance for float weights replayed over k updates.

    A trace may be read by a Python whose sum rounds differently from the
    writer's (3.12's sum is compensated), so replayed float weights need not
    be bit-identical to the recorded run. Take k updates from the same start
    with the same recorded edges. Each divides every component by the same
    1 +- r (rounded alike by both) and then by a total shared by all
    components, so a computed component is c * v_i * (1 + phi_i): v_i is the
    exact quotient of the start by the k divisors, c is one scalar, and
    |phi_i| <= k * eps (two roundings of eps/2 per step). The last division makes the components sum to 1
    within n * eps / 2, which fixes c to within that of 1 / sum_j v_j (1 +
    phi_j). The writer's and the reader's values of a component therefore
    differ by a relative (4k + n) * eps at most, to first order; this allows
    twice that. An edge summed from such weights (summing to 1) moves by the
    same relative amount, on top of the two sums' own rounding, which
    SCREEN_MARGIN * n covers (the bound argued beside it).
    """
    return 2 * (4 * k + n) * _EPS


# Alpha is recomputed from r; a v1 file's stored alpha came from the same
# formula, so it may differ only by the writer's libm log (an ulp or two).
ALPHA_REL_TOL = 1e-12


class TraceFormatError(ValueError):
    """The document is not a valid trace file."""


def _ratio_text(p: int, q: int) -> str:
    """`p/q` in decimal (`p` when q is 1), as str(Fraction(p, q)) writes a
    reduced p/q, or in hexadecimal (`0x...`) when a decimal form would pass
    the interpreter's limit on int-to-string digits: binary bases are exempt
    from that limit, and the process-wide limit is left as it is."""
    try:
        return f"{p}/{q}" if q != 1 else str(p)
    except ValueError:
        if q == 1:
            return f"{p:#x}"
        return f"{p:#x}/{q:#x}"


def _fraction_text(value: Fraction) -> str:
    """A Fraction as `_ratio_text` writes it."""
    return _ratio_text(value.numerator, value.denominator)


def _parse_fraction(text: str) -> Fraction:
    """Read a `_fraction_text` string back."""
    if "x" in text:
        numerator, _, denominator = text.partition("/")
        return Fraction(int(numerator, 16), int(denominator, 16) if denominator else 1)
    return Fraction(text)


def _is_digits(text: str) -> bool:
    return text.isascii() and text.isdigit()


def _parse_ratio(value: Union[str, float, int]) -> Tuple[int, int]:
    """An exact scalar of a trace file (a `p/q` string, or a JSON number) as
    the reduced pair (p, q), q > 0: the value Fraction would read. A plain
    decimal `p/q` or `p` is parsed by int and one gcd; anything else is left
    to Fraction, which also raises the errors of malformed text."""
    if type(value) is str:
        numerator, slash, denominator = value.partition("/")
        if _is_digits(numerator[1:] if numerator[:1] == "-" else numerator) and (
            not slash or _is_digits(denominator) and denominator.strip("0")
        ):
            p, q = int(numerator), int(denominator) if slash else 1
            g = math.gcd(p, q)
            return p // g, q // g
        value = _parse_fraction(value)
    else:
        value = Fraction(value)
    return value.numerator, value.denominator


def _encode_scalar(value: Scalar, mode: str) -> Union[str, float]:
    if mode == "exact":
        return _fraction_text(Fraction(value))
    return float(value)


def _decode_scalar(value: Union[str, float, int], mode: str) -> Scalar:
    if mode == "exact":
        return _parse_fraction(value) if isinstance(value, str) else Fraction(value)
    if not _is_double(value):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def _encode_rule(rule: SelectionRule) -> Dict[str, object]:
    if isinstance(rule, Optimal):
        return {"kind": "optimal"}
    if isinstance(rule, FirstAbove):
        # a rational threshold stays a p/q string in either mode: a float run
        # compares float edges with it exactly, so a rounded one is another rule
        theta = rule.theta
        return {"kind": "first_above", "theta": theta if isinstance(theta, float) else _fraction_text(Fraction(theta))}
    if isinstance(rule, FixedSequence):
        return {"kind": "fixed_sequence", "rows": list(rule.rows)}
    raise TraceFormatError(f"unknown rule {rule!r}")


def _decode_rule(doc: Dict[str, object]) -> SelectionRule:
    kind = doc.get("kind")
    if kind == "optimal":
        return Optimal()
    if kind == "first_above":
        theta = doc["theta"]
        return FirstAbove(_parse_fraction(theta) if isinstance(theta, str) else float(theta))
    if kind == "fixed_sequence":
        return FixedSequence(tuple(int(r) for r in doc["rows"]))
    raise TraceFormatError(f"unknown rule kind {kind!r}")


def _point_texts(point: List[int]) -> List[str]:
    """A lattice point [D, a_1..a_n] as the `p/q` texts of its weights."""
    d, *a = point
    texts = []
    for x in a:
        g = math.gcd(x, d)
        texts.append(_ratio_text(x // g, d // g))
    return texts


def trace_to_dict(trace: BoostTrace, provenance: Optional[Dict[str, object]] = None) -> Dict:
    mode = trace.mode
    exact = mode == "exact"
    states = trace.states
    if exact:
        edges = [_ratio_text(p, q) for p, q in states[:, :2].tolist()]
    else:
        edges = states[:, 0].tolist()
    steps = [{"row": row, "r_exact" if exact else "r": r} for row, r in zip(trace.rows.tolist(), edges)]
    if steps:
        for t in (*range(CHECKPOINT_EVERY - 1, len(steps) - 1, CHECKPOINT_EVERY), len(steps) - 1):
            steps[t]["weights"] = _point_texts(states[t, 2:].tolist()) if exact else states[t, 1:].tolist()
    doc = {
        "schema": TRACE_SCHEMA,
        "mode": mode,
        "rule": _encode_rule(trace.rule),
        "pool": {
            "origin": trace.pool.origin,
            "rows": [row.to_string() for row in trace.pool.rows],
        },
        "provenance": provenance or {},
        "initial_weights": [_encode_scalar(c, mode) for c in trace.initial_weights],
        "halt": trace.halt,
        "steps": steps,
    }
    return doc


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


def _is_double(value: object) -> bool:
    """A JSON number that converts to a double: a float, or an int below
    2**1023 in magnitude (never a bool, a string or null)."""
    return type(value) is float or (type(value) is int and abs(value) < 2**1023)


def _stored_point(values) -> np.ndarray:
    """Stored exact weights as a lattice point [D, a_1..a_n], checked as a
    WeightVector checks them (nonempty, positive, summing to 1); a failing
    vector raises WeightVector's error."""
    ratios = [_parse_ratio(c) for c in values]
    d = math.lcm(*(q for _, q in ratios))
    point = np.array([d, *(p * (d // q) for p, q in ratios)], dtype=object)
    if not ratios or min(p for p, _ in ratios) <= 0 or point[1:].sum() != d:
        WeightVector(tuple(Fraction(p, q) for p, q in ratios))
    return point


def _read_steps(
    records: List, pool: HypothesisPool, mode: str, found: _FirstFailure
) -> Tuple[np.ndarray, np.ndarray, Dict[int, np.ndarray]]:
    """The rows, the edges and the stored weights (by step) of the step
    records, each record checked on its own (everything but the replay), in
    the order a step is read: its `t` and `row`, its `eta`, its edge and the
    edge's range, its `alpha`, then its stored weights. Each check reads
    only the steps before the first failure so far, so the values it reads
    passed the checks before it. The columns cover the first found.limit
    steps, and one more when the failure lies in stored weights."""
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
        # (steps, 2) rows [p, q]
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

    # stored weights: their errors come after the step's edge and update
    checkpoints: Dict[int, np.ndarray] = {}
    for t in compress(count(), map(dict.__contains__, records[: found.limit], repeat("weights"))):
        try:
            if exact:
                stored = _stored_point(records[t]["weights"])
            else:
                stored = WeightVector(tuple(_decode_scalar(c, mode) for c in records[t]["weights"])).as_array()
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            found.fail(t, f"step {t}: stored weights: {exc}", at_checkpoint=True)
            break
        components = len(stored) - 1 if exact else len(stored)  # a lattice point leads with D
        if components != n:
            found.fail(t, f"step {t}: weights have {components} components, pool rows {n}", at_checkpoint=True)
            break
        checkpoints[t] = stored

    stop = found.limit + found.at_checkpoint
    return np.array(rows[:stop], dtype=np.int64), edge_column[:stop], checkpoints


def _replay(
    initial: np.ndarray,
    rows: np.ndarray,
    signs: np.ndarray,
    edges: np.ndarray,
    checkpoints: Dict[int, np.ndarray],
) -> Tuple[np.ndarray, Optional[TraceFormatError]]:
    """Rebuild the weights after every step by the update kernel, and check
    the steps against them; returns the states column and the first
    failure (None if there is none).

    Float weights are float64 rows and float edges a float64 column. Exact
    weights are lattice points, exact edges (steps, 2) rows [p, q], and the
    states column comes back in integer form (see BoostTrace).

    The steps are cut into segments, each starting at the initial weights or
    at a checkpoint's stored weights, and all segments advance together,
    one step offset j at a time, as one (segments x points) array. A float
    edge must lie within SCREEN_MARGIN * n + _replay_drift(j, n) of its row's
    edge on the replayed weights; exact weights must sum to exactly 1 after
    each update; each checkpoint must match the replay that ends on it
    (exactly, or within _replay_drift in float mode). A step whose weights
    are stored keeps the stored values. Segments are independent, so the
    first failure is the failure at the earliest step.
    """
    steps, n = signs.shape
    exact = initial.dtype == object
    cuts = sorted({0, steps, *(t + 1 for t in checkpoints if t + 1 < steps)})
    # (length, start) of each segment, longest first, so that the segments
    # still running at offset j are the first live(j) of them
    segments = sorted(zip(np.diff(cuts).tolist(), cuts[:-1]), key=lambda seg: -seg[0])
    starts = np.array([start for _, start in segments], dtype=np.int64)
    negated_lengths = [-length for length, _ in segments]  # ascending
    running = [bisect_left(negated_lengths, -j) for j in range(segments[0][0])] if steps else []
    w = np.stack([initial if start == 0 else checkpoints[start - 1] for _, start in segments]) if steps else initial
    # the steps whose stored weights end a segment, by the segment's last offset
    ends: Dict[int, List[int]] = {}
    for length, start in segments:
        if start + length - 1 in checkpoints:
            ends.setdefault(length - 1, []).append(start + length - 1)
    # converted once, not at every offset: Python ints for the integer kernel
    signs = signs.astype(object if exact else np.float64)
    # a state row holds the edge (p and q in exact mode), then the weights
    e = 2 if exact else 1
    states = np.empty((steps, e + w.shape[-1]), dtype=initial.dtype)
    states[:, :e] = edges.reshape(steps, e)
    first: Optional[Tuple[int, str]] = None

    def fail(failed: np.ndarray, message: Callable[[int], str]) -> None:
        """Note the earliest of the failed steps, with its message."""
        nonlocal first
        step = int(failed.min())
        if first is None or step < first[0]:
            first = step, message(step)

    for j, live in enumerate(running):
        t = starts[:live] + j
        eta, r, w = signs[t], edges[t], w[:live]
        if exact:
            w, consistent = _lattice_update(w, eta, r[:, :1], r[:, 1:])
            if not consistent.all():
                fail(t[~consistent], lambda step: (
                    f"step {step}: edge {Fraction(*edges[step])} is not the edge of row {rows[step]} on the "
                    "replayed weights"
                ))
        else:
            replayed = _signed_sums(eta, w)
            bad = np.abs(replayed - r) > SCREEN_MARGIN * n + _replay_drift(j, n)
            if bad.any():
                edge_of = dict(zip(t.tolist(), replayed.tolist()))
                fail(t[bad], lambda step: (
                    f"step {step}: edge {edges[step].item()!r} is not the edge of row {rows[step]} on the "
                    f"replayed weights ({edge_of[step]!r})"
                ))
            w, _ = _update(w, eta, r[:, None])
        states[t, e:] = w
        stored = ends.get(j)
        if stored:
            replayed = states[stored, e:]
            expected = np.stack([checkpoints[u] for u in stored])
            if exact:
                # canonical lattice points are equal exactly when their weights are
                matches = (replayed == expected).all(axis=1)
            else:
                matches = (np.abs(replayed - expected) <= _replay_drift(j + 1, n) * expected).all(axis=1)
            if not matches.all():
                fail(
                    np.array(stored)[~matches],
                    lambda step: f"step {step}: stored weights do not match the replayed update",
                )
            states[stored, e:] = expected
    return states, None if first is None else TraceFormatError(first[1])


def _header_field(doc: Dict, key: str, kind: type):
    """doc[key], which must be a JSON object (kind dict) or array (list)."""
    value = doc[key]
    if type(value) is not kind:
        raise TraceFormatError(f"{key} is not a JSON {'object' if kind is dict else 'array'}")
    return value


def trace_from_dict(doc: Dict) -> BoostTrace:
    """Rebuild a trace, replaying the update to recover and verify every
    step's weights (see the module docstring)."""
    if doc.get("schema") not in READABLE_SCHEMAS:
        raise TraceFormatError(f"unsupported schema {doc.get('schema')!r}")
    mode = doc["mode"]
    if mode not in ("exact", "float"):
        raise TraceFormatError(f"unknown mode {mode!r}")
    pool_doc = _header_field(doc, "pool", dict)
    lines = _header_field(pool_doc, "rows", list)
    if not set(map(type, lines)) <= {str}:
        raise TraceFormatError(f"pool row {next(r for r in lines if type(r) is not str)!r} is not a string")
    pool = HypothesisPool(tuple(map(MistakeDichotomy.from_string, lines)), origin=pool_doc.get("origin", "synthetic"))
    rule = _decode_rule(_header_field(doc, "rule", dict))
    n = pool.n_points
    initial = WeightVector(tuple(_decode_scalar(c, mode) for c in _header_field(doc, "initial_weights", list)))
    if len(initial) != n:
        raise TraceFormatError(f"initial_weights has {len(initial)} components, pool rows {n}")
    halt = doc.get("halt")
    if halt not in HALTS:
        raise TraceFormatError(f"unknown halt {halt!r}; expected one of {HALTS}")
    records = doc["steps"]
    if type(records) is not list:
        raise TraceFormatError("steps is not a list")
    if records and "weights" not in records[-1]:
        raise TraceFormatError(f"step {len(records) - 1}: the last step has no weights checkpoint")
    found = _FirstFailure(len(records))
    rows, edges, checkpoints = _read_steps(records, pool, mode, found)
    signs = pool.signs[rows]
    start = _lattice_point(initial) if mode == "exact" else initial.as_array()
    states, failure = _replay(start, rows, signs, edges, checkpoints)
    if failure is not None:
        raise failure
    if found.error is not None:
        raise found.error
    return BoostTrace(mode, pool, rule, initial, rows, signs, states, halt)


# Step records encoded per json call. One call for a 5000-step trace makes
# texts of about 200 kB, and the peak memory of a process that writes such
# traces again and again crept up by 1 MB over 40 writes; texts of a few kB
# leave it flat, as one call per record did.
_WRITE_BLOCK = 64


def dumps_trace(trace: BoostTrace, provenance: Optional[Dict[str, object]] = None) -> str:
    """The trace as JSON, one step record per line (json's C encoder: no
    indent). The records are encoded _WRITE_BLOCK at a time, one call per
    block; a record holds no braces inside it, so "}, {" occurs only
    between two records."""
    doc = trace_to_dict(trace, provenance)
    records = doc.pop("steps")
    steps = ",\n".join(
        json.dumps(records[lo : lo + _WRITE_BLOCK])[1:-1].replace("}, {", "},\n{")
        for lo in range(0, len(records), _WRITE_BLOCK)
    )
    return f'{json.dumps(doc)[:-1]}, "steps": [\n{steps}\n]}}\n'


def loads_trace(text: str) -> BoostTrace:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise TraceFormatError("JSON nested too deeply to read") from exc
    if not isinstance(doc, dict):
        raise TraceFormatError("trace document must be a JSON object")
    try:
        return trace_from_dict(doc)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:  # a p/0 number
        if isinstance(exc, TraceFormatError):
            raise
        raise TraceFormatError(f"malformed trace: {exc}") from exc


def save_trace(trace: BoostTrace, path: str, provenance: Optional[Dict] = None) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_trace(trace, provenance))


def _read_text(path: str) -> str:
    """The text of a file; bytes that do not decode are a TraceFormatError."""
    try:
        with open(path) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise TraceFormatError(f"{path}: {exc}") from exc


def load_trace(path: str) -> BoostTrace:
    return loads_trace(_read_text(path))


def load_pool(path: str) -> HypothesisPool:
    """Read a pool file: one '+--+' line per dichotomy, blank lines and
    #-comments ignored."""
    rows: List[MistakeDichotomy] = []
    for lineno, line in enumerate(_read_text(path).split("\n"), 1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            rows.append(MistakeDichotomy.from_string(text))
        except ValueError as exc:
            raise TraceFormatError(f"{path}:{lineno}: {exc}") from exc
        if len(rows[-1]) != len(rows[0]):
            raise TraceFormatError(
                f"{path}:{lineno}: row has {len(rows[-1])} points, the first row {len(rows[0])}"
            )
    if not rows:
        raise TraceFormatError(f"{path}: no dichotomies found")
    return HypothesisPool(tuple(rows), origin="synthetic")
