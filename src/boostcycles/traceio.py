"""Trace and pool file formats.

Traces are schema-versioned JSON documents that round-trip losslessly:
exact scalars are stored as `p/q` strings, floats as JSON numbers (whose
shortest-repr encoding is exact). A `p/q` whose decimal form would pass the
interpreter's int-to-string digit limit (4300 digits by default) is written
in hexadecimal, `0x.../0x...`. Pools are plain text, one dichotomy per
line over the alphabet {+, -}. Pool text, in a pool file or a trace
header, is decoded and encoded as one int8 sign matrix
(`simplex._parse_signs` and `_sign_texts`), checked once where it is read.

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
replay, within the rounding bounds argued in `_replay_drift`. In exact mode
the engine's kernel derives each step's edge from the replayed weights, the
recorded edge must equal it (a cross product of integers), and a checkpoint
must equal the replay. After a checkpoint the replay continues from the
stored values. A `boostcycles-trace-v1` document, which stores the
weights, `t`, `eta` and `alpha` of every step, is read by the same replay as
a v2 document with a checkpoint on every step; its extra fields are checked.

A float run that falls into a cycle repeats bit for bit: once the key (the
bits of the weights before step t, t mod L) repeats, with L the `fixed:`
schedule's length and 1 for every other rule, every later step repeats the
steps since the key's first occurrence (see `engine.boost`). Such a trace
is written as a `boostcycles-trace-v3` document, which stores only the
transient and one period. `engine._repeat` (read as `BoostTrace.repeat`,
which the analysis reads too) finds the first repeat from the trace's
columns alone: the key before step `onset + period` equals the key before
step `onset`. The writer stores the v3 layout when
the rows, signs and state bits from the onset on are that period tiled,
the trace did not halt and its length T exceeds onset + period; every
other trace, and every exact one, is written as v2. The v3 header adds
`onset`, `period` and `length` (T), and `steps` holds the records of steps
0 .. onset + period - 1, in the v2 form, with two more checkpoints: the
weights before the onset (on step onset - 1; the initial weights when the
onset is 0) and the weights after the last stored step (which v2 stores
anyway). The reader checks the header first: `halt` is null, the period is
a multiple of L, onset + period is the number of stored records, and it is
less than T. It then replays the stored records as it replays v2, checks
that the two checkpoints are bit-equal, and tiles the rows, signs and
states of steps onset .. onset + period - 1 out to T, as `boost` tiles
them. A failing check is a TraceFormatError at the step it concerns. When
the stored steps' first repeat is the header's, the loaded trace keeps it
as its `repeat`, which is then not searched for over the tiled columns.

Exact values never pass through `Fraction` on the way in or out: every
exact number is written by `_ratio_text` from a pair of ints and read by
`_parse_ratio` into one. The reader keeps each decimal `p/q` edge as a pair
with no gcd: the pair need not be in lowest terms, since it is only compared
with the kernel's edge by a cross product, and the states column keeps the
kernel's reduced edge. It turns stored weights into canonical lattice
points (integer numerators over their least common denominator, one gcd per
checkpoint), and replays with the engine's integer kernel; the writer
reduces a lattice point's numerators to `p/q` text only at checkpoints. The
header's initial weights are read and written as a checkpoint's, exact or
float, their values checked before their length. Fractions are built only
for the loaded trace's initial weights and threshold, and for the message of
a failing value, so the messages are those of the Fraction values the file
holds.

The writer reads the trace's columns, and the reader builds them. Reading
makes one pass over the step records, then the replay. The pass reads the
records in step order into columns and checks each on its own: its fields'
types (a row is an int, a float edge a JSON number), its row, its edge's
range and the v1 fields. It stops at the first record that fails. The
replay covers the steps read. An exact replay runs in step order and stops
at its first failure. A float replay restarts at every checkpoint, so the
steps fall into segments, each starting at the initial or at stored
weights, and `_replay` advances all segments together, one step offset at a
time, with the engine's update kernel on a (segments x points) array; it
then checks every recorded edge against the replayed weights in one pass.
A bad file fails with the message of its earliest failing step, and within
a step its record's fields fail first, then its edge and update, then its
stored weights.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from fractions import Fraction
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from .engine import (
    SCREEN_MARGIN,
    HALTS,
    BoostTrace,
    FirstAbove,
    FixedSequence,
    Optimal,
    SelectionRule,
    _first_repeat,
    _lattice_point,
    _lattice_step,
    _schedule,
    _tiling,
    _update,
    alpha,
)
from .simplex import HypothesisPool, SignTextError, WeightVector, _parse_signs, _sign_texts, _signed_sums

TRACE_SCHEMA = "boostcycles-trace-v2"
REPEAT_SCHEMA = "boostcycles-trace-v3"
READABLE_SCHEMAS = ("boostcycles-trace-v1", TRACE_SCHEMA, REPEAT_SCHEMA)

# Steps between stored weight vectors. Each checkpoint bounds again the
# drift a float replay may open (_replay_drift grows with the steps since).
CHECKPOINT_EVERY = 100

# Steps per pass of the float replay's edge check: its temporaries (the
# weights before each step, their signed terms and running sums) are one
# block's, not three (steps x points) arrays.
_REPLAY_BLOCK = 256

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


def _hex_pair(text: str) -> Tuple[int, int]:
    """A hexadecimal `_ratio_text` string as a pair (p, q), q > 0, with no
    gcd; a zero denominator raises Fraction's error."""
    numerator, _, denominator = text.partition("/")
    p, q = int(numerator, 16), int(denominator, 16) if denominator else 1
    if not q:
        raise ZeroDivisionError(f"Fraction({p}, 0)")
    return (p, q) if q > 0 else (-p, -q)


def _is_digits(text: str) -> bool:
    return text.isascii() and text.isdigit()


def _parse_ratio(value: Union[str, float, int]) -> Tuple[int, int]:
    """An exact scalar of a trace file (a `p/q` string, or a JSON number) as
    a pair (p, q), q > 0, with p/q the value Fraction would read. A plain
    decimal `p/q` or `p`, or a hexadecimal one, is parsed by int alone, so
    its pair is as written and need not be in lowest terms; anything else
    is left to Fraction, which also raises the errors of malformed text."""
    if type(value) is str:
        numerator, slash, denominator = value.partition("/")
        if _is_digits(numerator[1:] if numerator[:1] == "-" else numerator) and (
            not slash or _is_digits(denominator) and denominator.strip("0")
        ):
            return int(numerator), int(denominator) if slash else 1
        if "x" in value:
            return _hex_pair(value)
        value = Fraction(value)
    else:
        value = Fraction(value)
    return value.numerator, value.denominator


def _encode_rule(rule: SelectionRule) -> Dict[str, object]:
    if isinstance(rule, Optimal):
        return {"kind": "optimal"}
    if isinstance(rule, FirstAbove):
        # a rational threshold stays a p/q string in either mode: a float run
        # compares float edges with it exactly, so a rounded one is another rule
        theta = rule.theta
        text = theta if isinstance(theta, float) else _ratio_text(theta.numerator, theta.denominator)
        return {"kind": "first_above", "theta": text}
    if isinstance(rule, FixedSequence):
        return {"kind": "fixed_sequence", "rows": list(rule.rows)}
    raise TraceFormatError(f"unknown rule {rule!r}")


def _decode_rule(doc: Dict[str, object], pool: HypothesisPool) -> SelectionRule:
    """The header's rule; a fixed schedule's rows must be rows of the pool."""
    kind = doc.get("kind")
    if kind == "optimal":
        return Optimal()
    if kind == "first_above":
        theta = doc["theta"]
        return FirstAbove(Fraction(*_parse_ratio(theta)) if isinstance(theta, str) else float(theta))
    if kind == "fixed_sequence":
        rows = doc["rows"]
        if type(rows) is not list:
            raise TraceFormatError(f"rule rows {rows!r} is not a JSON array")
        if not rows:
            raise TraceFormatError("rule rows is empty")
        for row in rows:
            if type(row) is not int:
                raise TraceFormatError(f"rule row {row!r} is not an integer")
            if not 0 <= row < len(pool):
                raise TraceFormatError(f"rule row {row} outside pool of {len(pool)} rows")
        return FixedSequence(tuple(rows))
    raise TraceFormatError(f"unknown rule kind {kind!r}")


def _point_texts(point: List[int]) -> List[str]:
    """A lattice point [D, a_1..a_n] as the `p/q` texts of its weights, with
    one gcd per distinct numerator."""
    d, *a = point
    texts = {}
    for x in set(a):
        g = math.gcd(x, d)
        texts[x] = _ratio_text(x // g, d // g)
    return [texts[x] for x in a]


def trace_to_dict(trace: BoostTrace, provenance: Optional[Dict[str, object]] = None) -> Dict:
    mode, initial = trace.mode, trace.initial_weights
    exact = mode == "exact"
    repeat = trace.repeat
    stored = len(trace) if repeat is None else sum(repeat)
    states = trace.states[:stored]
    if exact:
        edges = [_ratio_text(p, q) for p, q in states[:, :2].tolist()]
    else:
        edges = states[:, 0].tolist()
    steps = [{"row": row, "r_exact" if exact else "r": r} for row, r in zip(trace.rows[:stored].tolist(), edges)]
    checkpoints = {*range(CHECKPOINT_EVERY - 1, stored - 1, CHECKPOINT_EVERY), stored - 1} if steps else set()
    if repeat and repeat[0]:
        checkpoints.add(repeat[0] - 1)  # the weights before the onset
    for t in checkpoints:
        steps[t]["weights"] = _point_texts(states[t, 2:].tolist()) if exact else states[t, 1:].tolist()
    doc = {
        "schema": TRACE_SCHEMA if repeat is None else REPEAT_SCHEMA,
        "mode": mode,
        "rule": _encode_rule(trace.rule),
        "pool": {
            "origin": trace.pool.origin,
            "rows": _sign_texts(trace.pool.signs),
        },
        "provenance": provenance or {},
        "initial_weights": _point_texts(_lattice_point(initial).tolist()) if exact else list(map(float, initial)),
        "halt": trace.halt,
    }
    if repeat is not None:
        doc.update(onset=repeat[0], period=repeat[1], length=len(trace))
    doc["steps"] = steps
    return doc


def _is_double(value: object) -> bool:
    """A JSON number that converts to a double: a float, or an int below
    2**1023 in magnitude (never a bool, a string or null)."""
    return type(value) is float or (type(value) is int and abs(value) < 2**1023)


# Stored weights, by step: a float64 array, or an exact lattice point as a list
Stored = Union[np.ndarray, List[int]]


def _stored_point(values) -> List[int]:
    """Stored exact weights as a lattice point [D, a_1..a_n] in canonical
    form, checked as a WeightVector checks them (nonempty, positive, summing
    to 1); a failing vector raises WeightVector's error."""
    ratios = [_parse_ratio(c) for c in values]
    # the arithmetic runs once per distinct (p, q): a dataset's weights take
    # few distinct values
    distinct = set(ratios)
    d = math.lcm(*{q for _, q in distinct})
    numerators = {(p, q): p * (d // q) for p, q in distinct}
    if not ratios or min(p for p, _ in distinct) <= 0 or sum(numerators[r] for r in ratios) != d:
        WeightVector(tuple(Fraction(p, q) for p, q in ratios))
    # one gcd brings the point to canonical form, whether or not its p/q
    # were written in lowest terms
    g = math.gcd(d, *numerators.values())
    reduced = {r: a // g for r, a in numerators.items()}
    return [d // g, *(reduced[r] for r in ratios)]


def _stored_floats(values) -> WeightVector:
    """Stored float weights, each a JSON number that converts to a double,
    checked as a WeightVector."""
    for c in values:
        if not _is_double(c):
            raise TypeError(f"{c!r} is not a number")
    return WeightVector(tuple(map(float, values)))


def _read_steps(
    records: List, pool: HypothesisPool, mode: str
) -> Tuple[np.ndarray, np.ndarray, Dict[int, Stored], Optional[TraceFormatError]]:
    """The rows, the edges and the stored weights (by step) of the step
    records, and the first failure of a record read on its own (None if
    there is none). The records are read in step order, and each is checked
    in the order: it is an object, its `t`, its `row`, its `eta`, its edge
    and the edge's range, its `alpha`, then its stored weights. Reading
    stops at the first failure. The columns cover the steps before it, and
    the failing step too when the failure lies in its stored weights, since
    those are checked after the step's edge and update."""
    exact = mode == "exact"
    n, size = pool.n_points, len(pool)
    key = "r_exact" if exact else "r"
    # only a v1 record, or one that is not an object, needs the checks of
    # the fields that v2 does not write
    v1 = not (set(map(type, records)) <= {dict} and set().union(*records) <= {"row", key, "weights"})
    strings = _sign_texts(pool.signs) if v1 else []
    rows: List[int] = []
    edges: List = []
    checkpoints: Dict[int, Stored] = {}
    error = None
    for t, rec in enumerate(records):
        if v1:
            if type(rec) is not dict:
                error = f"step {t}: not a JSON object"
                break
            if rec.get("t", t) != t:
                error = f"step {t}: recorded t is {rec['t']!r}"
                break
        row = rec.get("row")
        if type(row) is not int:
            error = f"step {t}: row {row!r} is not an integer"
            break
        if not 0 <= row < size:
            error = f"step {t}: row {row} outside pool of {size} rows"
            break
        if v1 and rec.get("eta", strings[row]) != strings[row]:
            error = f"step {t}: eta {rec['eta']!r} is not pool row {row}"
            break
        value = rec.get(key)
        if exact:
            try:
                edge = _parse_ratio(value)
            except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:  # a JSON Infinity
                error = f"step {t}: edge {value!r} is not a number ({exc})"
                break
            if not 0 < edge[0] < edge[1]:
                error = f"step {t}: edge {Fraction(*edge)} outside (0, 1)"
                break
        else:
            if type(value) is not float and not _is_double(value):
                error = f"step {t}: edge {value!r} is not a number"
                break
            if not 0 < value < 1:
                error = f"step {t}: edge {float(value)} outside (0, 1)"
                break
            edge = value  # a float: no int lies in (0, 1)
        if v1 and "alpha" in rec:
            a = alpha(Fraction(*edge) if exact else edge)
            if abs(float(rec["alpha"]) - a) > ALPHA_REL_TOL * a:
                error = f"step {t}: alpha {rec['alpha']!r} is not alpha(r) = {a!r}"
                break
        rows.append(row)
        edges.append(edge)
        if "weights" in rec:
            try:
                stored = _stored_point(rec["weights"]) if exact else _stored_floats(rec["weights"]).as_array()
            except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
                error = f"step {t}: stored weights: {exc}"
                break
            components = len(stored) - 1 if exact else len(stored)  # a lattice point leads with D
            if components != n:
                error = f"step {t}: weights have {components} components, pool rows {n}"
                break
            checkpoints[t] = stored
    if exact:
        # (steps, 2) rows [p, q]
        edge_column = np.array(edges, dtype=object).reshape(len(edges), 2)
    else:
        edge_column = np.array(edges, dtype=np.float64)
    return np.array(rows, dtype=np.int64), edge_column, checkpoints, None if error is None else TraceFormatError(error)


def _replay(
    initial: Stored,
    rows: np.ndarray,
    signs: np.ndarray,
    edges: np.ndarray,
    checkpoints: Dict[int, Stored],
) -> np.ndarray:
    """Rebuild the weights after every step by the update kernel, and check
    the steps against them; returns the states column, or raises
    TraceFormatError with the first failure.

    Exact weights are lattice points and exact edges (steps, 2) rows
    [p, q], not necessarily in lowest terms. The replay runs in step order
    with `_lattice_step`, which derives each step's edge from the weights;
    the file's edge must equal it (a cross product), and a checkpoint must
    equal the replayed point. The pass stops at its first failure, the
    earliest. The states column holds the kernel's reduced edges, in
    integer form (see BoostTrace).

    Float weights are float64 rows and float edges a float64 column. The
    steps are cut into segments, each starting at the initial weights or at
    a checkpoint's stored weights, and all segments advance together, one
    step offset j at a time, as one (segments x points) array. Every
    checkpoint ends a segment; after the loop, all of them are compared at
    once, each within _replay_drift of the replay that ends on it, and a
    step whose weights are stored keeps the stored values. The weights before
    every step are then the initial weights and the states' weights, so
    every recorded edge is checked after the loop, by `_signed_sums` over
    blocks of _REPLAY_BLOCK steps: it must lie within SCREEN_MARGIN * n +
    _replay_drift(j, n) of its row's edge on the weights before it, j being
    the step's offset in its segment. Segments are independent, so the first failure is the failure
    at the earliest step; at one step an edge fails before stored weights.
    """
    steps, n = signs.shape
    if type(initial) is list:
        point, states = initial, []
        for t, (eta, s, d) in enumerate(zip(signs.tolist(), edges[:, 0].tolist(), edges[:, 1].tolist())):
            try:
                p, q, point = _lattice_step(point, eta)
            except ValueError:  # eta puts every point in one class: the edge is ±1
                consistent = False
            else:
                consistent = p * d == s * q
            if not consistent:
                raise TraceFormatError(
                    f"step {t}: edge {Fraction(s, d)} is not the edge of row {rows[t]} on the replayed weights"
                )
            # canonical lattice points are equal exactly when their weights are
            if t in checkpoints and checkpoints[t] != point:
                raise TraceFormatError(f"step {t}: stored weights do not match the replayed update")
            # the file's ints when they are the reduced edge already (as the
            # writer writes it), so the states and edge columns share them
            states += (s, d) if (s, d) == (p, q) else (p, q)
            states += point
        return np.array(states, dtype=object).reshape(steps, n + 3)

    cuts = sorted({0, steps, *(t + 1 for t in checkpoints if t + 1 < steps)})
    # (length, start) of each segment, longest first, so that the segments
    # still running at offset j are the first live(j) of them
    segments = sorted(zip(np.diff(cuts).tolist(), cuts[:-1]), key=lambda seg: -seg[0])
    starts = np.array([start for _, start in segments], dtype=np.int64)
    negated_lengths = [-length for length, _ in segments]  # ascending
    running = [bisect_left(negated_lengths, -j) for j in range(segments[0][0])] if steps else []
    w = np.stack([initial if start == 0 else checkpoints[start - 1] for _, start in segments]) if steps else initial
    # a state row holds the edge, then the weights
    states = np.empty((steps, 1 + n))
    states[:, 0] = edges
    for j, live in enumerate(running):
        t = starts[:live] + j
        w, _ = _update(w[:live], signs[t], edges[t][:, None])
        states[t, 1:] = w
    # each step's offset in its segment; a checkpoint's is its segment's last
    offsets = np.arange(steps) - np.repeat(cuts[:-1], np.diff(cuts))
    stored = np.array(list(checkpoints), dtype=np.int64)
    expected = np.array([checkpoints[t] for t in checkpoints], dtype=np.float64).reshape(-1, n)
    drift = _replay_drift(offsets[stored] + 1, n)[:, None] * expected
    failed = stored[~(np.abs(states[stored, 1:] - expected) <= drift).all(axis=1)]
    states[stored, 1:] = expected
    # every step's edge on the weights before it
    replayed = np.empty(steps)
    for lo in range(0, steps, _REPLAY_BLOCK):
        hi = min(lo + _REPLAY_BLOCK, steps)
        before = states[lo - 1 : hi - 1, 1:] if lo else np.vstack((initial, states[: hi - 1, 1:]))
        replayed[lo:hi] = _signed_sums(signs[lo:hi], before)
    bad = (np.abs(replayed - edges) > SCREEN_MARGIN * n + _replay_drift(offsets, n)).nonzero()[0]
    if len(bad) and (not len(failed) or bad[0] <= failed[0]):
        step = int(bad[0])
        raise TraceFormatError(
            f"step {step}: edge {edges[step].item()!r} is not the edge of row {rows[step]} on the "
            f"replayed weights ({replayed[step].item()!r})"
        )
    if len(failed):
        raise TraceFormatError(f"step {failed[0]}: stored weights do not match the replayed update")
    return states


def _header_field(doc: Dict, key: str, kind: type):
    """doc[key], which must be a JSON object (kind dict) or array (list)."""
    value = doc[key]
    if type(value) is not kind:
        raise TraceFormatError(f"{key} is not a JSON {'object' if kind is dict else 'array'}")
    return value


def _read_repeat(doc: Dict, mode: str, schedule: int, halt: Optional[str], stored: int) -> Tuple[int, int, int]:
    """A v3 header's onset, period and length, checked against the schedule
    length, the halt and the number of stored step records."""
    fields = []
    for key, least in (("onset", 0), ("period", 1), ("length", 1)):
        value = doc.get(key)
        if type(value) is not int or value < least:
            raise TraceFormatError(f"{key} {value!r} is not an integer >= {least}")
        fields.append(value)
    onset, period, length = fields
    end = onset + period  # the first tiled step
    if mode != "float":
        raise TraceFormatError(f"a {REPEAT_SCHEMA} trace must be in float mode, not {mode}")
    if halt is not None:
        raise TraceFormatError(f"step {end}: halt {halt!r} in a trace that repeats from step {onset}")
    if period % schedule:
        raise TraceFormatError(f"step {end}: period {period} is not a multiple of the schedule length {schedule}")
    if stored != end:
        raise TraceFormatError(
            f"step {min(stored, end)}: onset {onset} plus period {period} is {end} step records, not {stored}"
        )
    if length <= end:
        raise TraceFormatError(f"step {end}: length {length} does not exceed onset {onset} plus period {period}")
    return onset, period, length


def trace_from_dict(doc: Dict) -> BoostTrace:
    """Rebuild a trace, replaying the update to recover and verify every
    step's weights, and tiling a v3 document's period (see the module
    docstring)."""
    schema = doc.get("schema")
    if schema not in READABLE_SCHEMAS:
        raise TraceFormatError(f"unsupported schema {schema!r}")
    mode = doc["mode"]
    if mode not in ("exact", "float"):
        raise TraceFormatError(f"unknown mode {mode!r}")
    pool_doc = _header_field(doc, "pool", dict)
    lines = _header_field(pool_doc, "rows", list)
    if not set(map(type, lines)) <= {str}:
        raise TraceFormatError(f"pool row {next(r for r in lines if type(r) is not str)!r} is not a string")
    # a row's surrounding whitespace is ignored, as MistakeDichotomy.from_string ignores it
    signs = _parse_signs([line.strip() for line in lines])
    pool = HypothesisPool.from_matrix(signs, origin=pool_doc.get("origin", "synthetic"))
    rule = _decode_rule(_header_field(doc, "rule", dict), pool)
    n = pool.n_points
    # the initial weights are read as a checkpoint's: values, then length
    values = _header_field(doc, "initial_weights", list)
    if mode == "exact":
        start = _stored_point(values)
        initial = WeightVector(tuple(Fraction(a, start[0]) for a in start[1:]))
    else:
        initial = _stored_floats(values)
        start = initial.as_array()
    if len(initial) != n:
        raise TraceFormatError(f"initial_weights has {len(initial)} components, pool rows {n}")
    halt = doc.get("halt")
    if halt not in HALTS:
        raise TraceFormatError(f"unknown halt {halt!r}; expected one of {HALTS}")
    records = doc["steps"]
    if type(records) is not list:
        raise TraceFormatError("steps is not a list")
    schedule = _schedule(rule)
    repeat = _read_repeat(doc, mode, schedule, halt, len(records)) if schema == REPEAT_SCHEMA else None
    if records and "weights" not in records[-1]:
        raise TraceFormatError(f"step {len(records) - 1}: the last step has no weights checkpoint")
    rows, edges, checkpoints, record_failure = _read_steps(records, pool, mode)
    signs = pool.signs[rows]
    # the replay ends where the records failed, so its failure comes first
    states = _replay(start, rows, signs, edges, checkpoints)
    if record_failure is not None:
        raise record_failure
    if repeat is not None:
        onset, period, length = repeat
        last = onset + period - 1
        before = start if onset == 0 else checkpoints.get(onset - 1)
        if before is None:
            raise TraceFormatError(f"step {onset - 1}: no weights stored before the onset")
        if before.tobytes() != checkpoints[last].tobytes():
            raise TraceFormatError(f"step {last}: stored weights are not bit-equal to the weights before step {onset}")
        try:
            index = _tiling(onset, period, length)
            rows, signs, states = rows[index], signs[index], states[index]
        except MemoryError:  # a small file may claim any length
            raise TraceFormatError(f"step {last + 1}: length {length} does not fit in memory") from None
    trace = BoostTrace(mode, pool, rule, initial, rows, signs, states, halt)
    # when the stored block's first repeat is the header's, it is the tiled
    # columns' repeat too (`engine._repeat`), so it is not searched for again
    if repeat is not None and _first_repeat(start, states[: onset + period, 1:], schedule) == (onset, period):
        trace.__dict__["repeat"] = (onset, period)
    return trace


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
    # a p/0 number is a ZeroDivisionError; a JSON Infinity read exactly, or an
    # int beyond a double read as a float, is an OverflowError
    except (KeyError, TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
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
    #-comments ignored. The lines are decoded as one sign matrix; a bad file
    fails at its first line that fails on its own or differs in length from
    the first line, with that line's number."""
    texts, numbers = [], []
    for lineno, line in enumerate(_read_text(path).split("\n"), 1):
        text = line.strip()
        if text and not text.startswith("#"):
            texts.append(text)
            numbers.append(lineno)
    if not texts:
        raise TraceFormatError(f"{path}: no dichotomies found")
    try:
        signs = _parse_signs(texts)
    except SignTextError as exc:
        if exc.row is not None and (exc.uneven is None or exc.row[0] <= exc.uneven):
            i, message = exc.row
        else:
            i = exc.uneven
            message = f"row has {len(texts[i])} points, the first row {len(texts[0])}"
        raise TraceFormatError(f"{path}:{numbers[i]}: {message}") from None
    return HypothesisPool.from_matrix(signs, origin="synthetic")
