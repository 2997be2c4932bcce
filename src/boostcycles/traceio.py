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
weights, `t`, `eta` and `alpha` of every step, is read by the same loop as a
v2 document with a checkpoint on every step; its extra fields are checked.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, List, Optional, Union

from .engine import (
    SCREEN_MARGIN,
    BoostStep,
    BoostTrace,
    FirstAbove,
    FixedSequence,
    Optimal,
    SelectionRule,
    alpha,
    weight_update,
)
from .simplex import HypothesisPool, MistakeDichotomy, Scalar, WeightVector, edge_dot

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


def _fraction_text(value: Fraction) -> str:
    """`p/q` in decimal (`p` when q is 1), or in hexadecimal (`0x...`) when
    a decimal form would pass the interpreter's limit on int-to-string
    digits: binary bases are exempt from that limit, and the process-wide
    limit is left as it is."""
    try:
        return str(value)
    except ValueError:
        if value.denominator == 1:
            return f"{value.numerator:#x}"
        return f"{value.numerator:#x}/{value.denominator:#x}"


def _parse_fraction(text: str) -> Fraction:
    """Read a `_fraction_text` string back."""
    if "x" in text:
        numerator, _, denominator = text.partition("/")
        return Fraction(int(numerator, 16), int(denominator, 16) if denominator else 1)
    return Fraction(text)


def _encode_scalar(value: Scalar, mode: str) -> Union[str, float]:
    if mode == "exact":
        return _fraction_text(Fraction(value))
    return float(value)


def _decode_scalar(value: Union[str, float, int], mode: str) -> Scalar:
    if mode == "exact":
        return _parse_fraction(value) if isinstance(value, str) else Fraction(value)
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


def trace_to_dict(trace: BoostTrace, provenance: Optional[Dict[str, object]] = None) -> Dict:
    mode = trace.mode
    edge_key = "r_exact" if mode == "exact" else "r"
    last = len(trace.steps) - 1
    steps = []
    for t, s in enumerate(trace.steps):
        record = {"row": s.row, edge_key: _encode_scalar(s.edge, mode)}
        if (t + 1) % CHECKPOINT_EVERY == 0 or t == last:
            record["weights"] = [_encode_scalar(c, mode) for c in s.weights_after]
        steps.append(record)
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


def trace_from_dict(doc: Dict) -> BoostTrace:
    """Rebuild a trace, replaying the update to recover and verify every
    step's weights (see the module docstring)."""
    if doc.get("schema") not in READABLE_SCHEMAS:
        raise TraceFormatError(f"unsupported schema {doc.get('schema')!r}")
    mode = doc["mode"]
    if mode not in ("exact", "float"):
        raise TraceFormatError(f"unknown mode {mode!r}")
    exact = mode == "exact"
    pool = HypothesisPool(
        tuple(MistakeDichotomy.from_string(r) for r in doc["pool"]["rows"]),
        origin=doc["pool"].get("origin", "synthetic"),
    )
    rule = _decode_rule(doc["rule"])
    n = pool.n_points
    initial = WeightVector(tuple(_decode_scalar(c, mode) for c in doc["initial_weights"]))
    if len(initial) != n:
        raise TraceFormatError(f"initial_weights has {len(initial)} components, pool rows {n}")
    records = doc["steps"]
    if records and "weights" not in records[-1]:
        raise TraceFormatError(f"step {len(records) - 1}: the last step has no weights checkpoint")
    row_strings = [r.to_string() for r in pool.rows]
    w = initial
    since = 0  # updates replayed since the last stored weights
    steps = []
    for t, rec in enumerate(records):
        if "t" in rec and rec["t"] != t:
            raise TraceFormatError(f"step {t}: recorded t is {rec['t']!r}")
        row = int(rec["row"])
        if not 0 <= row < len(pool):
            raise TraceFormatError(f"step {t}: row {row} outside pool of {len(pool)} rows")
        if "eta" in rec and rec["eta"] != row_strings[row]:
            raise TraceFormatError(f"step {t}: eta {rec['eta']!r} is not pool row {row}")
        eta = pool[row]
        edge = _decode_scalar(rec["r_exact"], mode) if exact else float(rec["r"])
        try:
            a = alpha(edge)
        except ValueError:
            raise TraceFormatError(f"step {t}: edge {edge} outside (0, 1)") from None
        if "alpha" in rec and abs(float(rec["alpha"]) - a) > ALPHA_REL_TOL * a:
            raise TraceFormatError(f"step {t}: alpha {rec['alpha']!r} is not alpha(r) = {a!r}")
        if not exact:
            replayed_edge = edge_dot(w, eta)
            if abs(replayed_edge - edge) > SCREEN_MARGIN * n + _replay_drift(since, n):
                raise TraceFormatError(
                    f"step {t}: edge {edge!r} is not the edge of row {row} on the replayed "
                    f"weights ({replayed_edge!r})"
                )
        try:
            w = weight_update(w, eta, edge)
        except ValueError:
            # exact mode: the update kept the sum at 1 only if r is the edge
            raise TraceFormatError(
                f"step {t}: edge {edge} is not the edge of row {row} on the replayed weights"
            ) from None
        since += 1
        if "weights" in rec:
            stored = WeightVector(tuple(_decode_scalar(c, mode) for c in rec["weights"]))
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
    return BoostTrace(mode, pool, rule, initial, tuple(steps), doc.get("halt"))


def dumps_trace(trace: BoostTrace, provenance: Optional[Dict[str, object]] = None) -> str:
    """The trace as JSON, one step record per line (json's C encoder: no
    indent)."""
    doc = trace_to_dict(trace, provenance)
    steps = ",\n".join(map(json.dumps, doc.pop("steps")))
    return f'{json.dumps(doc)[:-1]}, "steps": [\n{steps}\n]}}\n'


def loads_trace(text: str) -> BoostTrace:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"not valid JSON: {exc}") from exc
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


def load_trace(path: str) -> BoostTrace:
    with open(path) as fh:
        return loads_trace(fh.read())


def trace_provenance(path: str) -> Dict[str, object]:
    """The provenance block of a trace file (not part of the BoostTrace value)."""
    with open(path) as fh:
        doc = json.loads(fh.read())
    return doc.get("provenance", {})


def load_pool(path: str) -> HypothesisPool:
    """Read a pool file: one '+--+' line per dichotomy, blank lines and
    #-comments ignored."""
    rows: List[MistakeDichotomy] = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
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


def save_pool(pool: HypothesisPool, path: str) -> None:
    with open(path, "w") as fh:
        for row in pool.rows:
            fh.write(row.to_string() + "\n")
