"""Trace and pool file formats.

Traces are schema-versioned JSON documents that round-trip losslessly:
exact scalars are stored as `p/q` strings, floats as JSON numbers (whose
shortest-repr encoding is exact). Pools are plain text, one dichotomy per
line over the alphabet {+, -}.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, List, Optional, Union

from .engine import (
    BoostStep,
    BoostTrace,
    FirstAbove,
    FixedSequence,
    Optimal,
    SelectionRule,
)
from .simplex import HypothesisPool, MistakeDichotomy, Scalar, WeightVector

TRACE_SCHEMA = "boostcycles-trace-v1"


class TraceFormatError(ValueError):
    """The document is not a valid trace file."""


def _encode_scalar(value: Scalar, mode: str) -> Union[str, float]:
    if mode == "exact":
        return str(Fraction(value))
    return float(value)


def _decode_scalar(value: Union[str, float, int], mode: str) -> Scalar:
    if mode == "exact":
        return Fraction(value)
    return float(value)


def _encode_rule(rule: SelectionRule, mode: str) -> Dict[str, object]:
    if isinstance(rule, Optimal):
        return {"kind": "optimal"}
    if isinstance(rule, FirstAbove):
        return {"kind": "first_above", "theta": _encode_scalar(rule.theta, mode)}
    if isinstance(rule, FixedSequence):
        return {"kind": "fixed_sequence", "rows": list(rule.rows)}
    raise TraceFormatError(f"unknown rule {rule!r}")


def _decode_rule(doc: Dict[str, object], mode: str) -> SelectionRule:
    kind = doc.get("kind")
    if kind == "optimal":
        return Optimal()
    if kind == "first_above":
        return FirstAbove(_decode_scalar(doc["theta"], mode))
    if kind == "fixed_sequence":
        return FixedSequence(tuple(int(r) for r in doc["rows"]))
    raise TraceFormatError(f"unknown rule kind {kind!r}")


def trace_to_dict(trace: BoostTrace, provenance: Optional[Dict[str, object]] = None) -> Dict:
    mode = trace.mode
    steps = []
    for s in trace.steps:
        record = {
            "t": s.t,
            "row": s.row,
            "eta": s.eta.to_string(),
            "r": float(s.edge),
            "alpha": s.alpha,
            "weights": [_encode_scalar(c, mode) for c in s.weights_after],
        }
        if mode == "exact":
            record["r_exact"] = str(Fraction(s.edge))
        steps.append(record)
    doc = {
        "schema": TRACE_SCHEMA,
        "mode": mode,
        "rule": _encode_rule(trace.rule, mode),
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
    if doc.get("schema") != TRACE_SCHEMA:
        raise TraceFormatError(f"unsupported schema {doc.get('schema')!r}")
    mode = doc["mode"]
    if mode not in ("exact", "float"):
        raise TraceFormatError(f"unknown mode {mode!r}")
    pool = HypothesisPool(
        tuple(MistakeDichotomy.from_string(r) for r in doc["pool"]["rows"]),
        origin=doc["pool"].get("origin", "synthetic"),
    )
    rule = _decode_rule(doc["rule"], mode)
    n = pool.n_points
    initial = WeightVector(tuple(_decode_scalar(c, mode) for c in doc["initial_weights"]))
    if len(initial) != n:
        raise TraceFormatError(f"initial_weights has {len(initial)} components, pool rows {n}")
    row_strings = [r.to_string() for r in pool.rows]
    steps = []
    for rec in doc["steps"]:
        edge = (
            Fraction(rec["r_exact"]) if mode == "exact" else float(rec["r"])
        )
        row = int(rec["row"])
        if not 0 <= row < len(pool):
            raise TraceFormatError(f"step {rec['t']}: row {row} outside pool of {len(pool)} rows")
        if rec["eta"] != row_strings[row]:
            raise TraceFormatError(f"step {rec['t']}: eta {rec['eta']!r} is not pool row {row}")
        weights = WeightVector(tuple(_decode_scalar(c, mode) for c in rec["weights"]))
        if len(weights) != n:
            raise TraceFormatError(f"step {rec['t']}: weights have {len(weights)} components, pool rows {n}")
        steps.append(
            BoostStep(
                t=int(rec["t"]),
                row=row,
                eta=pool[row],
                edge=edge,
                alpha=float(rec["alpha"]),
                weights_after=weights,
            )
        )
    return BoostTrace(mode, pool, rule, initial, tuple(steps), doc.get("halt"))


def dumps_trace(trace: BoostTrace, provenance: Optional[Dict[str, object]] = None) -> str:
    return json.dumps(trace_to_dict(trace, provenance), indent=1) + "\n"


def loads_trace(text: str) -> BoostTrace:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise TraceFormatError("trace document must be a JSON object")
    try:
        return trace_from_dict(doc)
    except (KeyError, TypeError, ValueError) as exc:
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
