"""The benchmark's per-layer metrics read spans that its tracer wraps around
the program's public functions. A metric whose function was deleted or
renamed is reported as absent and left out of the benchmark's result, so a
refactor must keep every function a metric names. The benchmark's files are
read here, not imported: nothing is written next to them."""

from __future__ import annotations

import types
from pathlib import Path

import boostcycles
from boostcycles import traceio

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load(name: str) -> types.ModuleType:
    """perfbench/<name>.py as a module, executed from its source."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def test_every_per_layer_metric_has_its_spans():
    spans, bench = load("spans"), load("run")
    original = traceio.load_trace
    tracer = spans.Tracer()
    try:
        tracer.install(boostcycles)
        # what run.py reports as absent
        absent = [
            name
            for name, (_, span) in bench.PER_LAYER.items()
            if not tracer.wrapped.issuperset(((span,) if span else ()) + bench.DERIVED_FROM.get(name, ()))
        ]
        assert traceio.load_trace is not original
    finally:
        tracer.uninstall()
    assert traceio.load_trace is original
    assert absent == []
    assert len(bench.PER_LAYER) == 34
