"""`analyze` on a trace that repeats bit for bit: the per-transition kernels
(periodic learning, edge update, subsums) run on transitions 1 .. onset +
period + 1 only, and every later transition reads the result of the one a
whole number of periods before it (`cycles.transition_index`).

Differential: the same trace read as one with no bit repeat takes the
identity index, so every kernel runs on every transition and the cycle
detection walks back over the whole tiled region. Both readings must give
equal CycleReports and CheckResults, and the CLI the same stdout and
`--json` bytes. A spy checks how many transitions the kernels see.
"""

from __future__ import annotations

from dataclasses import fields, replace

import numpy as np
import pytest

from boostcycles import BoostTrace, HypothesisPool, Optimal, run
from boostcycles import cycles
from boostcycles.cli import main
from boostcycles.cycles import ALL_CHECKS, CHECKS, TransitionGroups, analyze_trace, transition_groups
from boostcycles.traceio import dumps_trace

from test_repeat_traces import named_runs  # noqa: F401 - a fixture

# An `optimal` run whose bit cycle (onset 166, period 10) misclassifies a
# point twice in a row: its tiled transitions carry edge-update mismatches.
VIOLATING_POOL = HypothesisPool.from_signs(
    [
        (1, -1, 1, -1, 1),
        (1, -1, 1, 1, 1),
        (-1, 1, -1, -1, 1),
        (1, 1, -1, -1, -1),
        (-1, 1, 1, 1, -1),
        (-1, 1, 1, -1, -1),
    ]
)


@pytest.fixture(scope="module")
def corpus(named_runs, fuzz_float_cycles, golden_exact):  # noqa: F811
    traces = [*named_runs.items(), ("violating", run(VIOLATING_POOL, Optimal(), 300, "float"))]
    traces += [(f"fuzz-{i}", trace) for i, (trace, _) in enumerate(fuzz_float_cycles) if trace.repeat is not None]
    # no bit repeat (as the halted `fixed:0,0,1` run): the identity index
    return traces + [("exact", golden_exact)]


def without_repeat(trace: BoostTrace) -> BoostTrace:
    """The same columns, read as a trace with no bit repeat."""
    plain = replace(trace)
    plain.__dict__["repeat"] = None
    return plain


def test_corpus(corpus):
    repeats = [trace.repeat for _, trace in corpus if trace.repeat is not None]
    assert len(repeats) >= 20
    names = {name for name, trace in corpus if trace.repeat is not None}
    assert {"golden", "first-above:2/5", "fixed:0,1,2", "fixed:0,1,2,0,1,2", "iris", "violating"} <= names
    # every repeating trace is longer than the transitions evaluated
    assert all(len(trace) > sum(trace.repeat) + 2 for _, trace in corpus if trace.repeat is not None)


def test_index():
    trace = run(VIOLATING_POOL, Optimal(), 300, "float")
    assert trace.repeat == (166, 10)
    index = cycles.transition_index(trace)
    assert len(index) == 299 and index.max() == 176
    # transition t (row t - 1) repeats transition t - 10 from t = 178 on
    assert (index[:177] == np.arange(177)).all()
    assert (index[177:] == 167 + (np.arange(177, 299) - 167) % 10).all()
    assert (cycles.transition_index(without_repeat(trace)) == np.arange(299)).all()


def test_index_reads_equal_inputs(corpus):
    """Every transition's groups, masks, weights and edges are, bit for
    bit, those of the evaluated transition the index maps it to."""
    for name, trace in corpus:
        if len(trace) < 2:
            continue
        index = cycles.transition_index(trace)
        full, evaluated = transition_groups(trace), transition_groups(trace, int(index.max()) + 1)
        assert len(evaluated.r_prev) == (len(trace) - 1 if trace.repeat is None else sum(trace.repeat) + 1), name
        for field in fields(TransitionGroups):
            tiled = getattr(evaluated, field.name)[index]
            assert tiled.tobytes() == getattr(full, field.name).tobytes() or (
                trace.mode == "exact" and (tiled == getattr(full, field.name)).all()
            ), (name, field.name)


def test_reports_and_results_equal_every_transition(corpus):
    for name, trace in corpus:
        report, results = analyze_trace(trace)
        assert (report, results) == analyze_trace(without_repeat(trace)), name
        # the checks evaluated directly on the groups of every transition
        full = transition_groups(trace) if len(trace) >= 2 else None
        identity = np.arange(len(trace) - 1) if len(trace) >= 2 else None
        assert results == [CHECKS[c](trace, report, full, identity, 1e-9) for c in ALL_CHECKS], name


def test_tiled_mismatches_are_listed():
    trace = run(VIOLATING_POOL, Optimal(), 300, "float")
    results = {r.name: r for r in analyze_trace(trace)[1]}
    mismatch = results["edge-update"].data["mismatch_iterations"]
    assert results["edge-update"].ok and results["edge-update"].data["steps_checked"] == 299
    tiled = [t for t in mismatch if t >= 178]
    assert tiled and all(t - 10 in mismatch for t in tiled)
    assert not results["periodic-learning"].ok
    assert results["subsums"].data["steps_skipped"] == len(mismatch)


def test_cli_bytes_equal_every_transition(corpus, tmp_path, capsys, monkeypatch):
    path, report = tmp_path / "t.json", tmp_path / "r.json"
    for name, trace in corpus:
        path.write_text(dumps_trace(trace))
        outputs = []
        for repeat in (BoostTrace.repeat, property(lambda self: None)):
            with monkeypatch.context() as patch:
                patch.setattr(BoostTrace, "repeat", repeat)
                code = main(["analyze", str(path), "--json", str(report)])
            outputs.append((code, capsys.readouterr().out, report.read_bytes()))
        assert outputs[0] == outputs[1], name


def test_kernels_see_the_evaluated_transitions(corpus, monkeypatch):
    """The checks read a trace's transitions only through the groups that
    analyze_trace builds, and the edge-update and subsums kernels sum them
    through `_mass`; neither sees more than onset + period + 1 rows."""
    seen = []
    groups_of, mass = cycles.transition_groups, TransitionGroups._mass

    def spy_groups(trace, stop=None):
        groups = groups_of(trace, stop)
        seen.append(len(groups.j_minus))
        return groups

    def spy_mass(groups, mask):
        seen.append(len(mask))
        return mass(groups, mask)

    monkeypatch.setattr(cycles, "transition_groups", spy_groups)
    monkeypatch.setattr(TransitionGroups, "_mass", spy_mass)
    for name, trace in corpus:
        if trace.repeat is None:
            continue
        seen.clear()
        analyze_trace(replace(trace))  # a fresh trace: nothing cached by an earlier analysis
        assert len(seen) > 1 and max(seen) <= sum(trace.repeat) + 1, name


def test_each_named_check_runs_once(tmp_path, capsys):
    trace = run(VIOLATING_POOL, Optimal(), 300, "float")
    names = [r.name for r in analyze_trace(trace, checks=["subsums", "farey", "subsums"])[1]]
    assert names == ["subsums", "farey"]
    path, report = tmp_path / "t.json", tmp_path / "r.json"
    path.write_text(dumps_trace(trace))
    outputs = []
    for checks in ("subsums,farey,subsums,farey", "subsums,farey"):
        code = main(["analyze", str(path), "--check", checks, "--json", str(report)])
        outputs.append((code, capsys.readouterr().out, report.read_bytes()))
    assert outputs[0] == outputs[1]
    assert [line.split(":")[0] for line in outputs[0][1].splitlines() if line.startswith("check ")] == [
        "check subsums",
        "check farey",
    ]
