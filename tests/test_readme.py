"""The README's Python example runs as written, and the library prints
nothing to stdout: the command line (`cli.main`) is its only writer there, so
a harness that reads the last line of a command's output reads a result."""

import re
from fractions import Fraction
from pathlib import Path

import boostcycles as bc
from boostcycles.cycles import analyze_trace
from boostcycles.figures import save_figure
from boostcycles.traceio import dumps_trace, load_trace, loads_trace, save_trace

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_example_runs(capsys):
    (example,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace = {}
    exec(compile(example, str(README), "exec"), namespace)
    assert capsys.readouterr().out.splitlines()[0] == repr(
        tuple(Fraction(p, q) for p, q in ((1, 3), (1, 2), (2, 3), (3, 5), (5, 8), (8, 13)))
    )
    edges = namespace["exact"].edges()
    assert len(edges) == 31 and all(type(r) is Fraction for r in edges)


def test_every_exported_name_resolves():
    assert [name for name in bc.__all__ if not hasattr(bc, name)] == []
    assert len(set(bc.__all__)) == len(bc.__all__)


def test_import_prints_nothing(run_python, tmp_path):
    done = run_python(
        "import boostcycles, boostcycles.cli, boostcycles.cycles, boostcycles.engine, boostcycles.farey, "
        "boostcycles.figures, boostcycles.learners, boostcycles.simplex, boostcycles.traceio\n",
        tmp_path,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "" and done.stderr == ""


def test_library_prints_nothing(capsys, tmp_path):
    pool = bc.HypothesisPool.from_signs([(-1, 1, 1), (1, -1, 1), (1, 1, -1)])
    for mode in ("exact", "float"):
        trace = bc.run(pool, bc.Optimal(), 300, mode)
        path = tmp_path / f"{mode}.json"
        save_trace(trace, str(path))
        assert loads_trace(dumps_trace(load_trace(str(path)))) == trace
        analyze_trace(trace)
        trace.steps[-1]
    bc.detect_cycle(bc.run(pool, bc.FirstAbove(0.4), 500, "float"))
    list(bc.enumerate_orbits(3))
    save_figure([0.3, 0.5], str(tmp_path / "f.svg"), "edges")
    assert capsys.readouterr().out == ""
