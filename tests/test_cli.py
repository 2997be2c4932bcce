import argparse
import json
from fractions import Fraction
from importlib import resources
from xml.dom import minidom

import pytest

from boostcycles.cli import main
from boostcycles.engine import BoostTrace
from boostcycles.traceio import _parse_ratio, load_trace

from test_traceio import v2_dumps_trace

DATA = resources.files("boostcycles") / "data"
POOL3 = str(DATA / "three_dichotomies.pool")
IRIS = str(DATA / "iris.csv")
SYNTH3 = str(DATA / "synthetic3.csv")


def run_cli(*argv):
    return main(list(argv))


def assert_dropped_row_warning(err, csv):
    # one line of the CLI's own beside any error line, naming neither the
    # program's files nor its source
    lines = [line for line in err.splitlines() if not line.startswith("error:")]
    assert lines == [f"warning: {csv}: dropped 1 rows with unusable cells"]
    assert "cli.py" not in err


@pytest.fixture()
def golden_trace_file(tmp_path):
    path = tmp_path / "golden.json"
    assert (
        run_cli(
            "run", "--pool", POOL3, "--rule", "optimal", "--iters", "200",
            "--mode", "float", "--out", str(path),
        )
        == 0
    )
    return str(path)


@pytest.fixture()
def golden_v2_trace_file(golden_trace_file):
    """The golden run's file rewritten in the v2 layout, which has a record
    for every step (its own layout stores 42 of the 200)."""
    with open(golden_trace_file) as fh:
        provenance = json.load(fh)["provenance"]
    text = v2_dumps_trace(load_trace(golden_trace_file), provenance)
    with open(golden_trace_file, "w") as fh:
        fh.write(text)
    return golden_trace_file


class TestRun:
    def test_pool_run_tail_edge(self, golden_trace_file):
        trace = load_trace(golden_trace_file)
        assert abs(trace.steps[-1].edge - 0.6180339887498949) < 1e-9

    def test_two_cycle_run(self, tmp_path):
        path = tmp_path / "two.json"
        assert (
            run_cli(
                "run", "--pool", POOL3, "--rule", "first-above:2/5", "--iters", "500",
                "--mode", "float", "--out", str(path),
            )
            == 0
        )
        tail = load_trace(str(path)).edges()[-2:]
        assert sorted(round(e, 9) for e in tail) == [0.414213562, 0.707106781]

    def test_stdout_trace(self, capsys):
        assert run_cli("run", "--pool", POOL3, "--rule", "optimal", "--iters", "3", "--mode", "exact") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "boostcycles-trace-v2"
        assert [s["r_exact"] for s in doc["steps"]] == ["1/3", "1/2", "2/3"]

    def test_zero_iters_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--pool", POOL3, "--rule", "optimal", "--iters", "0")
        assert exc.value.code == 2

    def test_conflicting_sources(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "run", "--pool", POOL3, "--dataset", IRIS, "--rule", "optimal",
                "--iters", "5",
            )
        assert exc.value.code == 2

    def test_bad_rule_syntax(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--pool", POOL3, "--rule", "best-effort", "--iters", "5")
        assert exc.value.code == 2

    def test_missing_pool_file(self, tmp_path):
        assert (
            run_cli("run", "--pool", str(tmp_path / "nope.pool"), "--rule", "optimal", "--iters", "5")
            == 4
        )

    def test_unequal_pool_rows_io_error(self, tmp_path, capsys):
        pool = tmp_path / "bad.pool"
        pool.write_text("-++\n+-\n")
        assert run_cli("run", "--pool", str(pool), "--iters", "5") == 4
        assert "bad.pool:2" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_threshold_beyond_a_double_usage_error(self, capsys, mode):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--pool", POOL3, "--rule", "first-above:1e400", "--iters", "5", "--mode", mode)
        assert exc.value.code == 2
        assert "threshold must lie in (0, 1)" in capsys.readouterr().err

    def test_non_utf8_pool_io_error(self, tmp_path, capsys):
        pool = tmp_path / "latin1.pool"
        pool.write_bytes(b"-++\n+\xe9+\n")
        assert run_cli("run", "--pool", str(pool), "--iters", "5") == 4
        assert "latin1.pool" in capsys.readouterr().err

    def test_byte_order_mark_dataset(self, tmp_path, capsys):
        csv = tmp_path / "bom.csv"
        csv.write_bytes("\ufefflabel,x\nb,1\na,2\nb,3\n".encode("utf-8"))
        code = run_cli("run", "--dataset", str(csv), "--label", "label", "--positive", "b", "--iters", "5")
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_byte_order_mark_pool(self, tmp_path, capsys):
        # a pool file that starts with a UTF-8 byte-order mark runs as the
        # same file without it
        traces = []
        for name, prefix in (("plain.pool", ""), ("bom.pool", "\ufeff")):
            pool = tmp_path / name
            pool.write_bytes((prefix + "-++\n+-+\n++-\n").encode("utf-8"))
            out = tmp_path / f"{name}.json"
            assert run_cli("run", "--pool", str(pool), "--iters", "30", "--out", str(out)) == 0
            traces.append(load_trace(str(out)))
        assert capsys.readouterr().err == ""
        assert traces[0] == traces[1]

    @pytest.mark.parametrize("seed", ["1", "2", "3"])
    def test_single_class_sample_io_error(self, tmp_path, capsys, seed):
        out = tmp_path / "s.json"
        code = run_cli(
            "run", "--dataset", IRIS, "--label", "species", "--positive", "versicolor",
            "--sample", "2", "--seed", seed, "--iters", "5", "--out", str(out),
        )
        assert code == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: ") and "single-class" in err
        assert not out.exists()

    def test_non_numeric_dataset_column_io_error(self, tmp_path, capsys):
        csv = tmp_path / "bad.csv"
        csv.write_text("x,color,label\n1.0,red,a\n2.0,blue,b\n3.0,red,a\n")
        code = run_cli(
            "run", "--dataset", str(csv), "--label", "label", "--positive", "a", "--iters", "5",
        )
        assert code == 4
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "replicate"])
    def test_infinite_feature_row_dropped(self, tmp_path, capsys, command):
        # an inf row used to be split off by a perfect stump whose threshold
        # came out as inf, so the stored tree sent it to the wrong side
        csv = tmp_path / "inf.csv"
        csv.write_text("x,label\n1,p\n1,p\ninf,n\n")
        argv = [
            command, "--dataset", str(csv), "--label", "label", "--positive", "p",
            "--depth", "1", "--leaves", "2", "--iters", "5",
        ]
        if command == "replicate":
            argv += ["--out-dir", str(tmp_path / "rep")]
        code = run_cli(*argv)
        assert code == 4
        err = capsys.readouterr().err
        assert_dropped_row_warning(err, csv)
        assert err.index("warning:") < err.index("single-class")

    def test_infinite_feature_with_finite_negative(self, tmp_path, capsys):
        csv = tmp_path / "inf.csv"
        csv.write_text("x,label\n1,p\n1,p\ninf,n\n2,n\n")
        out = tmp_path / "t.json"
        code = run_cli(
            "run", "--dataset", str(csv), "--label", "label", "--positive", "p",
            "--depth", "1", "--leaves", "2", "--iters", "5", "--out", str(out),
        )
        assert code == 0
        assert_dropped_row_warning(capsys.readouterr().err, csv)
        trace = load_trace(str(out))
        assert trace.halt == "perfect_classification"
        assert [row.entries for row in trace.pool.rows] == [(1, 1, 1)]

    def test_exact_round_trip_bytes(self, tmp_path):
        path = tmp_path / "exact.json"
        run_cli("run", "--pool", POOL3, "--rule", "optimal", "--iters", "25",
                "--mode", "exact", "--out", str(path))
        trace = load_trace(str(path))
        from boostcycles.traceio import save_trace

        path2 = tmp_path / "copy.json"
        save_trace(trace, str(path2), json.loads(path.read_text())["provenance"])
        assert path2.read_bytes() == path.read_bytes()


    @pytest.mark.parametrize("schedule", ["fixed:5", "fixed:-1", "fixed:0,3,1"])
    def test_fixed_row_outside_pool_usage_error(self, capsys, schedule):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--pool", POOL3, "--rule", schedule, "--iters", "5")
        assert exc.value.code == 2
        assert "outside pool of 3 rows" in capsys.readouterr().err


class TestNumericOptions:
    """Out-of-range numeric options are usage errors (exit 2), never a
    traceback or a misleading check result."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "{trace}", "--min-repeats", "1"],
            ["analyze", "{trace}", "--min-repeats", "-3"],
            ["analyze", "{trace}", "--tol", "nan"],
            ["analyze", "{trace}", "--tol", "-1"],
            ["analyze", "{trace}", "--tol", "0"],
            ["analyze", "{trace}", "--tol", "inf"],
            ["replicate", "--min-repeats", "1"],
            ["replicate", "--tol", "nan"],
            ["replicate", "--depth", "0"],
            ["replicate", "--leaves", "0"],
            ["replicate", "--sample", "0"],
            ["replicate", "--iters", "0"],
            ["run", "--dataset", SYNTH3, "--label", "label", "--positive", "a", "--iters", "5", "--depth", "0"],
            ["run", "--dataset", SYNTH3, "--label", "label", "--positive", "a", "--iters", "5", "--leaves", "0"],
            ["run", "--dataset", SYNTH3, "--label", "label", "--positive", "a", "--iters", "5", "--sample", "0"],
            ["run", "--dataset", SYNTH3, "--label", "label", "--positive", "a", "--iters", "5", "--sample", "-2"],
            ["plot", "{trace}", "--out", "{svg}", "--last", "0"],
            ["plot", "{trace}", "--out", "{svg}", "--last", "-5"],
        ],
    )
    def test_usage_error(self, golden_trace_file, tmp_path, argv):
        if argv[0] == "replicate":
            argv = argv[:1] + [
                "--dataset", SYNTH3, "--label", "label", "--positive", "a",
                "--out-dir", str(tmp_path / "rep"),
            ] + argv[1:]
        svg = tmp_path / "f.svg"
        argv = [a.format(trace=golden_trace_file, svg=svg) for a in argv]
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert not svg.exists() and not (tmp_path / "rep").exists()

    def test_smallest_valid_values(self, golden_trace_file, tmp_path):
        assert run_cli("analyze", golden_trace_file, "--min-repeats", "2", "--tol", "1e-300") in (0, 3)
        assert run_cli("plot", golden_trace_file, "--out", str(tmp_path / "f.svg"), "--last", "1") == 0
        svg = (tmp_path / "f.svg").read_text()
        assert "199.0," in svg and "198.0," not in svg  # only the last of 200 steps


class TestAnalyze:
    def test_golden_all_checks_pass(self, golden_trace_file, capsys):
        assert run_cli("analyze", golden_trace_file) == 0
        out = capsys.readouterr().out
        assert "period 3 (edges alone: 1)" in out
        assert "matched word: R" in out
        assert "check periodic-learning: pass" in out
        assert "check edge-update: pass" in out
        assert "check subsums: pass" in out
        assert "check farey: pass" in out
        assert "check agreement: pass" in out

    def test_json_report(self, golden_trace_file, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert run_cli("analyze", golden_trace_file, "--json", str(report_path)) == 0
        doc = json.loads(report_path.read_text())
        assert doc["cycle"]["period"] == 3
        assert doc["cycle"]["edge_period"] == 1
        assert doc["cycle"]["farey_word"] == "R"
        assert doc["checks"]["subsums"]["pass"]

    def test_non_cycling_trace_reports_no_cycle(self, tmp_path, capsys):
        path = tmp_path / "short.json"
        run_cli("run", "--pool", POOL3, "--rule", "optimal", "--iters", "10",
                "--mode", "exact", "--out", str(path))
        assert run_cli("analyze", str(path)) == 0
        out = capsys.readouterr().out
        assert "no cycle detected" in out
        assert "check edge-update: pass" in out

    @pytest.mark.parametrize("mode", ["float", "exact"])
    @pytest.mark.parametrize("rows, steps", [("++-\n-+-\n--+\n", 1), ("+--\n", 0)], ids=["1-step", "0-step"])
    def test_trace_shorter_than_two_steps(self, tmp_path, capsys, mode, rows, steps):
        # too short to break an identity: the default checks exit 0 and
        # print the same lines, and a requested identity check still fails
        pool_path = tmp_path / "p.pool"
        pool_path.write_text(rows)
        path = tmp_path / "short.json"
        run_cli("run", "--pool", str(pool_path), "--iters", "10", "--mode", mode, "--out", str(path))
        assert len(load_trace(str(path))) == steps
        capsys.readouterr()
        assert run_cli("analyze", str(path), "--json", str(tmp_path / "r.json")) == 0
        out = capsys.readouterr().out
        assert "check edge-update: FAIL - trace too short" in out
        assert "check subsums: FAIL - trace too short" in out
        checks = json.loads((tmp_path / "r.json").read_text())["checks"]
        assert not checks["edge-update"]["pass"] and not checks["subsums"]["pass"]
        assert run_cli("analyze", str(path), "--check", "edge-update") == 3
        assert run_cli("analyze", str(path), "--check", "subsums") == 3

    def test_requested_check_failure_exits_3(self, tmp_path, capsys):
        path = tmp_path / "short.json"
        run_cli("run", "--pool", POOL3, "--rule", "optimal", "--iters", "10",
                "--mode", "exact", "--out", str(path))
        assert run_cli("analyze", str(path), "--check", "farey") == 3

    def test_forced_j_minus_reported_but_theorem_holds(self, tmp_path, capsys):
        pool_path = tmp_path / "wide.pool"
        pool_path.write_text("--+++\n-++++\n++-++\n")
        trace_path = tmp_path / "forced.json"
        run_cli("run", "--pool", str(pool_path), "--rule", "fixed:0,1,2",
                "--iters", "3", "--mode", "exact", "--out", str(trace_path))
        assert run_cli("analyze", str(trace_path)) == 0
        out = capsys.readouterr().out
        assert "differs exactly where J- is nonempty: iterations [1]" in out
        assert run_cli("analyze", str(trace_path), "--check", "periodic-learning") == 3

    def test_unknown_check_usage_error(self, golden_trace_file):
        with pytest.raises(SystemExit) as exc:
            run_cli("analyze", golden_trace_file, "--check", "margins")
        assert exc.value.code == 2

    @pytest.mark.parametrize("checks", [",", "", " , "])
    def test_empty_check_list_usage_error(self, golden_trace_file, checks):
        with pytest.raises(SystemExit) as exc:
            run_cli("analyze", golden_trace_file, "--check", checks)
        assert exc.value.code == 2

    def test_malformed_trace_io_error(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{]")
        assert run_cli("analyze", str(path)) == 4

    @pytest.mark.parametrize("command", ["analyze", "plot"])
    def test_non_utf8_trace_io_error(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"schema": "\xff"}')
        options = ["--out", str(tmp_path / "f.svg")] if command == "plot" else []
        assert run_cli(command, str(path), *options) == 4
        assert "latin1.json" in capsys.readouterr().err

    def test_byte_order_mark_trace(self, golden_trace_file, tmp_path, capsys):
        # a trace file that starts with a UTF-8 byte-order mark reads as the
        # same file without it
        bom = tmp_path / "bom.json"
        with open(golden_trace_file, "rb") as fh:
            bom.write_bytes(b"\xef\xbb\xbf" + fh.read())
        assert load_trace(str(bom)) == load_trace(golden_trace_file)
        assert run_cli("analyze", golden_trace_file) == 0
        expected = capsys.readouterr().out
        assert run_cli("analyze", str(bom)) == 0
        assert capsys.readouterr().out == expected

    def test_deeply_nested_trace_io_error(self, tmp_path, capsys):
        path = tmp_path / "nested.json"
        path.write_text("[" * 200000)
        assert run_cli("analyze", str(path)) == 4
        assert "nested too deeply" in capsys.readouterr().err

    def test_initial_weights_wider_than_pool_io_error(self, golden_v2_trace_file):
        with open(golden_v2_trace_file) as fh:
            doc = json.load(fh)
        w = doc["initial_weights"]
        w[-1] /= 2  # split the last weight in two, so the weights still sum to 1
        w.append(w[-1])
        with open(golden_v2_trace_file, "w") as fh:
            json.dump(doc, fh)
        assert run_cli("analyze", golden_v2_trace_file) == 4

    def test_nan_step_weights_io_error(self, golden_v2_trace_file):
        with open(golden_v2_trace_file) as fh:
            doc = json.load(fh)
        doc["steps"][-1]["weights"][0] = float("nan")  # the last step always has weights
        with open(golden_v2_trace_file, "w") as fh:
            json.dump(doc, fh)  # writes the bare token NaN, which json.load accepts
        assert run_cli("analyze", golden_v2_trace_file) == 4


class TestFarey:
    def test_enumerate_k1(self, capsys):
        assert run_cli("farey", "enumerate", "--k", "1", "--exact") == 0
        out = capsys.readouterr().out
        assert "L: degenerate (fixed point 0)" in out
        assert "R: primitive" in out
        assert "(-1/2+1/2*sqrt(5))" in out
        assert "0.61803398874989484820458683436563811772030917980576" in out

    def test_enumerate_k2(self, capsys):
        assert run_cli("farey", "enumerate", "--k", "2", "--exact") == 0
        out = capsys.readouterr().out
        assert "LR: primitive" in out
        assert "RR: power word, primitive period 1" in out
        assert "(-1+1*sqrt(2))" in out
        assert "(0+1/2*sqrt(2))" in out

    def test_enumerate_bounds(self):
        for k in ("0", "21", "25"):
            with pytest.raises(SystemExit) as exc:
                run_cli("farey", "enumerate", "--k", k)
            assert exc.value.code == 2

    def test_orbit_word(self, capsys):
        assert run_cli("farey", "orbit", "--word", "RL", "--exact") == 0
        out = capsys.readouterr().out
        assert "(-1+1*sqrt(2))" in out and "(0+1/2*sqrt(2))" in out

    def test_orbit_degenerate(self, capsys):
        assert run_cli("farey", "orbit", "--word", "LLL") == 0
        assert "degenerate" in capsys.readouterr().out

    def test_orbit_bad_word(self):
        with pytest.raises(SystemExit) as exc:
            run_cli("farey", "orbit", "--word", "RLX")
        assert exc.value.code == 2


class TestReplicate:
    def test_synthetic_stump_replication(self, tmp_path, capsys):
        out_dir = tmp_path / "rep"
        assert (
            run_cli(
                "replicate", "--dataset", SYNTH3, "--label", "label", "--positive", "a",
                "--depth", "1", "--leaves", "2", "--iters", "400",
                "--out-dir", str(out_dir),
            )
            == 0
        )
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["cycle_found"] and summary["periodic_learning_holds"]
        assert 0.60 <= summary["mean_cycling_edge"] <= 0.64
        assert (out_dir / "edges.svg").read_text().startswith("<svg")
        row = capsys.readouterr().out
        assert "cycle=yes" in row and "periodic-learning=holds" in row
        # the produced trace feeds straight back into analysis
        assert run_cli("analyze", str(out_dir / "trace.json")) == 0
        out = capsys.readouterr().out
        assert "matched word: R" in out

    def test_missing_dataset_file(self, tmp_path):
        assert (
            run_cli(
                "replicate", "--dataset", str(tmp_path / "nope.csv"), "--label", "a",
                "--positive", "b", "--out-dir", str(tmp_path / "rep"),
            )
            == 4
        )


class TestPlot:
    def test_plot_with_reference(self, golden_trace_file, tmp_path, capsys):
        out = tmp_path / "fig.svg"
        assert run_cli("plot", golden_trace_file, "--out", str(out), "--ref", "golden") == 0
        svg = out.read_text()
        assert "(sqrt(5)-1)/2" in svg and "<!-- data" in svg

    def test_points_match_trace_exactly(self, golden_trace_file, tmp_path):
        out = tmp_path / "fig.svg"
        run_cli("plot", golden_trace_file, "--out", str(out))
        svg = out.read_text()
        trace = load_trace(golden_trace_file)
        for s in trace.steps[-5:]:
            assert f"{float(s.t)!r},{s.edge!r}" in svg

    def test_deterministic_output(self, golden_trace_file, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run_cli("plot", golden_trace_file, "--out", str(a), "--ref", "golden")
        run_cli("plot", golden_trace_file, "--out", str(b), "--ref", "golden")
        assert a.read_bytes() == b.read_bytes()

    def test_tail_converges_to_reference(self, golden_trace_file):
        trace = load_trace(golden_trace_file)
        golden = 0.6180339887498949
        assert all(abs(s.edge - golden) < 1e-6 for s in trace.steps[-100:])

    def test_bad_ref_value(self, golden_trace_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            run_cli("plot", golden_trace_file, "--out", str(tmp_path / "f.svg"), "--ref", "gold")
        assert exc.value.code == 2

    def test_ref_value_beyond_a_double(self, golden_trace_file, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("plot", golden_trace_file, "--out", str(tmp_path / "f.svg"), "--ref", "1e400")
        assert exc.value.code == 2
        assert "bad reference value '1e400'" in capsys.readouterr().err

    def test_title_is_escaped(self, golden_trace_file, tmp_path):
        out = tmp_path / "e.svg"
        assert run_cli("plot", golden_trace_file, "--out", str(out), "--title", "R&D <edges>") == 0
        title = minidom.parse(str(out)).getElementsByTagName("text")[0]
        assert title.firstChild.data == "R&D <edges>"

    def test_title_not_utf8(self, run_python, golden_trace_file, tmp_path):
        # an argv byte that is not UTF-8 decodes to a lone surrogate, which
        # the SVG holds as U+FFFD
        argv = ["plot", golden_trace_file, "--out", "t.svg", "--title", b"a\xffb"]
        proc = run_python("import sys\nfrom boostcycles.cli import main\nsys.exit(main())", tmp_path, args=argv)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        title = minidom.parse(str(tmp_path / "t.svg")).getElementsByTagName("text")[0]
        assert title.firstChild.data == "a\ufffdb"

    def test_dataset_name_is_escaped(self, tmp_path):
        csv = tmp_path / "R&D <1>.csv"
        csv.write_bytes(open(SYNTH3, "rb").read())
        out_dir = tmp_path / "rep"
        assert run_cli(
            "replicate", "--dataset", str(csv), "--label", "label", "--positive", "a",
            "--depth", "1", "--leaves", "2", "--iters", "50", "--out-dir", str(out_dir),
        ) == 0
        title = minidom.parse(str(out_dir / "edges.svg")).getElementsByTagName("text")[0]
        assert title.firstChild.data == "edge values: R&D <1>.csv"


class TestTinyTolerance:
    """A tol so small that tol / 10 overflows the collision keys (or is 0)
    used to end in an OverflowError or ZeroDivisionError traceback."""

    @pytest.fixture()
    def trace300(self, tmp_path):
        path = tmp_path / "t300.json"
        assert run_cli("run", "--pool", POOL3, "--iters", "300", "--mode", "float", "--out", str(path)) == 0
        return str(path)

    @pytest.mark.parametrize("tol", ["1e-320", "5e-324"])
    def test_analyze(self, trace300, capsys, tol):
        # the float orbit repeats bit for bit, so even this tol finds the
        # cycle; the float identities fail by their rounding error
        assert run_cli("analyze", trace300, "--tol", tol) == 3
        out = capsys.readouterr().out
        assert "cycle: period 3 (edges alone: 3), phase 39, residual 0\n" in out
        assert "check edge-update: FAIL" in out

    @pytest.mark.parametrize("tol", ["1e-320", "5e-324"])
    def test_replicate(self, tmp_path, tol):
        out_dir = tmp_path / "rep"
        code = run_cli(
            "replicate", "--dataset", SYNTH3, "--label", "label", "--positive", "a",
            "--depth", "1", "--leaves", "2", "--iters", "300", "--tol", tol,
            "--out-dir", str(out_dir),
        )
        assert code == 0
        assert json.loads((out_dir / "summary.json").read_text())["iters_run"] == 300


class TestHugeExactNumbers:
    """Exact numbers past the interpreter's 4300-digit limit on int-to-str
    conversion are written in hexadecimal; smaller ones stay decimal."""

    POOL7 = "-+--+--\n--+-+--\n+--+-++\n---+-+-\n-++++++\n-----+-\n++-+--+\n-+++++-\n++++-+-\n+-++--+\n++-+---\n"

    def test_run_analyze_round_trip(self, tmp_path, capsys):
        from boostcycles.traceio import dumps_trace, loads_trace

        pool = tmp_path / "p7.pool"
        pool.write_text(self.POOL7)
        path = tmp_path / "t.json"
        assert run_cli(
            "run", "--pool", str(pool), "--rule", "first-above:1/5", "--iters", "30",
            "--mode", "exact", "--out", str(path),
        ) == 0
        out = capsys.readouterr().out
        text = path.read_text()
        doc = json.loads(text)
        # the line gives a long exact edge as a float and the length of its text
        last = doc["steps"][-1]["r_exact"]
        assert last.startswith("0x") and len(last) > 80
        assert out == f"wrote {path}: 30 steps, final edge {float(Fraction(*_parse_ratio(last))):.12g} (exact value in the trace, {len(last)} characters)\n"
        assert doc["steps"][0]["r_exact"] == "3/7"  # small values keep the decimal form
        assert any(w.startswith("0x") for w in doc["steps"][-1]["weights"])
        assert run_cli("analyze", str(path)) == 0
        trace = loads_trace(text)
        assert dumps_trace(trace, doc["provenance"]) == text
        assert len(str(trace.steps[0].edge)) < 10 and trace.steps[-1].edge.denominator.bit_length() > 14300

    def test_short_exact_edge_printed_in_full(self, tmp_path, capsys):
        path = tmp_path / "t.json"
        assert run_cli("run", "--pool", POOL3, "--iters", "6", "--mode", "exact", "--out", str(path)) == 0
        last = json.loads(path.read_text())["steps"][-1]["r_exact"]
        assert len(last) <= 80
        assert capsys.readouterr().out == f"wrote {path}: 6 steps, final edge {last}\n"


class TestExactFinalEdge:
    """`run --mode exact --out` prints the final edge from the last states
    row's reduced (p, q), with BoostTrace.state never called; the lines are
    those of the earlier printer, which read it through state(-1)."""

    @pytest.mark.parametrize(
        "source, tail",
        [
            (["--pool", POOL3, "--iters", "30"], "30 steps, final edge 832040/1346269"),
            (
                ["--pool", POOL3, "--iters", "300"],
                "300 steps, final edge 0.61803398875 (exact value in the trace, 127 characters)",
            ),
            (
                ["--dataset", IRIS, "--label", "species", "--positive", "versicolor", "--iters", "16"],
                "16 steps, final edge 0.588169047375 (exact value in the trace, 9063 characters)",
            ),
        ],
        ids=["pool-30", "pool-300", "iris-16"],
    )
    def test_line(self, tmp_path, capsys, monkeypatch, source, tail):
        def state(trace, t):
            raise AssertionError("BoostTrace.state was called")

        monkeypatch.setattr(BoostTrace, "state", state)
        path = tmp_path / "t.json"
        assert run_cli("run", *source, "--mode", "exact", "--out", str(path)) == 0
        assert capsys.readouterr().out == f"wrote {path}: {tail}\n"


class TestAnalyzeSharing:
    def test_json_carries_check_data(self, golden_trace_file, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert run_cli("analyze", golden_trace_file, "--json", str(report_path)) == 0
        checks = json.loads(report_path.read_text())["checks"]
        assert checks["periodic-learning"]["data"] == {"violation": None}
        assert checks["edge-update"]["data"] == {
            "steps_checked": 199, "mismatch_iterations": [], "broken_iterations": [],
        }
        assert checks["subsums"]["data"] == {"steps_verified": 199, "steps_skipped": 0, "failed_iteration": None}
        assert checks["farey"]["data"] == {"word": "R", "canonical": "R"}
        agreement = checks["agreement"]["data"]
        assert agreement["status"] == "agree_everywhere" and len(agreement["windows"]) == 2

    def test_json_data_locates_failures(self, tmp_path):
        pool_path = tmp_path / "wide.pool"
        pool_path.write_text("--+++\n-++++\n++-++\n")
        trace_path = tmp_path / "forced.json"
        run_cli("run", "--pool", str(pool_path), "--rule", "fixed:0,1,2",
                "--iters", "3", "--mode", "exact", "--out", str(trace_path))
        report_path = tmp_path / "report.json"
        assert run_cli("analyze", str(trace_path), "--json", str(report_path)) == 0
        checks = json.loads(report_path.read_text())["checks"]
        assert checks["periodic-learning"]["data"] == {"violation": {"point": 0, "iteration": 0}}
        assert checks["edge-update"]["data"]["mismatch_iterations"] == [1]
        assert checks["subsums"]["data"]["steps_skipped"] == 1

    @pytest.fixture()
    def counted(self, monkeypatch):
        """Calls of these functions, through any module's binding of them."""
        from boostcycles import cli, cycles

        calls = {"detect_cycle": 0, "partition": 0}
        for name in calls:
            real = getattr(cycles, name)

            def counting(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            for module in (cycles, cli):
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, counting)
        return calls

    def test_analyze_detects_once(self, golden_trace_file, counted):
        assert run_cli("analyze", golden_trace_file) == 0
        assert counted == {"detect_cycle": 1, "partition": 0}

    def test_replicate_detects_once(self, tmp_path, counted):
        assert run_cli(
            "replicate", "--dataset", SYNTH3, "--label", "label", "--positive", "a",
            "--depth", "1", "--leaves", "2", "--iters", "200", "--out-dir", str(tmp_path / "rep"),
        ) == 0
        assert counted == {"detect_cycle": 1, "partition": 0}


ZERO_STEP_CSV = "x,label\n0,a\n1,a\n2,b\n3,b\n"  # one stump splits it: halts before step 0


@pytest.fixture()
def zero_step_csv(tmp_path):
    path = tmp_path / "zero.csv"
    path.write_text(ZERO_STEP_CSV)
    return str(path)


class TestDatasetOptions:
    """The dataset options that `run` and `replicate` share."""

    SAMPLED = ["--dataset", IRIS, "--label", "species", "--positive", "versicolor",
               "--sample", "40", "--seed", "7", "--iters", "30"]

    def test_run_sample_seed(self, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            assert run_cli("run", *self.SAMPLED, "--out", str(path)) == 0
        provenance = json.loads(paths[0].read_text())["provenance"]
        assert provenance["sample_size"] == 40 and provenance["seed"] == 7
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_replicate_sample_seed(self, tmp_path):
        dirs = [tmp_path / "a", tmp_path / "b"]
        for out_dir in dirs:
            assert run_cli("replicate", *self.SAMPLED, "--out-dir", str(out_dir)) == 0
        provenance = json.loads((dirs[0] / "trace.json").read_text())["provenance"]
        assert provenance["sample_size"] == 40 and provenance["seed"] == 7
        summary = json.loads((dirs[0] / "summary.json").read_text())
        assert summary["sample_size"] == 40 and summary["seed"] == 7
        for name in ("trace.json", "summary.json"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    @pytest.mark.parametrize("sample", [["--sample", "20"], []], ids=["sampled", "unsampled"])
    @pytest.mark.parametrize("command", ["run", "replicate"])
    def test_negative_seed_usage_error(self, tmp_path, capsys, command, sample):
        # a usage error with or without --sample, before numpy sees the seed
        argv = [command, "--dataset", IRIS, "--label", "species", "--positive", "versicolor", *sample, "--seed", "-1"]
        if command == "run":
            argv += ["--iters", "3", "--out", str(tmp_path / "a.json")]
        else:
            argv += ["--out-dir", str(tmp_path / "rep")]
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert "argument --seed: must be at least 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "a.json").exists() and not (tmp_path / "rep").exists()

    @pytest.mark.parametrize("drop", ["--label", "--positive"])
    def test_run_dataset_needs_label_and_positive(self, capsys, drop):
        argv = ["run", "--dataset", SYNTH3, "--label", "label", "--positive", "a", "--iters", "5"]
        i = argv.index(drop)
        del argv[i : i + 2]
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 2
        assert "--dataset requires --label and --positive" in capsys.readouterr().err

    def test_run_dataset_rule_must_be_optimal(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--dataset", SYNTH3, "--label", "label", "--positive", "a",
                    "--rule", "fixed:0", "--iters", "5")
        assert exc.value.code == 2
        assert "only --rule optimal applies" in capsys.readouterr().err

    def test_short_csv_row_dropped(self, tmp_path, capsys):
        csv = tmp_path / "short.csv"
        csv.write_text("x,y,label\n1,2,a\n3,b\n4,5,b\n6,7,a\n8,9,b\n")
        out = tmp_path / "t.json"
        code = run_cli("run", "--dataset", str(csv), "--label", "label", "--positive", "a",
                       "--depth", "1", "--leaves", "2", "--iters", "3", "--out", str(out))
        assert code == 0
        assert_dropped_row_warning(capsys.readouterr().err, csv)
        provenance = json.loads(out.read_text())["provenance"]
        assert provenance["dropped_rows"] == 1 and provenance["n_rows"] == 4

    def test_dropped_row_warning_in_a_fresh_process(self, run_python, tmp_path):
        # outside pytest's warning capture, as a user's shell sees it
        csv = tmp_path / "short.csv"
        csv.write_text("x,y,label\n1,2,a\n3,b\n4,5,b\n6,7,a\n8,9,b\n")
        argv = ["run", "--dataset", str(csv), "--label", "label", "--positive", "a",
                "--depth", "1", "--leaves", "2", "--iters", "3"]
        proc = run_python(f"import sys\nfrom boostcycles.cli import main\nsys.exit(main({argv!r}))", tmp_path)
        assert proc.returncode == 0
        assert proc.stderr == f"warning: {csv}: dropped 1 rows with unusable cells\n"
        assert json.loads(proc.stdout)["provenance"]["dropped_rows"] == 1


class TestCliErrors:
    @pytest.mark.parametrize("rule, message", [
        ("first-above:abc", "bad threshold 'abc'"),
        ("fixed:a", "bad row schedule 'a'"),
    ])
    def test_bad_rule_argument(self, capsys, rule, message):
        with pytest.raises(SystemExit) as exc:
            run_cli("run", "--pool", POOL3, "--rule", rule, "--iters", "5")
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_orbit_power_word_note(self, capsys):
        assert run_cli("farey", "orbit", "--word", "RR") == 0
        assert "note: RR is a power word; primitive period 1\n" in capsys.readouterr().out

    def test_plot_zero_step_trace(self, zero_step_csv, tmp_path, capsys):
        trace_path = tmp_path / "zero.json"
        assert run_cli("run", "--dataset", zero_step_csv, "--label", "label", "--positive", "a",
                       "--iters", "50", "--out", str(trace_path)) == 0
        assert len(load_trace(str(trace_path))) == 0
        assert run_cli("plot", str(trace_path), "--out", str(tmp_path / "f.svg")) == 4
        assert capsys.readouterr().err == "error: trace has no steps to plot\n"
        assert not (tmp_path / "f.svg").exists()

    @pytest.mark.parametrize("command", ["analyze", "plot"])
    def test_steps_not_a_list(self, golden_trace_file, tmp_path, capsys, command):
        with open(golden_trace_file) as fh:
            doc = json.load(fh)
        doc["steps"] = {"0": doc["steps"][0]}
        with open(golden_trace_file, "w") as fh:
            json.dump(doc, fh)
        options = ["--out", str(tmp_path / "f.svg")] if command == "plot" else []
        assert run_cli(command, golden_trace_file, *options) == 4
        assert capsys.readouterr().err.startswith("error:")


class TestReplicateOutputs:
    def test_reports_the_cycle_analyze_reports(self, tmp_path):
        out_dir = tmp_path / "rep"
        assert run_cli("replicate", "--dataset", SYNTH3, "--label", "label", "--positive", "a",
                       "--depth", "1", "--leaves", "2", "--iters", "400", "--out-dir", str(out_dir)) == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert run_cli("analyze", str(out_dir / "trace.json"), "--json", str(tmp_path / "r.json")) == 0
        cycle = json.loads((tmp_path / "r.json").read_text())["cycle"]
        assert summary["cycle_found"]
        for key in ("period", "edge_period", "periodic_learning_holds", "farey_word"):
            assert summary[key] == cycle[key]

    def test_zero_step_run_writes_no_figure(self, zero_step_csv, tmp_path, capsys):
        # a figure left by an earlier run in the same directory must not
        # stand beside a trace it does not plot
        out_dir = tmp_path / "rep"
        assert run_cli("replicate", "--dataset", SYNTH3, "--label", "label", "--positive", "a",
                       "--depth", "1", "--leaves", "2", "--iters", "100", "--out-dir", str(out_dir)) == 0
        assert (out_dir / "edges.svg").exists()
        capsys.readouterr()
        assert run_cli("replicate", "--dataset", zero_step_csv, "--label", "label", "--positive", "a",
                       "--iters", "50", "--out-dir", str(out_dir)) == 0
        assert json.loads((out_dir / "summary.json").read_text())["iters_run"] == 0
        assert not (out_dir / "edges.svg").exists()
        last = capsys.readouterr().out.splitlines()[-1]
        assert last == f"wrote {out_dir / 'trace.json'}, {out_dir / 'summary.json'}"


class TestWordLength:
    def test_longest_word(self, capsys):
        assert run_cli("farey", "orbit", "--word", "RLLRLRLRRLRRLRRRRRRL") == 0
        assert len(capsys.readouterr().out.splitlines()) == 20

    def test_word_too_long_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("farey", "orbit", "--word", "RLLRLRLRRLRRLRRRRRRLR")
        assert exc.value.code == 2
        assert "--word must have 1..20 letters" in capsys.readouterr().err


class TestOutOfMemory:
    """A run whose arrays do not fit in the address space ends with one
    error line and exit 4, not a traceback."""

    @pytest.mark.parametrize("argv", [
        ["run", "--pool", POOL3, "--iters", "1000000000", "--mode", "float", "--out", "big.json"],
        ["replicate", "--dataset", SYNTH3, "--label", "label", "--positive", "a",
         "--depth", "1", "--leaves", "2", "--iters", "1000000000", "--out-dir", "rep"],
    ], ids=["run", "replicate"])
    def test_memory_error_exit_4(self, run_python, tmp_path, argv):
        proc = run_python(f"import sys\nfrom boostcycles.cli import main\nsys.exit(main({argv!r}))", tmp_path)
        assert proc.returncode == 4, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and "memory" in lines[0]


class TestDispatch:
    """main reaches each command through its module binding `cmd_<name>`,
    the names a tracer wraps."""

    def test_main_calls_module_bindings(self, tmp_path, monkeypatch):
        from boostcycles import cli

        trace = str(tmp_path / "t.json")
        argvs = {
            "run": ["run", "--pool", POOL3, "--iters", "20", "--out", trace],
            "analyze": ["analyze", trace],
            "farey": ["farey", "orbit", "--word", "RL"],
            "replicate": ["replicate", "--dataset", SYNTH3, "--label", "label", "--positive", "a",
                          "--depth", "1", "--leaves", "2", "--iters", "20",
                          "--out-dir", str(tmp_path / "rep")],
            "plot": ["plot", trace, "--out", str(tmp_path / "f.svg")],
        }
        calls = dict.fromkeys(argvs, 0)
        for name in argvs:
            real = getattr(cli, f"cmd_{name}")

            def counting(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(cli, f"cmd_{name}", counting)
        for name, argv in argvs.items():
            assert run_cli(*argv) == 0
        assert calls == dict.fromkeys(argvs, 1)


class TestParserReuse:
    """main builds its parser on its first call in a process and reuses it;
    a reused parser reads and prints as a freshly built one."""

    HELP = [[], ["run"], ["analyze"], ["farey"], ["farey", "enumerate"], ["farey", "orbit"],
            ["replicate"], ["plot"]]
    USAGE_ERRORS = [
        ["run", "--pool", POOL3],  # --iters missing
        ["run", "--pool", POOL3, "--iters", "0"],
        ["analyze"],
        ["analyze", "t.json", "--tol", "nan"],
        ["farey"],
        ["farey", "enumerate"],
        ["farey", "orbit"],
        ["replicate", "--dataset", SYNTH3],
        ["plot", "t.json"],
        ["nosuch"],
    ]

    @pytest.fixture()
    def fresh(self, monkeypatch):
        """The cli module with no parser built yet."""
        from boostcycles import cli

        monkeypatch.setattr(cli, "_parser", None)
        return cli

    @staticmethod
    def usage_error(parse, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            parse(argv)
        assert exc.value.code == 2
        return capsys.readouterr()

    def test_built_on_the_first_call_only(self, fresh, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert run_cli("farey", "orbit", "--word", "RL") == 0
        first = len(built)
        assert first > 1 and built[0] == "boostcycles"  # the parser and its subparsers
        for _ in range(3):
            assert run_cli("farey", "enumerate", "--k", "2") == 0
        with pytest.raises(SystemExit):
            run_cli("run")
        assert len(built) == first

    @pytest.mark.parametrize("bad", [
        ["run", "--pool", POOL3, "--iters", "x"],  # argparse's own error
        ["run", "--iters", "5"],  # an error of the command: neither --pool nor --dataset
        ["farey", "orbit", "--word", "RX"],
    ], ids=["argparse", "run", "farey"])
    def test_usage_error_then_valid_call(self, fresh, golden_trace_file, capsys, bad):
        fresh._parser = None
        assert run_cli("analyze", golden_trace_file) == 0
        alone = capsys.readouterr()
        fresh._parser = None
        self.usage_error(fresh.main, bad, capsys)
        assert run_cli("analyze", golden_trace_file) == 0
        after = capsys.readouterr()
        assert after.out == alone.out and after.err == alone.err == ""

    def test_help_and_usage_errors_equal_a_fresh_parser(self, fresh, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run_cli("farey", "orbit", "--word", "RL") == 0
        capsys.readouterr()
        for _ in range(2):  # the reused parser, after a call and after errors
            for argv in self.HELP:
                with pytest.raises(SystemExit) as exc:
                    fresh.main([*argv, "--help"])
                assert exc.value.code == 0
                reused = capsys.readouterr()
                with pytest.raises(SystemExit):
                    fresh._build_parser().parse_args([*argv, "--help"])
                assert reused == capsys.readouterr() and reused.out.startswith("usage: "), argv
            for argv in self.USAGE_ERRORS:
                reused = self.usage_error(fresh.main, argv, capsys)
                built = self.usage_error(fresh._build_parser().parse_args, argv, capsys)
                assert reused == built and reused.out == "", argv
                assert reused.err.startswith("usage: ") and ": error: " in reused.err.splitlines()[-1]
