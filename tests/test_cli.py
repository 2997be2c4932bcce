import json
from importlib import resources

import pytest

from boostcycles.cli import main
from boostcycles.traceio import load_trace

DATA = resources.files("boostcycles") / "data"
POOL3 = str(DATA / "three_dichotomies.pool")
IRIS = str(DATA / "iris.csv")
SYNTH3 = str(DATA / "synthetic3.csv")


def run_cli(*argv):
    return main(list(argv))


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
        with pytest.warns(UserWarning, match="dropped 1 rows"):
            code = run_cli(*argv)
        assert code == 4
        assert "single-class" in capsys.readouterr().err

    def test_infinite_feature_with_finite_negative(self, tmp_path):
        csv = tmp_path / "inf.csv"
        csv.write_text("x,label\n1,p\n1,p\ninf,n\n2,n\n")
        out = tmp_path / "t.json"
        with pytest.warns(UserWarning, match="dropped 1 rows"):
            code = run_cli(
                "run", "--dataset", str(csv), "--label", "label", "--positive", "p",
                "--depth", "1", "--leaves", "2", "--iters", "5", "--out", str(out),
            )
        assert code == 0
        trace = load_trace(str(out))
        assert trace.halt == "perfect_classification"
        assert [row.entries for row in trace.pool.rows] == [(1, 1, 1)]

    def test_exact_round_trip_bytes(self, tmp_path):
        path = tmp_path / "exact.json"
        run_cli("run", "--pool", POOL3, "--rule", "optimal", "--iters", "25",
                "--mode", "exact", "--out", str(path))
        trace = load_trace(str(path))
        from boostcycles.traceio import save_trace, trace_provenance

        path2 = tmp_path / "copy.json"
        save_trace(trace, str(path2), trace_provenance(str(path)))
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

    def test_initial_weights_wider_than_pool_io_error(self, golden_trace_file):
        with open(golden_trace_file) as fh:
            doc = json.load(fh)
        w = doc["initial_weights"]
        w[-1] /= 2  # split the last weight in two, so the weights still sum to 1
        w.append(w[-1])
        with open(golden_trace_file, "w") as fh:
            json.dump(doc, fh)
        assert run_cli("analyze", golden_trace_file) == 4

    def test_step_eta_not_its_pool_row_io_error(self, golden_trace_file):
        with open(golden_trace_file) as fh:
            doc = json.load(fh)
        doc["steps"][5]["eta"] = doc["pool"]["rows"][(doc["steps"][5]["row"] + 1) % 3]
        with open(golden_trace_file, "w") as fh:
            json.dump(doc, fh)
        assert run_cli("analyze", golden_trace_file) == 4

    def test_nan_step_weights_io_error(self, golden_trace_file):
        with open(golden_trace_file) as fh:
            doc = json.load(fh)
        doc["steps"][-1]["weights"][0] = float("nan")  # the last step always has weights
        with open(golden_trace_file, "w") as fh:
            json.dump(doc, fh)  # writes the bare token NaN, which json.load accepts
        assert run_cli("analyze", golden_trace_file) == 4


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
        from boostcycles.traceio import dumps_trace, loads_trace, trace_provenance

        pool = tmp_path / "p7.pool"
        pool.write_text(self.POOL7)
        path = tmp_path / "t.json"
        assert run_cli(
            "run", "--pool", str(pool), "--rule", "first-above:1/5", "--iters", "30",
            "--mode", "exact", "--out", str(path),
        ) == 0
        assert "final edge 0x" in capsys.readouterr().out
        text = path.read_text()
        doc = json.loads(text)
        assert doc["steps"][0]["r_exact"] == "3/7"  # small values keep the decimal form
        assert any(w.startswith("0x") for w in doc["steps"][-1]["weights"])
        assert run_cli("analyze", str(path)) == 0
        trace = loads_trace(text)
        assert dumps_trace(trace, trace_provenance(str(path))) == text
        assert len(str(trace.steps[0].edge)) < 10 and trace.steps[-1].edge.denominator.bit_length() > 14300


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
