"""One benchmark workload in one fresh process.

The process sets up (imports boostcycles, generates inputs), then runs jobs
in a closed loop with one caller: each job calls `boostcycles.cli.main(argv)`
in-process for each of its steps, with stdout captured, and the job is
verified after its clock stops. The result is one JSON line on stdout.

A fixed reference loop, which uses no boostcycles code, is timed before
the first step of each job and after every step. Each step's
wall time is divided by the mean of the reference times on either side of
it and multiplied by REF_NOMINAL_S: the job's time at a fixed host speed.
The host's speed drifts by up to a third over seconds to minutes, the same
way for the program and for the loop, so this cancels most of the drift.

Modes:
  setup   set up, report when ready, exit (a setup-time probe);
  e2e     untraced jobs for the whole run;
  traced  untraced and traced jobs in turn (per-layer spans and counts);
  counts  one traced job, for the exact counts only.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import re
import resource
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN = (math.sqrt(5) - 1) / 2
# the reference loop's usual time on the host the bounds were set on (2 vCPUs
# of an Intel Xeon, Python 3.11); a fixed scale, so that host-speed-normalised
# job times read as seconds
REF_NOMINAL_S = 0.030

# boostcycles.cli once imported; main is looked up on every call, so that
# the traced run's wrapper is the one called
cli = None


def call(argv: List[str]) -> Tuple[object, str]:
    """Run one CLI command in-process; returns (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    return code, out.getvalue()


def reference() -> float:
    """Wall time of a fixed stdlib-only loop with the kinds of work the jobs
    do: dict updates on ints, Fraction steps printed as p/q, and a JSON
    round trip of small dicts. The cyclic GC is off while it runs, so that
    the size of the program's heap cannot slow it."""
    from fractions import Fraction  # here, so that setup_s still counts its import

    gc.disable()
    try:
        start = time.perf_counter()
        counts: Dict[int, int] = {}
        x = 1
        for _ in range(30000):
            x = (x * 1103515245 + 12345) & 0xFFFFFFFF
            counts[x % 997] = counts.get(x % 997, 0) + (x >> 7)
        r = Fraction(1, 3)
        edges = []
        for _ in range(600):
            r = 1 / (1 + r)
            edges.append(f"{r.numerator}/{r.denominator}")
        rows = [{"i": i, "w": [i * 0.5, i / 3.0], "s": edges[i % 600]} for i in range(3000)]
        json.loads(json.dumps(rows))
        return time.perf_counter() - start
    finally:
        gc.enable()


def write_wide_pool(seed: int, path: Path, n_points: int = 64, n_pairs: int = 100) -> None:
    """A random pool of 2 * n_pairs rows over n_points points, closed under
    negation: some row then always has a positive edge (the rows span the
    space, so no weight vector is orthogonal to all of them) and no row is
    all-correct, so the optimal rule never halts."""
    rng = random.Random(seed)
    seen = set()
    lines = []
    full = (1 << n_points) - 1
    while len(lines) < 2 * n_pairs:
        bits = rng.getrandbits(n_points)
        if bits in (0, full) or bits in seen:
            continue
        seen.update((bits, full ^ bits))
        row = format(bits, f"0{n_points}b")
        lines.append(row.replace("1", "+").replace("0", "-"))
        lines.append(row.replace("0", "+").replace("1", "-"))
    path.write_text("\n".join(lines) + "\n")


class Workload:
    """Steps of one job (label, argv), the files they write, and checks."""

    steps: List[Tuple[str, List[str]]]
    outputs: List[Path]  # removed before each job
    traces: List[Path]  # trace files whose bytes are counted
    inputs: List[Path]

    def verify(self, results: List[Tuple[object, str]]) -> List[str]:
        raise NotImplementedError


def _analyze_golden(code, out: str) -> List[str]:
    """A 3-point float analyze: period 3, edge period 1, the golden edge, word R."""
    problems = []
    if code != 0:
        problems.append(f"analyze exited {code}")
    if "cycle: period 3 (edges alone: 1)" not in out:
        problems.append("no period-3 cycle with edge period 1")
    m = re.search(r"^edge values: (\S+)$", out, re.M)
    if m is None or abs(float(m.group(1)) - GOLDEN) > 1e-9:
        problems.append(f"edge {m and m.group(1)} is not the golden edge")
    if not re.search(r"^matched word: R ", out, re.M):
        problems.append("matched word is not R")
    return problems


class PoolFloat(Workload):
    """run + analyze in float mode on a seeded 64-point x 200-row pool, then
    on the bundled 3-point pool."""

    def __init__(self, seed: int, data: Path) -> None:
        wide = Path("wide.pool")
        write_wide_pool(seed, wide)
        pool3 = data / "three_dichotomies.pool"
        t_wide, t_pool3 = Path("wide.json"), Path("pool3.json")
        self.inputs = [wide, pool3]
        self.outputs = self.traces = [t_wide, t_pool3]
        self.steps = [
            ("wide", ["run", "--pool", str(wide), "--rule", "optimal", "--iters", "300",
                      "--mode", "float", "--out", str(t_wide)]),
            ("wide", ["analyze", str(t_wide)]),
            ("pool3", ["run", "--pool", str(pool3), "--rule", "optimal", "--iters", "5000",
                       "--mode", "float", "--out", str(t_pool3)]),
            ("pool3", ["analyze", str(t_pool3)]),
        ]

    def verify(self, results):
        (c_run, o_run), (c_an, _), (c_run3, _), (c_an3, o_an3) = results
        problems = []
        if c_run != 0 or "300 steps" not in o_run or "halted" in o_run:
            problems.append(f"wide run exited {c_run}: {o_run.strip()}")
        if c_an != 0:
            problems.append(f"wide analyze exited {c_an}")
        if c_run3 != 0:
            problems.append(f"3-point run exited {c_run3}")
        return problems + _analyze_golden(c_an3, o_an3)


class IrisReplicate(Workload):
    """replicate on the bundled Iris set, versicolor, tree (3,4), 1000 iterations."""

    def __init__(self, seed: int, data: Path) -> None:
        iris = data / "iris.csv"
        out = Path("iris")
        self.summary = out / "summary.json"
        self.inputs = [iris]
        self.traces = [out / "trace.json"]
        self.outputs = [self.summary, out / "trace.json", out / "edges.svg"]
        self.steps = [
            ("replicate", ["replicate", "--dataset", str(iris), "--label", "species",
                           "--positive", "versicolor", "--depth", "3", "--leaves", "4",
                           "--iters", "1000", "--out-dir", str(out)]),
        ]

    def verify(self, results):
        [(code, _)] = results
        if code != 0:
            return [f"replicate exited {code}"]
        s = json.loads(self.summary.read_text())
        problems = []
        if s.get("cycle_found") is not True or s.get("period") != 3:
            problems.append(f"cycle_found {s.get('cycle_found')}, period {s.get('period')}")
        mean = s.get("mean_cycling_edge")
        if not isinstance(mean, float) or abs(mean - GOLDEN) > 1e-6:
            problems.append(f"mean cycling edge {mean} is not the golden edge")
        if s.get("farey_word") != "R":
            problems.append(f"farey word {s.get('farey_word')!r} is not R")
        return problems


class ExactFarey(Workload):
    """The 3-point pool in exact mode for 2000 iterations with analyze, then
    `farey enumerate --k 12 --exact`."""

    FIBONACCI_EDGES = ["1/3", "1/2", "2/3", "3/5", "5/8", "8/13"]

    def __init__(self, seed: int, data: Path) -> None:
        pool3 = data / "three_dichotomies.pool"
        self.trace = Path("exact.json")
        self.inputs = [pool3]
        self.outputs = self.traces = [self.trace]
        self.steps = [
            ("exact", ["run", "--pool", str(pool3), "--rule", "optimal", "--iters", "2000",
                       "--mode", "exact", "--out", str(self.trace)]),
            ("exact", ["analyze", str(self.trace)]),
            ("farey", ["farey", "enumerate", "--k", "12", "--exact"]),
        ]

    def verify(self, results):
        (c_run, _), (c_an, _), (c_f, o_f) = results
        problems = []
        if c_run != 0 or c_an != 0:
            problems.append(f"exact run exited {c_run}, analyze exited {c_an}")
        else:
            steps = json.loads(self.trace.read_text())["steps"]
            first = [s["r_exact"] for s in steps[: len(self.FIBONACCI_EDGES)]]
            if first != self.FIBONACCI_EDGES:
                problems.append(f"first exact edges {first}")
        classes = len(re.findall(r"^[LR]+: ", o_f, re.M))
        if c_f != 0 or classes != 352:
            problems.append(f"farey enumerate exited {c_f} with {classes} classes, not 352")
        return problems


WORKLOADS = {"pool-float": PoolFloat, "iris-replicate": IrisReplicate, "exact-farey": ExactFarey}


def run_job(wl: Workload, tracer=None) -> Dict[str, object]:
    """One job: its steps back to back, with the reference loop before and
    after each step, then verification (untimed)."""
    for path in wl.outputs:
        with contextlib.suppress(FileNotFoundError):
            path.unlink()
    results = []
    seconds = 0.0
    refs = [reference()]
    norm_seconds = 0.0
    spans: Dict[str, Dict[str, list]] = {}  # label -> span -> [calls, self_ns, total_ns]
    counters: Dict[str, Dict[str, int]] = {}
    problems: List[str] = []
    try:
        for label, argv in wl.steps:
            if tracer is not None:
                tracer.reset()
            start = time.perf_counter()
            results.append(call(argv))
            step_s = time.perf_counter() - start
            seconds += step_s
            refs.append(reference())
            norm_seconds += step_s * REF_NOMINAL_S / ((refs[-2] + refs[-1]) / 2)
            if tracer is not None:
                by_span = spans.setdefault(label, {})
                for name, n in tracer.calls.items():
                    acc = by_span.setdefault(name, [0, 0, 0])
                    acc[0] += n
                    acc[1] += tracer.self_ns[name]
                    acc[2] += tracer.total_ns[name]
                by_counter = counters.setdefault(label, {})
                for name, n in tracer.counters.items():
                    by_counter[name] = by_counter.get(name, 0) + n
        problems = wl.verify(results)
    except Exception as exc:  # noqa: BLE001 - a failed job is counted, the loop goes on
        problems.append(f"{type(exc).__name__}: {exc}")
    trace_bytes = sum(p.stat().st_size for p in wl.traces if p.exists())
    job = {"seconds": seconds, "norm_seconds": norm_seconds, "ref_s": refs,
           "problems": problems, "trace_bytes": trace_bytes}
    if tracer is not None:
        job["spans"] = spans
        job["counters"] = counters
    return job


def closed_loop(wl: Workload, seconds: float) -> List[dict]:
    jobs = []
    deadline = time.perf_counter() + seconds
    while not jobs or time.perf_counter() < deadline:
        jobs.append(run_job(wl))
    return jobs


def alternating_loop(wl: Workload, seconds: float, tracer, package) -> Tuple[List[dict], List[dict]]:
    """Untraced and traced jobs in turn, so that drift in host speed falls
    on both alike; at least two of each."""
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    while len(traced) < 2 or time.perf_counter() < deadline:
        untraced.append(run_job(wl))
        tracer.install(package)
        try:
            traced.append(run_job(wl, tracer))
        finally:
            tracer.uninstall()
    return untraced, traced


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def provenance(wl: Workload, seed: int, data: Path) -> Dict[str, object]:
    import numpy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "seed": seed,
        "inputs": {
            (f"data/{p.name}" if p.parent == data else p.name): sha256(p) for p in wl.inputs
        },
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "e2e", "traced", "counts"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args(argv)
    # every path the program sees is relative, so traces (which record their
    # input paths) are byte-identical across processes and checkouts
    args.workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(args.workdir)

    # setup_s is the program's own imports plus input generation; interpreter
    # start and this file's imports are outside it
    global cli
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import boostcycles
    import boostcycles.cli

    cli = boostcycles.cli
    data = Path(os.path.relpath(SRC / "boostcycles" / "data"))
    wl = WORKLOADS[args.workload](args.seed, data)
    setup_s = time.perf_counter() - start
    if Path(boostcycles.__file__).resolve().parent != SRC / "boostcycles":
        raise SystemExit(f"imported boostcycles from {boostcycles.__file__}, not from {SRC}")

    report: Dict[str, object] = {"setup_s": setup_s}
    if args.mode == "e2e":
        report["warmup"] = run_job(wl)
        report["jobs"] = closed_loop(wl, args.seconds)
    elif args.mode == "traced":
        from spans import Tracer

        report["warmup"] = run_job(wl)
        tracer = Tracer()
        report["untraced"], report["jobs"] = alternating_loop(wl, args.seconds, tracer, boostcycles)
        report["wrapped"] = sorted(tracer.wrapped)
        report["hook_errors"] = tracer.hook_errors
    elif args.mode == "counts":
        from spans import Tracer

        tracer = Tracer()
        tracer.install(boostcycles)
        report["jobs"] = [run_job(wl, tracer)]
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    report["provenance"] = provenance(wl, args.seed, data)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
