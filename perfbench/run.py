"""boostcycles benchmark: one workload per invocation, in fresh processes.

    python3 perfbench/run.py --workload pool-float --seed 0 --seconds 26 --trace 0

--trace 0 measures the end-to-end metrics: setup-only process starts on
both sides of one process that runs jobs in a closed loop with one caller
for --seconds. Set-up and job times are normalised to a fixed host speed
by reference work timed next to them (IMPORT_REF here, jobs.reference).
--trace 1 is the traced run: one process runs untraced and traced jobs in
turn for --seconds (per-layer spans and exact counts; the two medians give
the tracing overhead), and two short processes repeat one traced job with
the same seed and with the next seed, as the determinism check.

Every metric is printed by name and unit, with the run's provenance; the
last line of stdout is the JSON result. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 7  # setup-only process starts before and again after the measuring one
BUDGET_S = 170  # the whole invocation, children included

# The set-up reference, timed in a fresh interpreter before and after each
# setup probe: the same three kinds of work as the program's set-up, none of
# it boostcycles code. It imports numpy and a fixed set of stdlib modules
# (unmarshalling, module code, C extensions) and compiles three stdlib
# sources, as the program's own modules are compiled without a bytecode cache.
IMPORT_REF = (
    "import time; t = time.perf_counter(); "
    "import numpy, asyncio, bz2, csv, ctypes, decimal, difflib, email.mime.multipart, http.client, lzma, "
    "sqlite3, ssl, statistics, tarfile, unittest, xml.dom.minidom, xml.etree.ElementTree, zipfile; "
    "[compile(open(m.__file__, encoding='utf-8').read(), m.__file__, 'exec') for m in (difflib, tarfile, statistics)]; "
    "print(time.perf_counter() - t)"
)
IMPORT_REF_NOMINAL_S = 0.250  # its usual time on the host the bounds were set on
# no bytecode cache is written, so every setup compiles the program's source
# whatever earlier runs left in the checkout
CHILD_ENV = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}

END_TO_END = [
    ("setup_s", "s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("peak_rss_mb", "MB"),
    ("trace_bytes", "B"),
]

# name -> (unit, the span it needs); `.calls` and `.self_s` come from that span.
# A metric whose span (or, for a derived one, any span in DERIVED_FROM) the
# program no longer has is absent: printed as such and left out of the JSON.
PER_LAYER = {
    "engine.select.calls": ("count", "engine.select"),
    "engine.select.self_s": ("s", "engine.select"),
    "engine.weight_update.self_s": ("s", "engine.weight_update"),
    "engine.run.self_s": ("s", "engine.run"),
    "simplex.weight_checks": ("count", "simplex.weight_checks"),
    "simplex.weight_checks_per_iter": ("ratio", "simplex.weight_checks"),
    "simplex.weight_checks.self_s": ("s", "simplex.weight_checks"),
    "simplex.check_periodic_learning.self_s": ("s", "simplex.check_periodic_learning"),
    "learners.train_tree.calls": ("count", "learners.train_tree"),
    "learners.train_tree.self_s": ("s", "learners.train_tree"),
    "learners.dichotomy_of.self_s": ("s", "learners.dichotomy_of"),
    "learners.run_on_dataset.self_s": ("s", "learners.run_on_dataset"),
    "learners.load_csv.self_s": ("s", "learners.load_csv"),
    "cycles.post_cycle_iter_frac": ("ratio", "cycles.detect_cycle"),
    "cycles.detect_cycle.calls": ("count", "cycles.detect_cycle"),
    "cycles.detect_cycle.self_s": ("s", "cycles.detect_cycle"),
    "cycles.check_edge_update.self_s": ("s", "cycles.check_edge_update"),
    "cycles.partition.self_s": ("s", "cycles.partition"),
    "cycles.subsums.calls": ("count", "cycles.subsums"),
    "cycles.subsums.self_s": ("s", "cycles.subsums"),
    "cycles.lattice_agreement.self_s": ("s", "cycles.lattice_agreement"),
    "traceio.save_trace.self_s": ("s", "traceio.save_trace"),
    "traceio.bytes_written": ("B", "traceio.save_trace"),
    "traceio.load_trace.self_s": ("s", "traceio.load_trace"),
    "traceio.bytes_read": ("B", "traceio.load_trace"),
    "farey.enumerate_orbits.self_s": ("s", "farey.enumerate_orbits"),
    "farey.class_yield": ("ratio", "farey.words_canonicalised"),
    "figures.save_figure.self_s": ("s", "figures.save_figure"),
    "cli.run.self_s": ("s", "cli.run"),
    "cli.analyze.self_s": ("s", "cli.analyze"),
    "cli.replicate.self_s": ("s", "cli.replicate"),
    "cli.farey.self_s": ("s", "cli.farey"),
    "cli.main.self_s": ("s", "cli.main"),
    "trace.overhead_frac": ("ratio", None),
}

# the spans whose hooks count the denominators of derived ratios
DERIVED_FROM = {
    "simplex.weight_checks_per_iter": ("engine.run", "learners.run_on_dataset"),
    "farey.class_yield": ("farey.enumerate_orbits",),
}


class BenchError(RuntimeError):
    pass


def spawn(mode: str, args, workdir: Path, deadline: float, seed: Optional[int] = None) -> dict:
    """Run perfbench/jobs.py in a fresh process; returns its JSON report."""
    cmd = [
        sys.executable, str(HERE / "jobs.py"),
        "--workload", args.workload, "--seed", str(args.seed if seed is None else seed),
        "--mode", mode, "--seconds", str(args.seconds), "--workdir", str(workdir),
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget used up")
    proc = subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError(f"{mode} process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples: List[float]) -> Tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it, as
    (value, percentile, samples beyond); the maximum when there are too few."""
    xs = sorted(samples)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, 0
    return xs[n - 11], 100.0 * (n - 10) / n, 10


def fmt(value) -> str:
    return f"{value:>14}" if isinstance(value, int) else f"{value:>14.6g}"


def failures(jobs: List[dict]) -> List[str]:
    return [f"job {i}: {'; '.join(j['problems'])}" for i, j in enumerate(jobs) if j["problems"]]


def import_ref(work: Path, deadline: float) -> float:
    proc = subprocess.run([sys.executable, "-c", IMPORT_REF], cwd=work, env=CHILD_ENV, capture_output=True,
                          text=True, timeout=max(deadline - time.monotonic(), 0.001))
    if proc.returncode != 0:
        raise BenchError(f"set-up reference exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return float(proc.stdout)


def setup_probes(args, work: Path, deadline: float, first: int) -> Tuple[List[float], List[float], List[float]]:
    """SETUP_PROBES setup-only process starts, each between two runs of the
    set-up reference; returns (raw setup times, normalised ones, reference times)."""
    refs = [import_ref(work, deadline)]
    raw = []
    for i in range(first, first + SETUP_PROBES):
        raw.append(spawn("setup", args, work / f"setup{i}", deadline)["setup_s"])
        refs.append(import_ref(work, deadline))
    norm = [s * IMPORT_REF_NOMINAL_S / ((a + b) / 2) for s, a, b in zip(raw, refs, refs[1:])]
    return raw, norm, refs


def end_to_end(args, work: Path, deadline: float) -> Tuple[dict, dict, List[dict]]:
    # probes on both sides of the loop, so that the median spans the run
    raw, setups, import_refs = setup_probes(args, work, deadline, 0)
    rep = spawn("e2e", args, work / "e2e", deadline)
    more = setup_probes(args, work, deadline, SETUP_PROBES)
    raw, setups, import_refs = raw + more[0], setups + more[1], import_refs + more[2]
    # job times at a fixed host speed (see jobs.reference); wall times are printed
    times = [j["norm_seconds"] for j in rep["jobs"]]
    wall = [j["seconds"] for j in rep["jobs"]]
    refs = [r for j in rep["jobs"] for r in j["ref_s"]]
    p_tail, pct, beyond = tail(times)
    jobs = [rep["warmup"]] + rep["jobs"]
    values = {
        "setup_s": statistics.median(setups),
        "job_p50_s": statistics.median(times),
        "job_tail_s": p_tail,
        "peak_rss_mb": rep["peak_rss_mb"],
        "trace_bytes": statistics.median_low(j["trace_bytes"] for j in rep["jobs"]),
    }
    print(f"workload {args.workload}, seed {args.seed}: closed loop, 1 client, "
          f"{len(times)} timed jobs in {sum(wall):.1f} s after 1 warm-up job; "
          f"wall p50 {statistics.median(wall):.4f} s, reference loop p50 {statistics.median(refs) * 1e3:.2f} ms "
          f"(IQR {statistics.quantiles(refs, n=4)[0] * 1e3:.2f}-{statistics.quantiles(refs, n=4)[2] * 1e3:.2f})")
    notes = {
        "setup_s": f"median of {len(setups)} host-speed-normalised process starts (program imports + "
                   f"input generation); raw median {statistics.median(raw):.4f} s, set-up reference "
                   f"median {statistics.median(import_refs) * 1e3:.1f} ms",
        "job_p50_s": f"median of {len(times)} host-speed-normalised jobs; first to last: "
                     f"{', '.join(f'{t:.3f}' for t in times)}",
        "job_tail_s": f"p{pct:.0f} of {len(times)} host-speed-normalised jobs, {beyond} beyond it",
        "peak_rss_mb": "peak resident set of the measuring process",
        "trace_bytes": "trace files written per job",
    }
    for name, unit in END_TO_END:
        print(f"  {name:<12} {fmt(values[name])} {unit:<3} {notes[name]}")
    return values, rep["provenance"], jobs


def exact_counts(job: dict) -> Dict[str, int]:
    counts = {"trace_bytes": job["trace_bytes"]}
    for label, spans in job["spans"].items():
        for span, (calls, _, _) in spans.items():
            counts[f"{label}/{span}.calls"] = calls
    for label, counters in job["counters"].items():
        for name, n in counters.items():
            counts[f"{label}/{name}"] = n
    return counts


def diff(a: Dict[str, int], b: Dict[str, int], may_differ=lambda key: False) -> List[str]:
    return [f"{k}: {a.get(k)} vs {b.get(k)}" for k in sorted(set(a) | set(b))
            if a.get(k) != b.get(k) and not may_differ(k)]


def job_totals(job: dict) -> Tuple[Dict[str, List[int]], Dict[str, int]]:
    """Span [calls, self_ns, total_ns] and counters summed over a job's steps."""
    spans: Dict[str, List[int]] = {}
    for by_span in job["spans"].values():
        for name, stats in by_span.items():
            acc = spans.setdefault(name, [0, 0, 0])
            for i, v in enumerate(stats):
                acc[i] += v
    counters: Dict[str, int] = {}
    for by_counter in job["counters"].values():
        for name, n in by_counter.items():
            counters[name] = counters.get(name, 0) + n
    return spans, counters


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced(args, work: Path, deadline: float) -> Tuple[dict, dict, List[dict], List[str]]:
    rep = spawn("traced", args, work / "traced", deadline)
    same = spawn("counts", args, work / "same", deadline)["jobs"][0]
    other = spawn("counts", args, work / "other", deadline, seed=args.seed + 1)["jobs"][0]
    jobs = rep["jobs"]
    wrapped = set(rep["wrapped"])

    # determinism: exact counts repeat job to job, process to process, and
    # across seeds except where the seed is used (pool-float's wide pool)
    problems = []
    first = exact_counts(jobs[0])
    for i, job in enumerate(jobs[1:], 1):
        problems += [f"traced job {i} vs 0: {d}" for d in diff(first, exact_counts(job))]
    problems += [f"same seed, second process: {d}" for d in diff(first, exact_counts(same))]
    seeded = lambda key: args.workload == "pool-float" and (key.startswith("wide/") or key == "trace_bytes")
    problems += [f"seed {args.seed + 1}: {d}" for d in diff(first, exact_counts(other), seeded)]
    problems += [f"hook: {e}" for e in rep["hook_errors"]]

    totals = [job_totals(j) for j in jobs]
    spans, counters = totals[0]
    times = [j["seconds"] for j in jobs]
    untraced = [j["seconds"] for j in rep["untraced"]]

    def median_self_s(span: str) -> float:
        return statistics.median(t[0].get(span, [0, 0, 0])[1] for t in totals) / 1e9

    def non_cli(job: dict, job_spans: Dict[str, List[int]]) -> float:
        cli_ns = sum(s[1] for name, s in job_spans.items() if name.startswith("cli."))
        return 1 - cli_ns / (job["seconds"] * 1e9)

    calls = lambda span: spans.get(span, [0])[0]
    derived = {
        "simplex.weight_checks": calls("simplex.weight_checks"),
        "simplex.weight_checks_per_iter": ratio(calls("simplex.weight_checks"), counters.get("iterations", 0)),
        "cycles.post_cycle_iter_frac": ratio(counters.get("post_cycle_iters", 0), counters.get("cycle_iters", 0)),
        "traceio.bytes_written": counters.get("bytes_written", 0),
        "traceio.bytes_read": counters.get("bytes_read", 0),
        "farey.class_yield": ratio(counters.get("classes", 0), counters.get("farey.words_canonicalised", 0)),
        "trace.overhead_frac": statistics.median(j["norm_seconds"] for j in jobs)
                               / statistics.median(j["norm_seconds"] for j in rep["untraced"]) - 1,
    }
    values, absent = {}, []
    for name, (unit, span) in PER_LAYER.items():
        needs = ((span,) if span else ()) + DERIVED_FROM.get(name, ())
        if not wrapped.issuperset(needs):
            absent.append(name)
        elif name in derived:
            values[name] = derived[name]
        elif name.endswith(".calls"):
            values[name] = calls(span)
        else:
            values[name] = median_self_s(span)

    print(f"workload {args.workload}, seed {args.seed}: traced run, {len(jobs)} traced jobs "
          f"(job p50 {statistics.median(times):.4f} s), {len(untraced)} untraced jobs "
          f"(job p50 {statistics.median(untraced):.4f} s)")
    print("  spans per job, by step (calls, self s, total s; times are medians over traced jobs):")
    for label in jobs[0]["spans"]:
        rows = []
        for span, (n, _, _) in jobs[0]["spans"][label].items():
            per = [j["spans"].get(label, {}).get(span, [0, 0, 0]) for j in jobs]
            rows.append((statistics.median(p[1] for p in per) / 1e9,
                         statistics.median(p[2] for p in per) / 1e9, span, n))
        for self_s, total_s, span, n in sorted(rows, reverse=True):
            print(f"    {label:<9} {span:<34} {n:>8} {self_s:>10.6f} {total_s:>10.6f}")
        print(f"    {label:<9} counters {json.dumps(jobs[0]['counters'].get(label, {}))}")
    print("  per-layer metrics:")
    for name, (unit, _) in PER_LAYER.items():
        shown = "absent" if name in absent else fmt(values[name])
        print(f"    {name:<40} {shown:>14} {unit}")
    # a coverage diagnostic, not a metric: a faster engine lowers it
    non_cli_frac = statistics.median(non_cli(j, t[0]) for j, t in zip(jobs, totals))
    print(f"  coverage: {non_cli_frac:.3f} of traced job time is self time outside cli.*")
    if absent:
        print(f"  absent from this version of the program: {', '.join(absent)}")
    print(f"  determinism: {'exact counts repeat' if not problems else f'{len(problems)} mismatches'} "
          f"({len(first)} counts; same seed in two processes, seed {args.seed + 1} in a third)")
    all_jobs = [rep["warmup"]] + rep["untraced"] + jobs + [same, other]
    return values, rep["provenance"], all_jobs, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=("pool-float", "iris-replicate", "exact-farey"), required=True)
    ap.add_argument("--seed", type=int, required=True, help="generates pool-float's wide pool")
    ap.add_argument("--seconds", type=int, required=True, help="length of the measured closed loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    if not (ROOT / "src" / "boostcycles" / "cli.py").is_file():
        print(f"error: no boostcycles source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=work_root))
    try:
        if args.trace:
            values, prov, jobs, problems = traced(args, work, deadline)
            units = {name: unit for name, (unit, _) in PER_LAYER.items()}
        else:
            values, prov, jobs = end_to_end(args, work, deadline)
            problems = []
            units = dict(END_TO_END)
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    n_failed = sum(1 for j in jobs if j["problems"])
    print(f"  {'failed_frac':<12} {fmt(n_failed / len(jobs))} {'':<3} "
          f"{n_failed} of {len(jobs)} jobs failed verification")
    problems += failures(jobs)
    for p in problems[:20]:
        print(f"  FAILED {p}")
    print(f"provenance: {json.dumps(prov)}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(jobs),
        "failed": n_failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items() if name in values},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
