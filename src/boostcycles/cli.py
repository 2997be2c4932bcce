"""Command-line frontend.

Commands: run simulations, analyze traces for cycles and structural
identities, enumerate Farey orbits (words of 1..20 letters), replicate the
dataset experiments, and plot edge series. `replicate` writes trace.json,
summary.json and, when the run took a step, edges.svg; it reports the cycle
that `analyze` reports on that trace. Exit codes are a stable contract:
0 success, 2 usage, 3 a requested check failed, 4 I/O, malformed input or a
run that does not fit in memory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from fractions import Fraction
from typing import Dict, Optional, Sequence

from . import engine, learners
from .cycles import (
    ALL_CHECKS,
    IDENTITY_CHECKS,
    CycleReport,
    analyze_trace,
)
from .engine import FirstAbove, FixedSequence, Optimal
from .farey import GOLDEN, MAX_ENUMERATION_LENGTH, FareyWord, decimals, enumerate_orbits, orbit_values
from .figures import save_figure
from .traceio import (
    TraceFormatError,
    _ratio_text,
    dumps_trace,
    load_pool,
    load_trace,
    save_trace,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 3
EXIT_IO = 4

GOLDEN_REF = (float(GOLDEN), "(sqrt(5)-1)/2")
_parser: Optional[argparse.ArgumentParser] = None  # main's, built by its first call


class InputError(Exception):
    """A malformed input file; main reports it with exit 4."""


def _fmt(value, mode: str) -> str:
    if mode == "exact":
        return _ratio_text(value.numerator, value.denominator)
    return f"{float(value):.12g}"


def _checked(convert, ok, requirement: str):
    """An argparse type: convert the text, then reject values failing ok."""

    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names the type in its bad-value message
    return parse


def _parse_rule(text: str, mode: str):
    if text == "optimal":
        return Optimal()
    if text.startswith("first-above:"):
        raw = text.split(":", 1)[1]
        try:
            theta = Fraction(raw)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"bad threshold {raw!r}")
        rule = FirstAbove(theta)  # the range check, before a float could overflow
        return rule if mode == "exact" else FirstAbove(float(theta))
    if text.startswith("fixed:"):
        raw = text.split(":", 1)[1]
        try:
            rows = tuple(int(r) for r in raw.split(","))
        except ValueError:
            raise ValueError(f"bad row schedule {raw!r}")
        return FixedSequence(rows)
    raise ValueError(f"unknown rule {text!r}")


def _load_dataset(args) -> learners.Dataset:
    """The dataset of --dataset; each warning of the loader (dropped rows)
    goes to stderr as one `warning:` line, also when the load then fails."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)  # not once per process
        try:
            ds = learners.load_csv(args.dataset, args.label, args.positive)
            if args.sample is not None:
                ds = learners.sample(ds, args.sample, args.seed)
        except ValueError as exc:
            raise InputError(exc) from None
        finally:
            for warning in caught:
                print(f"warning: {warning.message}", file=sys.stderr)
    return ds


def cmd_run(args, parser) -> int:
    if (args.pool is None) == (args.dataset is None):
        parser.error("exactly one of --pool or --dataset is required")
    try:
        rule = _parse_rule(args.rule, args.mode)
    except ValueError as exc:
        parser.error(str(exc))

    provenance: Dict[str, object] = {"rule": args.rule, "iters": args.iters}
    if args.pool is not None:
        pool = load_pool(args.pool)
        if isinstance(rule, FixedSequence):
            outside = [row for row in rule.rows if not 0 <= row < len(pool)]
            if outside:
                parser.error(f"--rule {args.rule}: rows {outside} outside pool of {len(pool)} rows")
        provenance["pool_path"] = args.pool
        trace = engine.run(pool, rule, args.iters, args.mode)
    else:
        if args.label is None or args.positive is None:
            parser.error("--dataset requires --label and --positive")
        if not isinstance(rule, Optimal):
            parser.error("dataset runs train trees greedily; only --rule optimal applies")
        ds = _load_dataset(args)
        provenance.update(ds.provenance)
        provenance.update({"max_depth": args.depth, "max_leaves": args.leaves})
        trace = learners.run_on_dataset(ds, args.depth, args.leaves, args.iters, args.mode)

    if args.out:
        save_trace(trace, args.out, provenance)
        print(f"wrote {args.out}: {len(trace)} steps", end="")
    else:
        sys.stdout.write(dumps_trace(trace, provenance))
        return EXIT_OK
    if len(trace):
        if trace.mode == "exact":
            p, q = trace.states[-1, :2].tolist()  # the edge in lowest terms
            text = _ratio_text(p, q)
            if len(text) > 80:  # a long exact value is read from the trace, not the line
                text = f"{p / q:.12g} (exact value in the trace, {len(text)} characters)"
        else:
            text = _fmt(trace.states[-1, 0], "float")
        print(f", final edge {text}", end="")
    if trace.halt:
        print(f", halted: {trace.halt}", end="")
    print()
    return EXIT_OK


def _report_cycle(report: Optional[CycleReport], mode: str, out) -> None:
    if report is None:
        print("no cycle detected", file=out)
        return
    print(
        f"cycle: period {report.period} (edges alone: {report.edge_period}), "
        f"phase {report.phase}, residual {report.residual:.3g}",
        file=out,
    )
    values = ", ".join(_fmt(v, mode) for v in report.edge_values)
    print(f"edge values: {values}", file=out)
    if report.periodic_learning_holds:
        print("periodic learning condition holds on the cycling window", file=out)
    else:
        i, t = report.periodic_violation
        print(f"periodic learning condition violated at point {i}, iteration {t}", file=out)
    if report.farey_word is not None:
        print(f"matched word: {report.farey_word} (canonical {report.farey_word.canonical()})", file=out)
    else:
        print("no Farey word matches the edge cycle", file=out)


def cmd_analyze(args, parser) -> int:
    trace = load_trace(args.trace)
    requested = None
    if args.check is not None:
        # each named check once, in the order first named
        requested = list(dict.fromkeys(c.strip() for c in args.check.split(",") if c.strip()))
        if not requested:
            parser.error(f"--check names no check; available: {', '.join(ALL_CHECKS)}")
        unknown = [c for c in requested if c not in ALL_CHECKS]
        if unknown:
            parser.error(f"unknown checks {unknown}; available: {', '.join(ALL_CHECKS)}")

    names = requested if requested is not None else ALL_CHECKS
    report, results = analyze_trace(trace, args.tol, args.min_repeats, names)
    _report_cycle(report, trace.mode, sys.stdout)
    for result in results:
        print(f"check {result.name}: {'pass' if result.ok else 'FAIL'} - {result.detail}")

    if args.json:
        doc = {
            "trace": args.trace,
            "cycle": None
            if report is None
            else {
                "period": report.period,
                "edge_period": report.edge_period,
                "phase": report.phase,
                "edge_values": [float(v) for v in report.edge_values],
                "residual": report.residual,
                "periodic_learning_holds": report.periodic_learning_holds,
                "farey_word": None if report.farey_word is None else str(report.farey_word),
            },
            "checks": {r.name: {"pass": r.ok, "detail": r.detail, "data": r.data} for r in results},
        }
        with open(args.json, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")

    passed = {r.name: r.ok for r in results}
    if requested is not None:
        failing = [n for n in requested if not passed[n]]
    else:
        # unrequested informational checks (periodic-learning status, farey
        # match on a non-branch cycle) do not fail the run; broken identities
        # do, but a trace with no cycle, or fewer than two steps, has no
        # identity to break
        unchecked = {"agreement"} if report is None else set()
        if len(trace) < 2:
            unchecked |= {"edge-update", "subsums"}
        failing = [n for n in IDENTITY_CHECKS if not passed[n] and n not in unchecked]
    return EXIT_CHECK_FAILED if failing else EXIT_OK


def cmd_farey(args, parser) -> int:
    if args.what == "enumerate":
        if not 1 <= args.k <= MAX_ENUMERATION_LENGTH:
            parser.error(f"--k must be in 1..{MAX_ENUMERATION_LENGTH}")
        for rec in enumerate_orbits(args.k):
            word = str(rec.word)
            if rec.degenerate:
                status = "degenerate (fixed point 0)"
            elif not rec.primitive:
                status = f"power word, primitive period {rec.primitive_period}"
            else:
                status = "primitive"
            print(f"{word}: {status}")
            for v, text in zip(rec.values, decimals(rec.values)):
                print(f"  {v} = {text}" if args.exact else f"  {text}")
        return EXIT_OK

    # orbit
    try:
        word = FareyWord.from_string(args.word)
    except ValueError as exc:
        parser.error(str(exc))
    if len(word) > MAX_ENUMERATION_LENGTH:
        parser.error(f"--word must have 1..{MAX_ENUMERATION_LENGTH} letters")
    if word.degenerate:
        print(f"{word}: degenerate all-L word; only periodic point is 0")
        return EXIT_OK
    values = orbit_values(word)
    if not word.primitive:
        print(f"note: {word} is a power word; primitive period {len(word.primitive_root())}")
    for v, text in zip(values, decimals(values)):
        print(f"{v} = {text}" if args.exact else text)
    return EXIT_OK


def cmd_replicate(args, parser) -> int:
    ds = _load_dataset(args)
    os.makedirs(args.out_dir, exist_ok=True)
    trace = learners.run_on_dataset(ds, args.depth, args.leaves, args.iters, "float")
    provenance = dict(ds.provenance)
    provenance.update({"max_depth": args.depth, "max_leaves": args.leaves, "iters": args.iters})
    trace_path = os.path.join(args.out_dir, "trace.json")
    save_trace(trace, trace_path, provenance)
    written = [trace_path]

    report, _ = analyze_trace(trace, args.tol, args.min_repeats, checks=())

    figure_path = os.path.join(args.out_dir, "edges.svg")
    edges = trace.states[:, 0].tolist()
    if edges:
        save_figure(edges, figure_path, f"edge values: {os.path.basename(args.dataset)}", (GOLDEN_REF,))
        written.append(figure_path)
    elif os.path.exists(figure_path):
        os.remove(figure_path)  # a figure of an earlier run, not of this trace

    mean_edge = None
    if report is not None:
        window = edges[report.phase :]
        mean_edge = sum(window) / len(window)
    summary = {
        "dataset": os.path.basename(args.dataset),
        "original_size": ds.provenance.get("n_rows", ds.n),
        "sample_size": ds.n,
        "tree": [args.depth, args.leaves],
        "iters_run": len(trace),
        "halt": trace.halt,
        "cycle_found": report is not None,
        "period": None if report is None else report.period,
        "edge_period": None if report is None else report.edge_period,
        "periodic_learning_holds": None if report is None else report.periodic_learning_holds,
        "mean_cycling_edge": mean_edge,
        "farey_word": None if report is None or report.farey_word is None else str(report.farey_word),
        "seed": args.seed if args.sample is not None else None,
    }
    summary_path = os.path.join(args.out_dir, "summary.json")
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    written.append(summary_path)

    cyc = "yes" if summary["cycle_found"] else "no"
    k = summary["period"] if summary["cycle_found"] else "-"
    nab = {True: "holds", False: "violated", None: "-"}[summary["periodic_learning_holds"]]
    mean_text = "-" if mean_edge is None else f"{mean_edge:.6f}"
    print(
        f"{summary['dataset']} | n={ds.n} | tree=({args.depth},{args.leaves}) | "
        f"cycle={cyc} | k={k} | periodic-learning={nab} | mean edge={mean_text}"
    )
    print(f"wrote {', '.join(written)}")
    return EXIT_OK


def cmd_plot(args, parser) -> int:
    trace = load_trace(args.trace)
    if not len(trace):
        print("error: trace has no steps to plot", file=sys.stderr)
        return EXIT_IO
    refs = []
    for ref in args.ref or ():
        if ref == "golden":
            refs.append(GOLDEN_REF)
        else:
            try:
                refs.append((float(Fraction(ref)), ref))
            except (ValueError, ZeroDivisionError, OverflowError):
                parser.error(f"bad reference value {ref!r}")
    # float(Fraction) and the state matrix round exact edges alike
    edges = trace.state_matrix[:, 0].tolist()
    save_figure(edges, args.out, args.title or "edge values", refs, args.last)
    print(f"wrote {args.out}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    at_least_0 = _checked(int, lambda v: v >= 0, "at least 0")
    at_least_1 = _checked(int, lambda v: v >= 1, "at least 1")
    repeats = _checked(int, lambda v: v >= 2, "at least 2")
    tolerance = _checked(float, lambda v: 0 < v < float("inf"), "a finite number above 0")
    parser = argparse.ArgumentParser(
        prog="boostcycles",
        description="Boosting limit cycles and their continued-fraction structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def dataset_options(p: argparse.ArgumentParser, required: bool) -> None:
        p.add_argument("--dataset", required=required, help="CSV dataset with a header row")
        p.add_argument("--label", required=required, help="label column name (dataset runs)")
        p.add_argument("--positive", required=required, help="label value mapped to +1 (dataset runs)")
        p.add_argument("--sample", type=at_least_1, help="sample this many rows without replacement")
        p.add_argument("--seed", type=at_least_0, default=0, help="sampling seed (default 0)")
        p.add_argument("--depth", type=at_least_1, default=3, help="max tree depth (dataset runs)")
        p.add_argument("--leaves", type=at_least_1, default=4, help="max tree leaves (dataset runs)")

    p_run = sub.add_parser("run", help="run the boosting loop, write a trace")
    p_run.add_argument("--pool", help="pool file: one +/- dichotomy per line")
    dataset_options(p_run, required=False)
    p_run.add_argument(
        "--rule",
        default="optimal",
        help="optimal | first-above:THETA | fixed:ROW,ROW,... (pool runs only for the latter)",
    )
    p_run.add_argument("--iters", type=at_least_1, required=True)
    p_run.add_argument("--mode", choices=("exact", "float"), default="float")
    p_run.add_argument("--out", help="trace file to write (stdout when omitted)")

    p_an = sub.add_parser("analyze", help="detect cycles and verify structural identities")
    p_an.add_argument("trace")
    p_an.add_argument("--tol", type=tolerance, default=1e-9)
    p_an.add_argument("--min-repeats", type=repeats, default=3)
    p_an.add_argument(
        "--check",
        help=f"comma list from: {', '.join(ALL_CHECKS)} (default: report all, "
        "fail only on broken theorems)",
    )
    p_an.add_argument("--json", help="write a structured report here")

    p_f = sub.add_parser("farey", help="enumerate or print inverse-branch orbits")
    f_sub = p_f.add_subparsers(dest="what", required=True)
    f_enum = f_sub.add_parser("enumerate", help="all rotation classes of a given length")
    f_enum.add_argument("--k", type=int, required=True)
    f_enum.add_argument("--exact", action="store_true", help="also print a+b*sqrt(d) forms")
    f_orb = f_sub.add_parser("orbit", help="the orbit of one word, e.g. RL")
    f_orb.add_argument("--word", required=True)
    f_orb.add_argument("--exact", action="store_true")

    p_rep = sub.add_parser("replicate", help="dataset experiment: trace, figure, summary")
    dataset_options(p_rep, required=True)
    p_rep.add_argument("--iters", type=at_least_1, default=20000)
    p_rep.add_argument("--tol", type=tolerance, default=1e-9)
    p_rep.add_argument("--min-repeats", type=repeats, default=3)
    p_rep.add_argument("--out-dir", required=True)

    p_plot = sub.add_parser("plot", help="edge-vs-iteration SVG from a trace")
    p_plot.add_argument("trace")
    p_plot.add_argument("--out", required=True)
    p_plot.add_argument("--ref", action="append", help="'golden' or a numeric value; repeatable")
    p_plot.add_argument("--last", type=at_least_1, help="plot only the final N iterations")
    p_plot.add_argument("--title")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = _build_parser()
    args = _parser.parse_args(argv)
    try:
        # the module's binding at call time, so that a rebound cmd_* is the one run
        return globals()[f"cmd_{args.command}"](args, _parser)
    except (OSError, TraceFormatError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
