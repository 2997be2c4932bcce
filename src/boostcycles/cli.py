"""Command-line frontend.

Commands: run simulations, analyze traces for cycles and structural
identities, enumerate Farey orbits, replicate the dataset experiments, and
plot edge series. Exit codes are a stable contract: 0 success, 2 usage,
3 a requested check failed, 4 I/O or malformed input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Dict, Optional, Sequence

from . import engine, learners
from .cycles import (
    ALL_CHECKS,
    IDENTITY_CHECKS,
    CycleReport,
    analyze_trace,
    attach_farey,
    detect_cycle,
)
from .engine import FirstAbove, FixedSequence, Optimal
from .farey import GOLDEN, MAX_ENUMERATION_LENGTH, FareyWord, enumerate_orbits, orbit_values
from .figures import FigureSpec, save_figure
from .traceio import (
    TraceFormatError,
    _fraction_text,
    dumps_trace,
    load_pool,
    load_trace,
    save_trace,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_CHECK_FAILED = 3
EXIT_IO = 4

GOLDEN_FLOAT = float(GOLDEN)


def _fmt(value, mode: str) -> str:
    if mode == "exact":
        return _fraction_text(Fraction(value))
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
        return FirstAbove(theta if mode == "exact" else float(theta))
    if text.startswith("fixed:"):
        raw = text.split(":", 1)[1]
        try:
            rows = tuple(int(r) for r in raw.split(","))
        except ValueError:
            raise ValueError(f"bad row schedule {raw!r}")
        return FixedSequence(rows)
    raise ValueError(f"unknown rule {text!r}")


def _load_dataset(args) -> learners.Dataset:
    ds = learners.load_csv(args.dataset, args.label, args.positive)
    if args.sample is not None:
        ds = learners.sample(ds, args.sample, args.seed)
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
        try:
            ds = _load_dataset(args)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_IO
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
        print(f", final edge {_fmt(trace.state(-1)[0], trace.mode)}", end="")
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
    try:
        trace = load_trace(args.trace)
    except (OSError, TraceFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    requested = None
    if args.check is not None:
        requested = [c.strip() for c in args.check.split(",") if c.strip()]
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
        # match on a non-branch cycle) do not fail the run; broken identities do
        failing = [n for n in IDENTITY_CHECKS if not passed[n]]
        if report is None:
            failing = [n for n in failing if n != "agreement"]
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
            for v in rec.values:
                if args.exact:
                    print(f"  {v} = {v.decimal(50)}")
                else:
                    print(f"  {v.decimal(50)}")
        return EXIT_OK

    # orbit
    try:
        word = FareyWord.from_string(args.word)
    except ValueError as exc:
        parser.error(str(exc))
    if word.degenerate:
        print(f"{word}: degenerate all-L word; only periodic point is 0")
        return EXIT_OK
    values = orbit_values(word)
    if not word.primitive:
        print(f"note: {word} is a power word; primitive period {len(word.primitive_root())}")
    for v in values:
        if args.exact:
            print(f"{v} = {v.decimal(50)}")
        else:
            print(v.decimal(50))
    return EXIT_OK


def cmd_replicate(args, parser) -> int:
    try:
        ds = _load_dataset(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    os.makedirs(args.out_dir, exist_ok=True)
    trace = learners.run_on_dataset(ds, args.depth, args.leaves, args.iters, "float")
    provenance = dict(ds.provenance)
    provenance.update({"max_depth": args.depth, "max_leaves": args.leaves, "iters": args.iters})
    trace_path = os.path.join(args.out_dir, "trace.json")
    save_trace(trace, trace_path, provenance)

    report = None
    if len(trace) >= 3 * args.min_repeats:
        report = detect_cycle(trace, tol=args.tol, min_repeats=args.min_repeats)
        if report is not None:
            report = attach_farey(report)

    figure_path = os.path.join(args.out_dir, "edges.svg")
    edges = trace.states[:, 0].tolist()
    if edges:
        points = tuple((float(t), edge) for t, edge in enumerate(edges))
        refs = ((GOLDEN_FLOAT, "(sqrt(5)-1)/2"),)
        name = os.path.basename(args.dataset)
        save_figure(
            FigureSpec(
                title=f"edge values: {name}",
                x_label="iteration",
                y_label="edge",
                series=(("edge", points),),
                ref_lines=refs,
            ),
            figure_path,
        )

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
    with open(os.path.join(args.out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")

    cyc = "yes" if summary["cycle_found"] else "no"
    k = summary["period"] if summary["cycle_found"] else "-"
    nab = {True: "holds", False: "violated", None: "-"}[summary["periodic_learning_holds"]]
    mean_text = "-" if mean_edge is None else f"{mean_edge:.6f}"
    print(
        f"{summary['dataset']} | n={ds.n} | tree=({args.depth},{args.leaves}) | "
        f"cycle={cyc} | k={k} | periodic-learning={nab} | mean edge={mean_text}"
    )
    print(f"wrote {trace_path}, {figure_path}, {os.path.join(args.out_dir, 'summary.json')}")
    return EXIT_OK


def cmd_plot(args, parser) -> int:
    try:
        trace = load_trace(args.trace)
    except (OSError, TraceFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    if not len(trace):
        print("error: trace has no steps to plot", file=sys.stderr)
        return EXIT_IO
    # float(Fraction) and the state matrix round exact edges alike
    points = tuple((float(t), edge) for t, edge in enumerate(trace.state_matrix[:, 0].tolist()))
    if args.last is not None:
        points = points[-args.last :]
    refs = []
    for ref in args.ref or ():
        if ref == "golden":
            refs.append((GOLDEN_FLOAT, "(sqrt(5)-1)/2"))
        else:
            try:
                refs.append((float(Fraction(ref)), ref))
            except (ValueError, ZeroDivisionError):
                parser.error(f"bad reference value {ref!r}")
    save_figure(
        FigureSpec(
            title=args.title or "edge values",
            x_label="iteration",
            y_label="edge",
            series=(("edge", points),),
            ref_lines=tuple(refs),
        ),
        args.out,
    )
    print(f"wrote {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    at_least_1 = _checked(int, lambda v: v >= 1, "at least 1")
    repeats = _checked(int, lambda v: v >= 2, "at least 2")
    tolerance = _checked(float, lambda v: 0 < v < float("inf"), "a finite number above 0")
    parser = argparse.ArgumentParser(
        prog="boostcycles",
        description="Boosting limit cycles and their continued-fraction structure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the boosting loop, write a trace")
    p_run.add_argument("--pool", help="pool file: one +/- dichotomy per line")
    p_run.add_argument("--dataset", help="CSV dataset with a header row")
    p_run.add_argument("--label", help="label column name (dataset runs)")
    p_run.add_argument("--positive", help="label value mapped to +1 (dataset runs)")
    p_run.add_argument("--sample", type=at_least_1, help="sample this many rows without replacement")
    p_run.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    p_run.add_argument("--depth", type=at_least_1, default=3, help="max tree depth (dataset runs)")
    p_run.add_argument("--leaves", type=at_least_1, default=4, help="max tree leaves (dataset runs)")
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
    p_rep.add_argument("--dataset", required=True)
    p_rep.add_argument("--label", required=True)
    p_rep.add_argument("--positive", required=True)
    p_rep.add_argument("--sample", type=at_least_1)
    p_rep.add_argument("--seed", type=int, default=0)
    p_rep.add_argument("--depth", type=at_least_1, default=3)
    p_rep.add_argument("--leaves", type=at_least_1, default=4)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return cmd_run(args, parser)
        if args.command == "analyze":
            return cmd_analyze(args, parser)
        if args.command == "farey":
            return cmd_farey(args, parser)
        if args.command == "replicate":
            return cmd_replicate(args, parser)
        if args.command == "plot":
            return cmd_plot(args, parser)
    except (OSError, TraceFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    parser.error("no command")
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
