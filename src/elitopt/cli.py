"""Command line front end.

Subcommands::

    elitopt run <plan-file>        run an experiment grid and write its files
    elitopt stats <cell-dir>       recompute one cell's summary from its runs
    elitopt plotdata <glob>...     merge history files into plotting data
    elitopt list-problems
    elitopt list-algorithms

The plan file is a JSON object; see :func:`elitopt.harness.plan_from_file`
for the accepted keys.  Failures print a single JSON object to stderr and
exit nonzero, so callers can parse errors without scraping tracebacks.
"""

from __future__ import annotations

import argparse
import glob as globmod
import json
import sys
from pathlib import Path

from .algorithms import algorithm_names
from .harness import (
    _atomic_write,
    cell_stats_from_files,
    emit_plot_data,
    plan_from_file,
    run_experiment,
    write_stats_csv,
)
from .problems import problem_names


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elitopt",
        description="Elite-memory population metaheuristics on truss and analytic benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the experiment grid of a plan file")
    p_run.add_argument("plan_file", type=Path, help="JSON plan document")
    p_run.add_argument("--out", type=Path, help="output directory (overrides the plan)")
    p_run.add_argument("--seed", type=int, help="root seed (overrides the plan)")
    p_run.add_argument("--memory", choices=["on", "off", "both"],
                       help="memory mode for the grid (overrides the plan)")
    p_run.add_argument("--workers", type=int, default=1, help="parallel replicate processes")

    p_stats = sub.add_parser(
        "stats", help="recompute a cell summary from its history files"
    )
    p_stats.add_argument("cell_dir", type=Path)

    p_plot = sub.add_parser("plotdata", help="merge history files for plotting")
    p_plot.add_argument(
        "patterns", nargs="+", help="history files or glob patterns"
    )
    p_plot.add_argument("--output", type=Path, help="write to this file, not stdout")

    sub.add_parser("list-problems", help="print available problem names")
    sub.add_parser("list-algorithms", help="print available algorithm names")
    return parser


def _cmd_run(args) -> int:
    import dataclasses

    plan, plan_out = plan_from_file(args.plan_file)
    if args.seed is not None:
        plan = dataclasses.replace(plan, root_seed=args.seed)
    if args.memory is not None:
        modes = {"on": (True,), "off": (False,), "both": (True, False)}[args.memory]
        plan = dataclasses.replace(plan, memory_modes=modes)
    out_dir = args.out or Path(plan_out or "out")
    run_experiment(plan, out_dir, workers=args.workers)
    sys.stdout.write((Path(out_dir) / "report.txt").read_text(encoding="utf-8"))
    return 0


def _cmd_stats(args) -> int:
    write_stats_csv(sys.stdout, cell_stats_from_files(args.cell_dir))
    return 0


def _cmd_plotdata(args) -> int:
    # each file once, however many patterns name it
    paths = {}
    for pattern in args.patterns:
        matches = [pattern] if Path(pattern).exists() else sorted(globmod.glob(pattern))
        if not matches:
            raise FileNotFoundError(f"no history files match {pattern!r}")
        for match in matches:
            paths.setdefault(Path(match).resolve(), Path(match))
    paths = list(paths.values())
    if args.output is not None:
        with _atomic_write(args.output) as fh:
            emit_plot_data(paths, fh)
    else:
        emit_plot_data(paths, sys.stdout)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "stats":
            return _cmd_stats(args)
        if args.command == "plotdata":
            return _cmd_plotdata(args)
        if args.command == "list-problems":
            print("\n".join(problem_names()))
            return 0
        if args.command == "list-algorithms":
            print("\n".join(algorithm_names()))
            return 0
        raise RuntimeError(f"unhandled command {args.command!r}")
    except Exception as exc:  # surfaced as machine-readable one-liners
        sys.stderr.write(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
