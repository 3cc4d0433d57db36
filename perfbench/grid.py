"""Benchmark workloads: seeded elitopt grids run through the public harness.

Each workload is an experiment grid at the paper's setting (population 50,
budget 4000 evaluations, one replicate per cell).  A repeat runs the whole
grid with ``harness.run_experiment`` into a fresh output directory, checks
every file it wrote and hashes the history files.

Run as a script this module is the worker process of ``run.py``::

    python perfbench/grid.py --workload analytic --seed 1 --seconds 10
    python perfbench/grid.py --workload forth --seed 1 --probe

It prints one JSON line.  ``--probe`` stops after loading the workload's
problems and resolving the plan, just before the first evaluation, and is
what ``setup_s`` times.  ``--trace`` wraps the package's public functions
(see ``tracing.py``) and adds the raw span table to the record.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import resource
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_BASE = ROOT / ".perfbench_out"

POPULATION = 50
BUDGET = 4000
REPLICATES = 1
TRUSS_PROBLEMS = ("michell", "truss37", "forth")


@dataclass(frozen=True)
class Workload:
    algorithms: tuple
    problems: tuple
    memory_modes: tuple


WORKLOADS = {
    "small-truss": Workload(("bbo", "kha", "teo"), ("michell", "truss37"), (True, False)),
    "forth": Workload(("bbo", "kha", "teo"), ("forth",), (True,)),
    "analytic": Workload(("bbo", "kha", "teo"), ("sphere",), (True, False)),
}


def use_checkout_source() -> None:
    """Import ``elitopt`` from this checkout's ``src``, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import elitopt

    if Path(elitopt.__file__).resolve().parent != SRC / "elitopt":
        raise RuntimeError(f"elitopt imported from {elitopt.__file__}, not {SRC}")


def make_plan(workload: str, seed: int, budget: int = BUDGET):
    from elitopt.harness import ExperimentPlan

    w = WORKLOADS[workload]
    return ExperimentPlan(
        algorithms=w.algorithms,
        problems=w.problems,
        memory_modes=w.memory_modes,
        replicates=REPLICATES,
        population_size=POPULATION,
        root_seed=seed,
        budget=budget,
    )


def environment() -> dict:
    """Versions, BLAS and host facts recorded with every result."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {
            k: os.environ.get(k, "unset")
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


# ---------------------------------------------------------------------------
# Output checks


def history_digest(out_dir: Path) -> str:
    """sha256 over every ``run_*.csv`` below ``out_dir``, by relative path."""
    h = hashlib.sha256()
    for path in sorted(out_dir.glob("*/run_*.csv")):
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def check_cell(plan, cell, out_dir: Path, report_rows: dict) -> tuple[int, list[str]]:
    """Final evaluation count of one cell and the checks it failed."""
    from elitopt.harness import read_history_csv, read_stats_csv

    cell_dir = out_dir / cell.label
    problems = []
    if (cell_dir / "error.txt").exists():
        problems.append("error.txt: " + (cell_dir / "error.txt").read_text().strip())
    row = report_rows.get(cell.label)
    if row is None or row["status"] != "ok":
        problems.append(f"report.csv status {None if row is None else row['status']!r}")
    runs = sorted(cell_dir.glob("run_*.csv"))
    if len(runs) != plan.replicates:
        problems.append(f"{len(runs)} history files, expected {plan.replicates}")
    per_iteration = plan.algorithm_instance(cell.algorithm).evals_per_iteration(
        plan.population_size
    )
    expected_nfes = plan.population_size + cell.iterations * per_iteration
    nfes = 0
    for path in runs:
        try:
            history = read_history_csv(path)
        except ValueError as exc:
            problems.append(str(exc))
            continue
        bests = [b for _, b, _ in history]
        if any(b > a for a, b in zip(bests, bests[1:])):
            problems.append(f"{path.name}: best_so_far increases")
        if len(history) != cell.iterations + 1:
            problems.append(f"{path.name}: {len(history)} rows, expected {cell.iterations + 1}")
        if history[-1][2] != expected_nfes:
            problems.append(f"{path.name}: final nfes {history[-1][2]}, expected {expected_nfes}")
        nfes += history[-1][2]
    try:
        stats = read_stats_csv(cell_dir / "stats.csv")
        if stats.runs != plan.replicates:
            problems.append(f"stats.csv runs {stats.runs}, expected {plan.replicates}")
    except (OSError, ValueError) as exc:
        problems.append(f"stats.csv: {exc}")
    return nfes, problems


def best_is_feasible(cell_dir: Path) -> bool:
    """Whether the cell's best design has zero total violation.

    With one replicate per cell the cell's best is its replicate's best.
    """
    with open(cell_dir / "best.json", encoding="utf-8") as fh:
        return sum(json.load(fh)["violations"]) == 0


def check_grid(plan, out_dir: Path) -> dict:
    with open(out_dir / "report.csv", encoding="utf-8", newline="") as fh:
        report_rows = {row["cell"]: row for row in csv.DictReader(fh)}
    cells = []
    for cell in plan.cells():
        nfes, problems = check_cell(plan, cell, out_dir, report_rows)
        feasible = None
        if cell.problem in TRUSS_PROBLEMS and not problems:
            feasible = best_is_feasible(out_dir / cell.label)
        cells.append(
            {
                "label": cell.label,
                "algorithm": cell.algorithm,
                "memory": cell.memory,
                "nfes": nfes,
                "feasible": feasible,
                "problems": problems,
            }
        )
    return {"cells": cells, "digest": history_digest(out_dir)}


# ---------------------------------------------------------------------------
# Running repeats


class Patcher:
    """Replaces module or class attributes and puts the originals back."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        for owner, name, value in reversed(self._saved):
            setattr(owner, name, value)
        self._saved.clear()


def run_repeats(
    workload: str,
    seed: int,
    seconds: float,
    repeats: int | None = None,
    trace: bool = False,
    budget: int = BUDGET,
) -> dict:
    """Run the workload's grid ``repeats`` times, or else as often as fits
    in ``seconds`` (at least once; a repeat starts only when one more of the
    same length would still end within ``seconds``), and check every
    repeat's files.

    Per-cell wall time comes from a clock around ``harness.run_cell``; it
    is one pair of ``perf_counter`` calls per cell.
    """
    from elitopt import harness

    plan = make_plan(workload, seed, budget)
    patcher = Patcher()
    cell_walls: dict[str, float] = {}
    run_cell = harness.run_cell

    def timed_run_cell(cell, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return run_cell(cell, *args, **kwargs)
        finally:
            cell_walls[cell.label] = time.perf_counter() - t0

    tracer = None
    patcher.replace(harness, "run_cell", timed_run_cell)
    if trace:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer, patcher)
    OUT_BASE.mkdir(exist_ok=True)
    results = []
    start = time.perf_counter()
    try:
        while True:
            cell_walls.clear()
            with tempfile.TemporaryDirectory(dir=OUT_BASE) as tmp:
                out_dir = Path(tmp)
                t0 = time.perf_counter()
                harness.run_experiment(plan, out_dir, workers=1)
                wall = time.perf_counter() - t0
                checked = check_grid(plan, out_dir)
            for cell in checked["cells"]:
                cell["wall"] = cell_walls[cell["label"]]
            results.append({"wall": wall, **checked})
            if repeats is not None:
                if len(results) >= repeats:
                    break
            elif time.perf_counter() - start + wall > seconds:
                break
    finally:
        patcher.restore()
    record = {"workload": workload, "seed": seed, "repeats": results}
    if tracer is not None:
        record["trace"] = tracer.table()
    return record


def probe(workload: str, seed: int) -> None:
    """Cold-start work up to the first evaluation: import, load, resolve."""
    from elitopt.problems import get_problem

    plan = make_plan(workload, seed)
    plan.cells()
    for name in plan.algorithms:
        plan.algorithm_instance(name)
    for name in plan.problems:
        get_problem(name, dim=plan.dim)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--repeats", type=int, default=None)
    parser.add_argument("--budget", type=int, default=BUDGET)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    use_checkout_source()
    if args.probe:
        probe(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    env = environment()
    record = run_repeats(
        args.workload, args.seed, args.seconds, args.repeats, args.trace, args.budget
    )
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["environment"] = env
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
