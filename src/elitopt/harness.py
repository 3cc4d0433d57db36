"""Experiment harness: seeded algorithm x problem grids on disk.

An experiment is a grid of cells, one per (algorithm, problem, memory
on/off) combination.  Every cell gets its own base seed derived from the
root seed and the cell's algorithm and problem names only, so the memory
and memoryless variants of the same pair run from identical seeds and can
be compared pairwise; replicate ``r`` adds ``r`` to the cell seed.

Per-cell statistics are recomputed from the emitted history files, and the
report is rebuilt from the directory alone (``write_report(out_dir)`` reads
``manifest.json`` and each cell's ``stats.csv``), digit for digit.  Every
file is written to a temporary sibling and renamed over its final name only
once complete.  A grid first removes the report and clears, in one pass,
every cell that the previous or its own manifest lists, then writes its
manifest, so an interrupted run never leaves a partial or stale file for
``stats`` or the report to read.  A manifest cell must carry the label that
its fields give: one directory name, ``<alg>-<prob>-<mem|std>``.

Layout under the output directory::

    manifest.json                    the resolved plan, with full parameter
                                     tables, and its cells
    <alg>-<prob>-<mem|std>/
        run_000.csv ...              per-replicate history
        stats.csv                    replicate summary
        best.json                    best design of the cell: its raw
                                     position and the snapped design the
                                     objective and violations belong to
        error.txt                    only present when the cell failed
    report.csv                       one row per cell
    improvements.csv                 memory-vs-standard pairs
    report.txt                       aligned text rendering of both
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from .algorithms import ALGORITHMS, algorithm_names
from .core import (
    ConfigError,
    PenaltyParams,
    RunConfig,
    RunResult,
    StatsRecord,
    check_field_types,
    check_value,
    params_from_table,
    read_json,
    replicate_seed,
    replicate_stats,
    run,
)
from .problems import get_problem, problem_names

HISTORY_HEADER = ("iteration", "best_so_far", "nfes")
# a stats row holds StatsRecord's fields in order, each parsed as its type
STATS_HEADER = tuple(f.name for f in dataclasses.fields(StatsRecord))
_STATS_TYPES = tuple(
    int if f.type == "int" else float for f in dataclasses.fields(StatsRecord)
)
REPORT_HEADER = ("cell", "algorithm", "problem", "memory", "status") + STATS_HEADER
PLOT_HEADER = ("cell", "run", "iteration", "best_so_far", "nfes")


def _fmt(x: float) -> str:
    return "%.12g" % float(x)


def cell_seed(root_seed: int, algorithm: str, problem: str) -> int:
    """Base seed of one grid cell.

    The root seed is XOR-combined with the first 8 bytes of
    ``sha256("algorithm:problem")``.  The memory flag deliberately stays out
    of the hash so paired variants start from the same seeds, and no cell's
    seed depends on any other cell's settings.
    """
    digest = hashlib.sha256(f"{algorithm}:{problem}".encode()).digest()
    return (int(root_seed) ^ int.from_bytes(digest[:8], "big")) % 2**64


def iterations_for_budget(budget: int, population_size: int, per_iteration: int) -> int:
    """Iteration count that fits an evaluation budget.

    The initial population costs ``population_size`` evaluations; the rest
    of the budget is divided by the per-iteration cost, discarding any
    remainder, so a run never exceeds the budget.
    """
    if per_iteration < 1:
        raise ConfigError("per-iteration evaluation count must be >= 1")
    left = int(budget) - int(population_size)
    iters = left // per_iteration
    if iters < 1:
        raise ConfigError(
            f"budget {budget} leaves no full iteration "
            f"(initial population {population_size}, {per_iteration} per iteration)"
        )
    return iters


def cell_label(algorithm: str, problem: str, memory: bool) -> str:
    """The name of a cell's directory under the output directory."""
    return f"{algorithm}-{problem}-{'mem' if memory else 'std'}"


@dataclass(frozen=True)
class PlanCell:
    label: str
    algorithm: str
    problem: str
    memory: bool
    seed: int
    iterations: int

    def __post_init__(self):
        check_field_types(self)
        # the label names the cell's directory, so a forged one could lead out
        label = cell_label(self.algorithm, self.problem, self.memory)
        if self.label != label or Path(label).name != label:
            raise ConfigError(f"cell label {self.label!r} is not one directory name, "
                              "<algorithm>-<problem>-<mem|std> of its fields")


@dataclass(frozen=True, kw_only=True)
class ExperimentPlan:
    """A resolved experiment grid; its fields hold every default of a plan.

    Exactly one of ``budget`` (total evaluations per run, initialization
    included) and ``max_iterations`` must be set; with a budget the
    iteration count is derived per algorithm from its per-iteration cost,
    and a budget that leaves some algorithm no full iteration is refused
    when the plan is built.
    ``penalty`` may be a dict of fields or a ``PenaltyParams``, and each
    table of ``algorithm_params`` (by algorithm name) a dict of fields or
    the algorithm itself, whose fields are its parameters.  The plan builds
    and holds the ``PenaltyParams`` and one algorithm for every algorithm
    of the grid, and ``manifest.json`` records their fields in full with
    the other fields.
    """

    algorithms: tuple = tuple(algorithm_names())
    problems: tuple
    memory_modes: tuple = (True, False)
    replicates: int = 20
    population_size: int = 50
    root_seed: int = 0
    budget: int | None = None
    max_iterations: int | None = None
    memory_fraction: float = 0.2
    dim: int = 10
    penalty: PenaltyParams = field(default_factory=PenaltyParams)
    algorithm_params: dict = field(default_factory=dict)

    def __post_init__(self):
        check_field_types(self)
        object.__setattr__(self, "algorithms", tuple(self.algorithms))
        object.__setattr__(self, "problems", tuple(self.problems))
        object.__setattr__(self, "memory_modes", tuple(self.memory_modes))
        if not self.algorithms or not self.problems:
            raise ConfigError("plan needs at least one algorithm and one problem")
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ConfigError("duplicate algorithm in plan")
        if len(set(self.problems)) != len(self.problems):
            raise ConfigError("duplicate problem in plan")
        modes = self.memory_modes
        # not a set difference with {True, False}: 1 == True would pass it
        if not modes or not all(isinstance(m, bool) for m in modes):
            raise ConfigError(f"memory_modes must be one or two bools, not {modes!r}")
        if len(set(modes)) != len(modes):
            raise ConfigError("duplicate memory mode in plan")
        unknown = set(self.algorithms) - set(algorithm_names())
        if unknown:
            raise ConfigError(f"unknown algorithms: {sorted(unknown)}")
        unknown = set(self.problems) - set(problem_names())
        if unknown:
            raise ConfigError(f"unknown problems: {sorted(unknown)}")
        if self.dim < 1:
            raise ConfigError("dim must be >= 1")
        # cell_seed reduces modulo 2**64, so a seed outside would alias another
        if not 0 <= self.root_seed < 2**64:
            raise ConfigError("root_seed must be in [0, 2**64)")
        object.__setattr__(
            self, "penalty", params_from_table(PenaltyParams, self.penalty, "penalty")
        )
        # what every run's configuration would refuse, refused once here
        RunConfig(
            population_size=self.population_size,
            max_iterations=1,
            memory_fraction=self.memory_fraction if True in self.memory_modes else None,
        )
        if self.replicates < 1:
            raise ConfigError("replicates must be >= 1")
        if (self.budget is None) == (self.max_iterations is None):
            raise ConfigError("set exactly one of budget and max_iterations")
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        tables = self.algorithm_params
        bad = set(tables) - set(algorithm_names())
        if bad:
            raise ConfigError(f"parameter tables for unknown algorithms: {sorted(bad)}")
        params = {
            name: params_from_table(ALGORITHMS[name], tables.get(name, {}), name)
            for name in algorithm_names()
            if name in tables or name in self.algorithms
        }
        object.__setattr__(self, "algorithm_params", params)
        # what running a cell would refuse: a population an algorithm cannot
        # run, or a budget that leaves no full iteration
        self.cells()

    def algorithm_instance(self, name: str):
        return self.algorithm_params[name]

    def cells(self) -> list[PlanCell]:
        out = []
        for alg in self.algorithms:
            per_iter = self.algorithm_instance(alg).evals_per_iteration(
                self.population_size
            )
            if self.max_iterations is not None:
                iters = self.max_iterations
            else:
                iters = iterations_for_budget(
                    self.budget, self.population_size, per_iter
                )
            for prob in self.problems:
                seed = cell_seed(self.root_seed, alg, prob)
                for memory in self.memory_modes:
                    label = cell_label(alg, prob, memory)
                    out.append(PlanCell(label, alg, prob, memory, seed, iters))
        return out


def _as_name_list(doc: dict, singular: str, plural: str) -> tuple | None:
    """The names under ``singular`` or ``plural``, a string or a list of
    strings, taken out of ``doc``; ``None`` when it has neither key."""
    if singular in doc and plural in doc:
        raise ConfigError(f"give either {singular!r} or {plural!r}, not both")
    key = plural if plural in doc else singular
    value = doc.pop(key, None)
    if value is None:
        return None
    if isinstance(value, str):
        return (value,)
    if isinstance(value, list) and all(isinstance(v, str) for v in value):
        return tuple(value)
    raise ConfigError(f"{key} must be a string or a list of strings, not {value!r}")


# the ExperimentPlan fields that a plan file names as they are
_SAME_NAME_KEYS = {f.name for f in dataclasses.fields(ExperimentPlan)} - {
    "algorithms", "problems", "memory_modes", "root_seed", "algorithm_params"
}


def plan_from_file(path: str | Path) -> tuple[ExperimentPlan, str | None]:
    """Parse a JSON plan document; returns the plan and the optional output
    directory named inside it.  Only the document's shape is checked here;
    its keys map onto :class:`ExperimentPlan` fields (``seed`` is
    ``root_seed``, ``memory_enabled`` one memory mode, a table under an
    algorithm's name an entry of ``algorithm_params``), which hold the
    defaults and check the values.  Errors are prefixed with the file."""
    doc = read_json(path)
    try:
        if not isinstance(doc, dict):
            raise ConfigError("plan must be a JSON object")
        out = check_value(doc.pop("out", None), "str | None", "out")
        tables = {name: doc.pop(name) for name in algorithm_names() if name in doc}
        kwargs = {"algorithm_params": tables}
        for singular, plural in (("algorithm", "algorithms"), ("problem", "problems")):
            names = _as_name_list(doc, singular, plural)
            if names is not None:
                kwargs[plural] = names
        if "problems" not in kwargs:
            raise ConfigError("plan names no problem")
        memory = check_value(doc.pop("memory_enabled", None), "bool | None", "memory_enabled")
        if memory is not None:
            kwargs["memory_modes"] = (memory,)
        if "seed" in doc:
            kwargs["root_seed"] = doc.pop("seed")
        unknown = set(doc) - _SAME_NAME_KEYS
        if unknown:
            raise ConfigError(f"unknown plan keys {sorted(unknown)}")
        return ExperimentPlan(**kwargs, **doc), out
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# CSV files


@contextmanager
def _atomic_write(path: str | Path):
    """Text stream whose contents replace ``path`` only when the block
    completes; on an error the file at ``path`` is left as it was."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def write_history_csv(path: Path, history) -> None:
    with _atomic_write(path) as fh:
        fh.write(",".join(HISTORY_HEADER) + "\n")
        for iteration, best, nfes in history:
            fh.write(f"{int(iteration)},{_fmt(best)},{int(nfes)}\n")


def read_history_csv(path: str | Path) -> list[tuple[int, float, int]]:
    """Parse one history file; errors name the file and the 1-based line."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or tuple(lines[0].split(",")) != HISTORY_HEADER:
        raise ValueError(f"{path}:1: expected header {','.join(HISTORY_HEADER)}")
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected 3 fields, got {len(parts)}")
        try:
            out.append((int(parts[0]), float(parts[1]), int(parts[2])))
        except ValueError:
            raise ValueError(f"{path}:{lineno}: malformed row {line!r}") from None
    if not out:
        raise ValueError(f"{path}:1: history has no data rows")
    return out


def _stats_row(stats: StatsRecord | None) -> list[str]:
    """The stats columns of a row of ``stats.csv`` or ``report.csv``; empty
    for a cell without statistics."""
    if stats is None:
        return [""] * len(STATS_HEADER)
    return [
        str(int(v)) if kind is int else _fmt(v)
        for kind, v in zip(_STATS_TYPES, dataclasses.astuple(stats))
    ]


def write_stats_csv(stream, stats: StatsRecord) -> None:
    """Write the two-line stats table to an open text stream."""
    stream.write(",".join(STATS_HEADER) + "\n")
    stream.write(",".join(_stats_row(stats)) + "\n")


def read_stats_csv(path: str | Path) -> StatsRecord:
    path = Path(path)
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if len(rows) != 2 or tuple(rows[0]) != STATS_HEADER:
        raise ValueError(f"{path}:1: not a stats file")
    vals = rows[1]
    if len(vals) != len(STATS_HEADER):
        raise ValueError(
            f"{path}:2: {len(vals)} fields, expected {len(STATS_HEADER)}"
        )
    return StatsRecord(*(kind(v) for kind, v in zip(_STATS_TYPES, vals)))


def cell_stats_from_files(cell_dir: str | Path) -> StatsRecord:
    """Recompute the cell summary from its run files alone."""
    cell_dir = Path(cell_dir)
    paths = sorted(cell_dir.glob("run_*.csv"))
    if not paths:
        raise ValueError(f"{cell_dir}: no run files")
    finals, nfes = [], []
    for path in paths:
        history = read_history_csv(path)
        finals.append(history[-1][1])
        nfes.append(history[-1][2])
    return replicate_stats(finals, nfes)


# ---------------------------------------------------------------------------
# Running cells


def _replicate_job(plan: ExperimentPlan, cell: PlanCell, replicate: int) -> RunResult:
    """Run replicate ``replicate`` of ``cell`` as ``plan`` sets it up."""
    algorithm = plan.algorithm_instance(cell.algorithm)
    problem = get_problem(cell.problem, dim=plan.dim)
    config = RunConfig(
        population_size=plan.population_size,
        max_iterations=cell.iterations,
        memory_fraction=plan.memory_fraction if cell.memory else None,
        seed=replicate_seed(cell.seed, replicate),
        penalty=plan.penalty,
    )
    return run(algorithm, problem, config)


def _clear_cell(cell_dir: Path) -> None:
    """Remove the files a run of a cell writes from ``cell_dir``."""
    names = ("stats.csv", "best.json", "error.txt")
    for path in [*cell_dir.glob("run_*.csv"), *(cell_dir / n for n in names)]:
        path.unlink(missing_ok=True)


def run_cell(
    cell: PlanCell, plan: ExperimentPlan, out_dir: Path, workers: int = 1
) -> list[RunResult]:
    """Run all replicates of one cell and write its files, first removing
    what an earlier run left in its directory (so that a rerun with fewer
    replicates does not count the old run files).

    The stats file is computed from the just-written history files, not
    from the in-memory results, so it round-trips exactly.
    """
    cell_dir = Path(out_dir) / cell.label
    cell_dir.mkdir(parents=True, exist_ok=True)
    _clear_cell(cell_dir)
    replicates = range(plan.replicates)
    if workers > 1:
        # imported here, so that a serial run never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(_replicate_job, repeat(plan), repeat(cell), replicates)
            )
    else:
        results = [_replicate_job(plan, cell, r) for r in replicates]
    for r, result in enumerate(results):
        write_history_csv(cell_dir / f"run_{r:03d}.csv", result.history)
    stats = cell_stats_from_files(cell_dir)
    with _atomic_write(cell_dir / "stats.csv") as fh:
        write_stats_csv(fh, stats)
    best_r = min(range(len(results)), key=lambda r: results[r].best.fitness)
    best = results[best_r].best
    with _atomic_write(cell_dir / "best.json") as fh:
        json.dump(
            {
                "replicate": best_r,
                "fitness": best.fitness,
                "objective": best.objective,
                "violations": [float(v) for v in best.violations],
                "position": [float(x) for x in best.position],
                "design": [float(x) for x in results[best_r].design],
            },
            fh,
            indent=2,
        )
        fh.write("\n")
    return results


def write_manifest(plan: ExperimentPlan, out_dir: Path) -> None:
    """``manifest.json``: the plan's fields, its parameter tables in full,
    and its cells."""
    doc = dataclasses.asdict(plan)
    doc["cells"] = [dataclasses.asdict(c) for c in plan.cells()]
    with _atomic_write(Path(out_dir) / "manifest.json") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_manifest(out_dir: str | Path) -> list[PlanCell]:
    """The cells of ``out_dir``'s ``manifest.json``; ``ConfigError`` unless valid."""
    path = Path(out_dir) / "manifest.json"
    doc = read_json(path)
    cells = doc.get("cells") if isinstance(doc, dict) else None
    keys = {f.name for f in dataclasses.fields(PlanCell)}
    if not isinstance(cells, list) or not all(
        isinstance(c, dict) and set(c) == keys for c in cells
    ):
        raise ConfigError(f"{path}: cells must be a list of tables of {sorted(keys)}")
    try:
        return [PlanCell(**c) for c in cells]
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# Reports


@dataclass(frozen=True)
class CellSummary:
    """A cell of the report and its statistics, ``None`` when it failed."""

    cell: PlanCell
    stats: StatsRecord | None

    @property
    def status(self) -> str:
        return "failed" if self.stats is None else "ok"


@dataclass(frozen=True)
class PairImprovement:
    """Memory-vs-standard comparison of one (algorithm, problem) pair.

    ``improvement_pct`` is ``100 * (standard_mean - memory_mean) /
    standard_mean``; positive means the memory variant did better.
    """

    algorithm: str
    problem: str
    standard_mean: float
    memory_mean: float
    improvement_pct: float


IMPROVEMENT_HEADER = tuple(f.name for f in dataclasses.fields(PairImprovement))


@dataclass(frozen=True)
class ComparisonReport:
    cells: tuple
    improvements: tuple
    mean_improvement: float | None
    max_improvement: float | None


def build_report(out_dir: str | Path) -> ComparisonReport:
    """Summarize an output directory from its files alone: the cells that
    ``manifest.json`` lists, each with the statistics of its ``stats.csv``.
    A cell with an ``error.txt`` (it can fail after its stats are written,
    in ``best.json`` say) or without a readable ``stats.csv`` failed."""
    out_dir = Path(out_dir)
    summaries = []
    for cell in read_manifest(out_dir):
        cell_dir = out_dir / cell.label
        stats = None
        if not (cell_dir / "error.txt").exists():
            try:
                stats = read_stats_csv(cell_dir / "stats.csv")
            except (OSError, ValueError):
                pass
        summaries.append(CellSummary(cell, stats))
    # a missing partner and a failed one both have no statistics
    std_stats = {
        (s.cell.algorithm, s.cell.problem): s.stats
        for s in summaries if not s.cell.memory
    }
    improvements = []
    for s in summaries:
        c, mem = s.cell, s.stats
        std = std_stats.get((c.algorithm, c.problem)) if c.memory else None
        if mem is None or std is None or mem.runs != std.runs or std.mean == 0:
            continue
        pct = 100.0 * (std.mean - mem.mean) / std.mean
        improvements.append(
            PairImprovement(c.algorithm, c.problem, std.mean, mem.mean, pct)
        )
    pcts = [p.improvement_pct for p in improvements]
    return ComparisonReport(
        cells=tuple(summaries),
        improvements=tuple(improvements),
        mean_improvement=float(np.mean(pcts)) if pcts else None,
        max_improvement=float(np.max(pcts)) if pcts else None,
    )


def _render_table(header, rows) -> list[str]:
    widths = [len(h) for h in header]
    for row in rows:
        for j, value in enumerate(row):
            widths[j] = max(widths[j], len(value))
    lines = ["  ".join(h.ljust(widths[j]) for j, h in enumerate(header)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append(
            "  ".join(value.ljust(widths[j]) for j, value in enumerate(row)).rstrip()
        )
    return lines


def write_report(out_dir: str | Path) -> ComparisonReport:
    """Write ``report.csv``, ``improvements.csv`` and ``report.txt``, built
    from the files of ``out_dir`` alone (see :func:`build_report`)."""
    out_dir = Path(out_dir)
    report = build_report(out_dir)

    cell_rows = [
        [s.cell.label, s.cell.algorithm, s.cell.problem,
         "on" if s.cell.memory else "off", s.status] + _stats_row(s.stats)
        for s in report.cells
    ]
    with _atomic_write(out_dir / "report.csv") as fh:
        fh.write(",".join(REPORT_HEADER) + "\n")
        for row in cell_rows:
            fh.write(",".join(row) + "\n")

    pair_rows = [
        [p.algorithm, p.problem, _fmt(p.standard_mean), _fmt(p.memory_mean),
         _fmt(p.improvement_pct)]
        for p in report.improvements
    ]
    with _atomic_write(out_dir / "improvements.csv") as fh:
        fh.write(",".join(IMPROVEMENT_HEADER) + "\n")
        for row in pair_rows:
            fh.write(",".join(row) + "\n")

    lines = ["Per-cell statistics", ""]
    lines += _render_table(REPORT_HEADER, cell_rows)
    lines += ["", "Memory vs standard (positive % = memory better)", ""]
    if pair_rows:
        lines += _render_table(IMPROVEMENT_HEADER, pair_rows)
        lines += [
            "",
            f"mean improvement: {_fmt(report.mean_improvement)}%",
            f"max improvement:  {_fmt(report.max_improvement)}%",
        ]
    else:
        lines.append("(no complete memory/standard pairs)")
    with _atomic_write(out_dir / "report.txt") as fh:
        fh.write("\n".join(lines) + "\n")
    return report


def run_experiment(
    plan: ExperimentPlan, out_dir: str | Path, workers: int = 1
) -> ComparisonReport:
    """Run the whole grid and write all files.

    A failing cell is recorded (``error.txt`` in its directory, status
    ``failed`` in the report) without affecting the other cells.  ``workers``
    (replicate processes per cell) below 1 is refused before any file is
    written.
    """
    if workers < 1:
        raise ConfigError(f"workers must be >= 1, not {workers!r}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # one pass, before the new manifest, removes the report and clears every
    # cell that either manifest lists: a rerun stopped at any point leaves no
    # stale report and no cell reading ok from an earlier run, and a smaller
    # one no dropped cell for plotdata to merge
    try:
        previous = read_manifest(out_dir)
    except (OSError, ValueError):  # missing or unreadable: it lists none
        previous = []
    for name in ("report.csv", "improvements.csv", "report.txt"):
        (out_dir / name).unlink(missing_ok=True)
    cells = plan.cells()
    for cell in previous + cells:
        _clear_cell(out_dir / cell.label)
    write_manifest(plan, out_dir)
    for cell in cells:
        try:
            run_cell(cell, plan, out_dir, workers=workers)
        except Exception as exc:
            with _atomic_write(out_dir / cell.label / "error.txt") as fh:
                fh.write(f"{type(exc).__name__}: {exc}\n")
    return write_report(out_dir)


def emit_plot_data(paths, stream) -> None:
    """Merge history files into one long-format table.

    ``cell`` is the parent directory name of each file, ``run`` the numeric
    suffix of its stem.
    """
    paths = [Path(p) for p in paths]
    if not paths:
        raise ValueError("no history files to merge")
    stream.write(",".join(PLOT_HEADER) + "\n")
    for path in sorted(paths, key=str):
        cell = path.parent.name
        stem_tail = path.stem.rsplit("_", 1)[-1]
        run_id = int(stem_tail) if stem_tail.isdigit() else 0
        for iteration, best, nfes in read_history_csv(path):
            stream.write(f"{cell},{run_id},{iteration},{_fmt(best)},{nfes}\n")
