"""elitopt benchmark: grid throughput per workload, with an optional layer trace.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload small-truss --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Every grid runs in a fresh worker process (``grid.py``) with BLAS pinned to
one thread.  ``--trace 0`` reports the end-to-end metrics of an untraced
worker plus ``setup_s``, the median cold start of several fresh probe
processes.  ``--trace 1`` runs the same grid untraced and then traced, in
two workers, and reports the per-layer metrics and the tracing overhead.

Human-readable lines come first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 when every output check passed, 1 when one failed or a worker
did not finish, and 2 when the checkout holds no elitopt sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from grid import WORKLOADS
from tracing import ALGORITHMS, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 9
DEADLINE_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    """A worker process failed or ran out of time."""


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    return env


def run_worker(args: list[str], timeout: float) -> dict:
    cmd = [sys.executable, str(HERE / "grid.py"), *args]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=worker_env(), capture_output=True, text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {' '.join(args)} timed out") from None
    if proc.returncode != 0:
        raise WorkerError(f"worker {' '.join(args)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time from spawning a fresh interpreter until it is ready to
    evaluate: import elitopt, load the problems, resolve the plan.

    One extra probe runs first and is not timed, so the file cache and the
    bytecode cache are warm, as they are for a user's second run.
    """
    times = []
    for _ in range(SETUP_PROBES + 1):
        cmd = [sys.executable, str(HERE / "grid.py"), "--workload", workload,
               "--seed", str(seed), "--probe"]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                              text=True) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            if proc.wait(timeout=60) != 0 or line.strip() != "ready":
                raise WorkerError(f"setup probe for {workload} failed")
        times.append(elapsed)
    return times[1:]


# ---------------------------------------------------------------------------
# Metrics


def cell_failures(record: dict) -> tuple[int, int, list[str]]:
    """(cells attempted, cells failed, messages) over all repeats, counting a
    repeat whose history digest differs from the first repeat's as failed."""
    attempted = failed = 0
    messages = []
    first = record["repeats"][0]["digest"]
    for k, rep in enumerate(record["repeats"]):
        for cell in rep["cells"]:
            attempted += 1
            if cell["problems"]:
                failed += 1
                messages += [f"repeat {k} {cell['label']}: {p}" for p in cell["problems"]]
        if rep["digest"] != first:
            failed += len(rep["cells"])
            messages.append(f"repeat {k}: history digest {rep['digest']} != {first}")
    return attempted, failed, messages


def rate(cells: list[dict]) -> float:
    return sum(c["nfes"] for c in cells) / sum(c["wall"] for c in cells)


def end_to_end(record: dict, setup: list[float]) -> dict:
    """End-to-end metrics as ``{name: (value, unit)}``; each throughput is
    the median over the worker's repeats."""
    reps = record["repeats"]
    m = {"evals_per_s": (statistics.median(
        sum(c["nfes"] for c in r["cells"]) / r["wall"] for r in reps), "1/s")}
    groups = {f"evals_per_s.{a}": (lambda c, a=a: c["algorithm"] == a) for a in ALGORITHMS}
    groups["evals_per_s.mem"] = lambda c: c["memory"]
    groups["evals_per_s.std"] = lambda c: not c["memory"]
    for name, member in groups.items():
        per_rep = [rate(cells) for r in reps if (cells := [c for c in r["cells"] if member(c)])]
        if per_rep:
            m[name] = (statistics.median(per_rep), "1/s")
    m["setup_s"] = (statistics.median(setup), "s")
    m["peak_rss_mb"] = (record["peak_rss_mb"], "MB")
    attempted, failed, _ = cell_failures(record)
    m["failed_frac"] = (failed / attempted, "ratio")
    feasible = [c["feasible"] for c in reps[0]["cells"] if c["feasible"] is not None]
    if feasible:
        m["feasible_frac"] = (sum(feasible) / len(feasible), "ratio")
    return m


def contract_metrics(trace: bool) -> dict:
    """Metric names and units that the last JSON line must carry."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"] for m in doc["per_layer" if trace else "end_to_end"]}


# ---------------------------------------------------------------------------
# One workload


def measure(workload: str, seed: int, seconds: float, trace: bool, budget: int | None):
    """Run one workload; returns (report lines, metrics, attempted, failed)."""
    start = time.perf_counter()
    extra = [] if budget is None else ["--budget", str(budget)]
    base = ["--workload", workload, "--seed", str(seed), *extra]
    lines = []
    if trace:
        # untraced and traced halves run the same number of repeats
        plain = run_worker([*base, "--seconds", str(seconds / 2)], DEADLINE_S)
        repeats = len(plain["repeats"])
        traced = run_worker(
            [*base, "--repeats", str(repeats), "--trace"],
            DEADLINE_S - (time.perf_counter() - start),
        )
        records = [plain, traced]
        untraced_wall = statistics.median(r["wall"] for r in plain["repeats"])
        traced_wall = statistics.median(r["wall"] for r in traced["repeats"])
        metrics = layer_metrics(traced["trace"], repeats, traced_wall, untraced_wall)
        lines.append(f"traced wall {traced_wall:.3f} s, untraced {untraced_wall:.3f} s")
        self_time = traced["trace"]["self"]
        grid_total = sum(self_time.values())
        for name in sorted(self_time, key=self_time.get, reverse=True)[:12]:
            lines.append(f"  span {name:<40} calls {traced['trace']['calls'][name]:>9}"
                         f"  self {self_time[name] / grid_total:6.1%}")
        errors = traced["trace"]["errors"]
        if errors:
            lines.append("exceptions through spans: " + ", ".join(
                f"{k} x{v}" for k, v in sorted(errors.items())))
    else:
        setup = setup_seconds(workload, seed)
        plain = run_worker([*base, "--seconds", str(seconds)], DEADLINE_S - 30)
        records = [plain]
        metrics = end_to_end(plain, setup)
        lines.append("setup probes (s): " + " ".join(f"{t:.4f}" for t in setup))

    attempted = failed = 0
    for record in records:
        a, f, messages = cell_failures(record)
        attempted, failed = attempted + a, failed + f
        lines += [f"CHECK FAILED {m}" for m in messages]
    if trace and traced["repeats"][0]["digest"] != plain["repeats"][0]["digest"]:
        failed += len(traced["repeats"][0]["cells"])
        lines.append("CHECK FAILED traced history digest differs from untraced")

    env = plain["environment"]
    head = [
        f"workload {workload}  seed {seed}  repeats {len(plain['repeats'])}  "
        f"trace {int(trace)}  cells {attempted} attempted, {failed} failed",
        f"history sha256 {plain['repeats'][0]['digest']}",
        "env python {python}  numpy {numpy}  blas {blas}  threads {threads}  "
        "nproc {nproc}  cpu {cpu}  loadavg {load}".format(
            threads=",".join(f"{k}={v}" for k, v in env["blas_threads"].items()),
            load=" ".join(str(x) for x in env["loadavg"]), **env),
        "repeat walls (s): " + " ".join(f"{r['wall']:.3f}" for r in plain["repeats"]),
    ]
    body = [f"  {name:<36} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    return head + lines + body, metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--budget", type=int, default=None,
                        help="evaluations per run (default: the paper's 4000)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "elitopt" / "__init__.py").is_file():
        print(f"no elitopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    wanted = contract_metrics(trace)
    workloads = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        try:
            lines, metrics, attempted, failed = measure(
                workload, args.seed, args.seconds, trace, args.budget)
        except WorkerError as exc:
            print(exc, file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        result["attempted"] += attempted
        result["failed"] += failed
        prefix = "" if len(workloads) == 1 else f"{workload}/"
        for name, unit in wanted.items():
            value, got_unit = metrics[name]
            if got_unit != unit:
                raise RuntimeError(f"{name}: unit {got_unit!r}, BENCHMARK.json says {unit!r}")
            result["metrics"][prefix + name] = {"value": value, "unit": unit}
    result["correct"] = result["failed"] == 0
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
