"""Fast self-test of the benchmark, with a tiny evaluation budget.

    python3 perfbench/selftest.py

Checks that, on every workload, ``run.py`` emits every metric named in
``BENCHMARK.json`` with its unit (``--trace 0`` and ``--trace 1``) and
prints every end-to-end metric of its report by name; that two
in-process repeats, and a traced repeat, give the same history digest; that
``layer_map.json`` covers every per-layer metric; and that ``run.py`` fails
without printing a result in a directory holding only the benchmark.
Exits 1 and names each failed check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import grid

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUDGET = 150
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# end-to-end metrics each workload's report prints, in or beyond the contract
_COMMON = ("evals_per_s", "evals_per_s.bbo", "evals_per_s.kha", "evals_per_s.teo",
           "evals_per_s.mem", "setup_s", "peak_rss_mb", "failed_frac")
REPORTED = {
    "small-truss": _COMMON + ("evals_per_s.std", "feasible_frac"),
    "forth": _COMMON + ("feasible_frac",),
    "analytic": _COMMON + ("evals_per_s.std",),
}


def contract() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_benchmark(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace), "--budget", str(BUDGET)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def printed_metrics(stdout: str) -> set:
    """Names of the metrics in the report lines (``  name value unit``)."""
    names = set()
    for line in stdout.splitlines():
        parts = line.split()
        if line.startswith("  ") and len(parts) == 3 and parts[0][0].isalpha():
            names.add(parts[0])
    return names


def check_emitted(doc: dict, failures: list) -> set:
    """Run every workload at both trace settings; returns the names of all
    end-to-end metrics printed."""
    printed = set()
    for workload in grid.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            where = f"{workload} --trace {trace}"
            proc = run_benchmark(ROOT, workload, trace)
            if proc.returncode != 0:
                failures.append(f"{where}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if set(result) != RESULT_KEYS or not result["correct"]:
                failures.append(f"{where}: bad result {result}")
                continue
            if result["attempted"] < 1 or result["failed"] != 0:
                failures.append(f"{where}: attempted {result['attempted']}, failed {result['failed']}")
            wanted = {m["name"]: m["unit"] for m in doc[section]}
            if set(result["metrics"]) != set(wanted):
                failures.append(f"{where}: metrics {sorted(set(result['metrics']) ^ set(wanted))} differ")
            for name, unit in wanted.items():
                got = result["metrics"].get(name, {})
                value = got.get("value")
                number = isinstance(value, (int, float)) and not isinstance(value, bool)
                if got.get("unit") != unit or not number or not math.isfinite(value):
                    failures.append(f"{where}: {name} reads {got}, want a number in {unit}")
            if not trace:
                names = printed_metrics(proc.stdout)
                missing = set(REPORTED[workload]) - names
                if missing:
                    failures.append(f"{where}: report lacks {sorted(missing)}")
                printed |= names
            print(f"ran {where}", flush=True)
    return printed


def check_digests(failures: list) -> None:
    grid.use_checkout_source()
    for workload in grid.WORKLOADS:
        plain = grid.run_repeats(workload, 3, 0, repeats=2, budget=BUDGET)
        traced = grid.run_repeats(workload, 3, 0, repeats=1, trace=True, budget=BUDGET)
        digests = [r["digest"] for r in plain["repeats"] + traced["repeats"]]
        if len(set(digests)) != 1:
            failures.append(f"{workload}: history digests differ across repeats: {digests}")
        problems = [p for r in plain["repeats"] for c in r["cells"] for p in c["problems"]]
        if problems:
            failures.append(f"{workload}: output checks failed: {problems}")
        print(f"ran {workload}: digests {[d[:12] for d in digests]}", flush=True)


def check_layer_map(doc: dict, printed: set, failures: list) -> None:
    with open(HERE / "layer_map.json", encoding="utf-8") as fh:
        layer_map = json.load(fh)["metrics"]
    per_layer = {m["name"] for m in doc["per_layer"]}
    workloads = {w["name"] for w in doc["workloads"]}
    if set(layer_map) != per_layer:
        failures.append(f"layer_map.json and per_layer differ: {sorted(set(layer_map) ^ per_layer)}")
    for name, entry in layer_map.items():
        named = entry["moves"] + entry.get("unchanged", [])
        if not set(named) <= printed:
            failures.append(f"layer_map {name}: unknown end-to-end metric in {named}")
        if not set(entry["on"] + entry.get("unchanged_on", [])) <= workloads:
            failures.append(f"layer_map {name}: unknown workload")


def check_bare_directory(failures: list) -> None:
    """Only BENCHMARK.json and the benchmark's own files: must fail cleanly."""
    grid.OUT_BASE.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=grid.OUT_BASE) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_benchmark(bare, "analytic", 0)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    print(f"ran bare directory: exit {proc.returncode}", flush=True)


def main() -> int:
    doc = contract()
    failures: list[str] = []
    check_bare_directory(failures)
    check_digests(failures)
    check_layer_map(doc, check_emitted(doc, failures), failures)
    for failure in failures:
        print("FAIL", failure)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
