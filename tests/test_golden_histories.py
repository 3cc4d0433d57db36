"""Golden record: a seeded grid must reproduce every file it writes.

A reduced grid (bbo, kha and teo on michell, truss37, forth and sphere, with
and without the elite memory, two replicates each, a small budget) is run
once through the harness, and the sha256 of each file it writes is compared
with ``golden_histories.json``, in two tables.  ``histories`` holds every
``run_*.csv``: any change in what an optimizer draws, evaluates or ranks
shows up there as a changed digest, so refactors and performance work can
prove that results are unchanged.  ``grid_files`` holds every other file:
``manifest.json``, each cell's ``stats.csv`` and ``best.json``, and the
report's ``report.csv``, ``improvements.csv`` and ``report.txt``, so a
change to how statistics, reports or the manifest are written shows up too.
A failure names the table and each file whose digest differs.

The digests hold only for one Python and numpy version and one BLAS thread
count: floating point results may differ elsewhere, so both tests skip with
a message when the environment recorded in the JSON file differs from the
running one.  ``conftest.py`` pins BLAS to one thread, for every test and
for the recording below.

The JSON file is recorded from a known-good tree, never edited to make this
test pass.  After a deliberate change of behaviour, record it again with::

    PYTHONPATH=src python3 tests/test_golden_histories.py --record

which lists, for each table, the digests added, removed and changed against
the record it replaces, for review.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

from conftest import BLAS_THREAD_VARIABLES  # pins BLAS before numpy loads

import numpy as np
import pytest

from elitopt.harness import ExperimentPlan, run_experiment

GOLDEN = Path(__file__).resolve().parent / "golden_histories.json"

PLAN = dict(
    algorithms=("bbo", "kha", "teo"),
    problems=("michell", "truss37", "forth", "sphere"),
    memory_modes=(True, False),
    replicates=2,
    population_size=20,
    root_seed=7,
    budget=400,
)


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {k: os.environ.get(k, "unset") for k in BLAS_THREAD_VARIABLES},
    }


TABLES = ("histories", "grid_files")


def grid_digests(out_dir: Path) -> dict:
    """``{table: {"<path>": sha256}}`` of a grid run into ``out_dir``: its
    ``run_*.csv`` files under ``histories``, every other file under
    ``grid_files``, each by its path relative to ``out_dir``."""
    report = run_experiment(ExperimentPlan(**PLAN), out_dir)
    failed = [c.cell.label for c in report.cells if c.status != "ok"]
    if failed:
        raise RuntimeError(f"cells failed: {failed}")
    digests = {table: {} for table in TABLES}
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        table = "histories" if path.match("*/run_*.csv") else "grid_files"
        name = path.relative_to(out_dir).as_posix()
        digests[table][name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


@pytest.fixture(scope="module")
def golden_and_digests(tmp_path_factory):
    """The golden record and the digests of the grid run here, once for
    both tables; skips when the record was taken in another environment."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if golden["environment"] != environment():
        pytest.skip(
            f"the golden record was taken with {golden['environment']}, "
            f"this is {environment()}"
        )
    assert golden["plan"] == json.loads(json.dumps(PLAN))
    return golden, grid_digests(tmp_path_factory.mktemp("grid"))


def assert_table_matches(golden_and_digests, table: str) -> None:
    golden, digests = golden_and_digests
    changes = record_changes(golden[table], digests[table])
    differ = {kind: names for kind, names in changes.items() if names}
    assert not differ, f"table {table!r} differs from the golden record: {differ}"


def test_histories_match_golden(golden_and_digests):
    assert_table_matches(golden_and_digests, "histories")


def test_grid_files_match_golden(golden_and_digests):
    assert_table_matches(golden_and_digests, "grid_files")


def record_changes(old: dict, new: dict) -> dict:
    """The digest names ``new`` adds to ``old``, removes from it and
    changes, each sorted."""
    return {
        "added": sorted(new.keys() - old.keys()),
        "removed": sorted(old.keys() - new.keys()),
        "changed": sorted(k for k in old.keys() & new.keys() if old[k] != new[k]),
    }


def record() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        digests = grid_digests(Path(tmp))
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    doc = {"environment": environment(), "plan": PLAN, **digests}
    GOLDEN.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, digests.values()))} digests to {GOLDEN}")
    if old.get("environment", environment()) != environment():
        print(f"the replaced record was taken with {old['environment']}")
    for table in TABLES:
        for kind, names in record_changes(old.get(table, {}), digests[table]).items():
            print(f"{table} {kind}: {len(names)}")
            for name in names:
                print(f"  {name}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_golden_histories.py --record")
    record()
