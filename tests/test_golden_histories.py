"""Golden-history lock: seeded runs must reproduce their history files.

A reduced grid (bbo, kha and teo on michell, truss37, forth and sphere, with
and without the elite memory, two replicates each, a small budget) is run
through the harness and the sha256 of every ``run_*.csv`` it writes is
compared with ``golden_histories.json``.  Any change in what an optimizer
draws, evaluates or ranks shows up as a changed digest, so refactors and
performance work can prove that results are unchanged.

The digests hold only for one Python and numpy version and one BLAS thread
count: floating point results may differ elsewhere, so the test skips with a
message when the environment recorded in the JSON file differs from the
running one.  ``conftest.py`` pins BLAS to one thread, for every test and
for the recording below.

The JSON file is recorded from a known-good tree, never edited to make this
test pass.  After a deliberate change of behaviour, record it again with::

    PYTHONPATH=src python3 tests/test_golden_histories.py --record

which lists the digests added, removed and changed against the record it
replaces, for review.
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


def history_digests(out_dir: Path) -> dict:
    """``{"<cell>/run_NNN.csv": sha256}`` of a grid run into ``out_dir``."""
    report = run_experiment(ExperimentPlan(**PLAN), out_dir)
    failed = [c.cell.label for c in report.cells if c.status != "ok"]
    if failed:
        raise RuntimeError(f"cells failed: {failed}")
    return {
        path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.glob("*/run_*.csv"))
    }


def test_histories_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    if golden["environment"] != environment():
        pytest.skip(
            f"golden histories were recorded with {golden['environment']}, "
            f"this is {environment()}"
        )
    assert golden["plan"] == json.loads(json.dumps(PLAN))
    digests = history_digests(tmp_path)
    assert sorted(digests) == sorted(golden["histories"])
    changed = [name for name, d in digests.items() if golden["histories"][name] != d]
    assert not changed, f"history files differ from the golden record: {changed}"


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
        digests = history_digests(Path(tmp))
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    doc = {"environment": environment(), "plan": PLAN, "histories": digests}
    GOLDEN.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}")
    if old.get("environment", environment()) != environment():
        print(f"the replaced record was taken with {old['environment']}")
    for kind, names in record_changes(old.get("histories", {}), digests).items():
        print(f"{kind}: {len(names)}")
        for name in names:
            print(f"  {name}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_golden_histories.py --record")
    record()
