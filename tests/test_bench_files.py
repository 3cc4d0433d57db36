"""Every ``BENCH_*.json`` at the root of the repository keeps the same
layout, so that the before-and-after numbers of one change stay comparable
with those of another."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
KEYS = {"what", "command", "protocol", "host", "parent_commit", "summary", "pairs"}


def test_bench_files_exist():
    assert BENCH_FILES


@pytest.mark.parametrize("path", BENCH_FILES, ids=[p.name for p in BENCH_FILES])
def test_bench_file_layout(path):
    record = json.loads(path.read_text())
    assert isinstance(record, dict)
    assert set(record) == KEYS
    assert isinstance(record["summary"], dict) and record["summary"]
    assert isinstance(record["pairs"], list) and record["pairs"]
