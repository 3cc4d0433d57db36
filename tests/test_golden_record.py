"""The recorder of ``test_golden_histories.py`` lists what a new record
changes against the one it replaces."""

from test_golden_histories import record_changes


def test_record_changes_lists_added_removed_and_changed():
    old = {"a/run_000.csv": "1", "b/run_000.csv": "2", "c/run_000.csv": "3"}
    new = {"b/run_000.csv": "2", "c/run_000.csv": "4", "d/run_000.csv": "5"}
    assert record_changes(old, new) == {
        "added": ["d/run_000.csv"],
        "removed": ["a/run_000.csv"],
        "changed": ["c/run_000.csv"],
    }
    assert record_changes(new, new) == {"added": [], "removed": [], "changed": []}
