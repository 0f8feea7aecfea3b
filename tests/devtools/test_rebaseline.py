"""``python -m repro.devtools.rebaseline``: every behaviour golden regenerates
from its producer, every golden has one, and the diff reports each moved value
once under its key path."""

import json
import os

import pytest

from repro.devtools.rebaseline import (
    ABSENT,
    CAPPED,
    CHEAP,
    GOLDENS,
    ROOT,
    Moved,
    capped_rows,
    diff,
    format_moved,
    rows_file,
    simulated_spec_ids,
)

_DATA = "tests/experiments/data/"

#: Each cheap golden whole, but the capped rows one spec at a time, so a
#: moved row fails under its spec's name.
_CHEAP_CASES = [pytest.param(path, None, id=path) for path in CHEAP if path != CAPPED] + [
    pytest.param(CAPPED, spec_id, id=f"{CAPPED}:{spec_id}") for spec_id in simulated_spec_ids()]


@pytest.mark.parametrize("path, spec_id", _CHEAP_CASES)
def test_golden_regenerates_from_its_producer(path, spec_id):
    """Refactors change structure, not trajectories: each cheap golden's
    producer writes its committed bytes exactly, at two workers."""
    committed = (ROOT / path).read_text()
    if spec_id is None:
        regenerated = GOLDENS[path](None, 2)
    else:
        committed = rows_file({spec_id: json.loads(committed)[spec_id]})
        regenerated = rows_file({spec_id: capped_rows(spec_id, None, 2)})
    assert regenerated == committed, format_moved(diff(path, committed, regenerated), 1)


def test_capped_golden_covers_every_simulated_spec_in_its_layout():
    committed = (ROOT / CAPPED).read_text()
    assert list(json.loads(committed)) == simulated_spec_ids()
    assert rows_file(json.loads(committed)) == committed


def test_every_golden_has_a_producer_and_none_is_an_identity():
    identity = {_DATA + "golden_identities.json", _DATA + "golden_store_keys.json"}
    assert {_DATA + name for name in os.listdir(ROOT / _DATA)} \
        == {path for path in GOLDENS if path.startswith(_DATA)} | identity
    assert not identity & set(GOLDENS)


@pytest.mark.parametrize("path, old, new, moved", [
    ("a.json", {"f": [{"x": 1.5}]}, {"f": [{"x": 1.5}]}, []),
    ("a.json", {"f": [{"l": 0, "x": 2.0}, {"l": 1, "x": 1.5}]},
     {"f": [{"l": 0, "x": 2.0}, {"l": 1, "x": 1.2}]}, [("f[1].x", 1.5, 1.2)]),
    ("a.json", {"a": {"b": 1}}, {"a": {"b": 1, "c": {"d": 2}}}, [("a.c", ABSENT, {"d": 2})]),
    ("a.json", {"a": 1, "b": [1, 2]}, {"a": 1}, [("b", [1, 2], ABSENT)]),
    ("a.json", {"f": [{"x": 1}]}, {"f": [{"x": 1}, {"x": 2}]}, [("f[1]", ABSENT, {"x": 2})]),
    ("a.json", [1, 2, 3, 4], [1, 2], [("[2]", 3, ABSENT), ("[3]", 4, ABSENT)]),
    ("a.json", {"a": 1}, {"a": 1.0}, [("a", 1, 1.0)]),
    ("R.md", "x\ny\n", "x\ny\n", []),
    ("R.md", "# R\n| pcc | 1.50 |\n| cubic | 0.20 |\n", "# R\n| pcc | 1.20 |\n| cubic | 0.20 |\n",
     [("line 2", "| pcc | 1.50 |", "| pcc | 1.20 |")]),
    ("R.md", "a\nb\nc\n", "a\nnew\nb\nc\n", [("line 2", ABSENT, "new")]),
])
def test_diff_reports_each_moved_value_once(path, old, new, moved):
    dump = json.dumps if path.endswith(".json") else str
    assert diff(path, dump(old), dump(new)) == [Moved(path, *row) for row in moved]


def test_a_difference_in_layout_alone_is_still_a_row():
    assert [row.key for row in diff("a.json", '{"a": 1}', '{"a":1}')] == ["(layout)"]
    assert [row.key for row in diff("a.md", "x\n", "x")] == ["(layout)"]


def test_table_ends_in_one_summary_line():
    rows = [Moved("d/a.json", "f[1].x", 1.5, 1.2), Moved("d/a.json", "f[2]", ABSENT, {"x": 2})]
    assert format_moved(rows, 8).splitlines()[1:] == [
        "a.json\tf[1].x\t1.5\t1.2\t-20.00%", 'a.json\tf[2]\t(absent)\t{"x": 2}\t',
        "rebaseline: 2 values moved in 1 of 8 behaviour goldens"]
    assert format_moved([], 8) == "rebaseline: 0 values moved in 0 of 8 behaviour goldens"

