"""Checks of the benchmark itself.  Run with ``pytest bench/``; not tier-1."""

from __future__ import annotations

import itertools
import json
import os
import re
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_DIR = os.path.dirname(BENCH_DIR)
sys.path[:0] = [BENCH_DIR, os.path.join(REPO_DIR, "src")]

from repro.experiments.execute import execute_cells  # noqa: E402

import compare  # noqa: E402
import layers  # noqa: E402
import measure  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _declared():
    with open(os.path.join(REPO_DIR, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(*args):
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), *args],
        capture_output=True, text=True, timeout=300)
    return done, time.perf_counter() - start


def test_layer_map_covers_every_program_file():
    unmapped = []
    for package in ("netsim", "core", "cc", "experiments", "report",
                    "analysis"):
        root = os.path.join(REPO_DIR, "src", "repro", package)
        for folder, _, files in os.walk(root):
            for name in files:
                path = os.path.join(folder, name)
                if name.endswith(".py") and layers.layer_of_file(path) is None:
                    unmapped.append(path)
    assert unmapped == []
    assert {layer for layer, _ in layers.LAYER_GLOBS} | {"heapq", "other"} \
        == set(layers.LAYERS)


def test_declared_names_are_legal_and_match_what_run_prints():
    declared = _declared()
    sections = ("workloads", "end_to_end", "per_layer")
    for section in sections:
        names = [entry["name"] for entry in declared[section]]
        assert len(names) == len(set(names))
        assert all(NAME.fullmatch(name) for name in names), section
    assert [w["name"] for w in declared["workloads"]] \
        == [w.name for w in workloads.WORKLOADS]
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        done, _ = _run("--workload", "flow_churn", "--seed", "5", "--smoke",
                       "--trace", trace)
        assert done.returncode == 0, done.stderr
        line = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0
        want = {entry["name"]: entry["unit"] for entry in declared[section]}
        got = {name: m["unit"] for name, m in line["metrics"].items()}
        assert got == want
        assert all(isinstance(m["value"], (int, float))
                   for m in line["metrics"].values())


def test_digests_repeat_within_a_seed_and_change_with_it():
    digests = {}
    for seed in (11, 12):
        parts = workloads.get_workload("pcc_lossy").parts(seed, True)
        first = measure.run_pass(parts)
        again = measure.run_pass(parts)
        assert not first.failed and not again.failed
        assert first.digests == again.digests
        digests[seed] = first.digests
    assert digests[11] != digests[12]


class _Cell:
    def __init__(self, index):
        self.index = index

    def params(self):
        return {"index": self.index, "scenario": "injected"}


_counter = itertools.count()


def _nondeterministic_run_one(cell):
    return {"cell": cell.params(), "metrics": {"value": next(_counter)},
            "wall_time_s": 0.0}


def test_nondeterministic_run_one_raises_fail_share():
    cells = [_Cell(0), _Cell(1)]
    part = workloads.Part(
        "injected", len(cells),
        lambda jsonl_path, store_dir: execute_cells(
            cells, _nondeterministic_run_one, 0, jsonl_path=jsonl_path,
            store=store_dir, progress=False))
    passes, failed = measure.repeat_passes([part], seconds=0.0)
    assert len(passes) == 2
    assert set(failed) == {("injected", 0), ("injected", 1)}
    assert "differs between repeats" in failed[("injected", 0)]


def test_a_part_that_raises_fails_all_its_cells():
    def boom(jsonl_path, store_dir):
        raise RuntimeError("injected")
    done = measure.run_pass([workloads.Part("boom", 3, boom)])
    assert set(done.failed) == {("boom", 0), ("boom", 1), ("boom", 2)}


def test_invariants_reject_impossible_records():
    cell = {"index": 0, "bandwidth_bps": 100e6, "duration": 1.0}
    ok = {"cell": cell, "flows": [{"goodput_mbps": 90.0, "loss_rate": 0.01}]}
    assert measure.invariant_error(ok) is None
    for row in ({"goodput_mbps": 101.0, "loss_rate": 0.0},
                {"goodput_mbps": 50.0, "loss_rate": 1.5},
                {"goodput_mbps": 0.0, "loss_rate": 0.0},
                {"goodput_mbps": float("nan"), "loss_rate": 0.0}):
        assert measure.invariant_error({"cell": cell, "flows": [row]})


def test_compare_verdicts():
    quiet = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert compare.verdict(quiet, quiet, 0.1, "lower", False) == "unchanged"
    assert compare.verdict(quiet, [1.3, 1.31, 1.29, 1.3, 1.32], 0.1,
                           "lower", False) == "regressed"
    assert compare.verdict(quiet, [0.8, 0.81, 0.79, 0.8, 0.82], 0.1,
                           "lower", False) == "improved"
    assert compare.verdict(quiet, [0.8, 0.81, 0.79, 0.8, 0.82], 0.1,
                           "higher", False) == "regressed"
    assert compare.verdict(quiet, [0.95, 0.96, 0.94, 0.95, 0.97], 0.1,
                           "lower", False) == "unchanged"
    assert compare.verdict(quiet, [0.95, 0.96, 0.94, 0.95, 0.97], 0.1,
                           "lower", True) == "improved"
    assert compare.verdict([37.9], [37.8], 0.05, "lower", False) == "unchanged"
    wide = [0.7, 1.0, 1.3, 0.8, 1.2]
    assert compare.verdict(wide, [0.75, 0.95, 1.35, 0.75, 1.25], 0.1,
                           "lower", True) == "unresolved"


def test_smoke_runs_all_four_workloads_quickly_and_writes_nothing():
    results = os.path.join(BENCH_DIR, "results")
    before = sorted(os.listdir(results)) if os.path.isdir(results) else None
    done, elapsed = _run("--smoke", "--seed", "3")
    assert done.returncode == 0, done.stderr
    assert elapsed < 20.0
    for workload in workloads.WORKLOADS:
        assert f"== {workload.name} " in done.stdout
    after = sorted(os.listdir(results)) if os.path.isdir(results) else None
    assert before == after
    assert "wrote" not in done.stdout
