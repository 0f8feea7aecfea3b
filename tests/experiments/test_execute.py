"""Tests for ``execute_cells``: dispatch, the one pool, and store reuse.

The load-bearing property is the equivalence guarantee: for the same cells
and base seed, any worker count produces byte-identical canonical result
JSON.  Alongside it: a dead worker failing the run promptly with every
finished cell already stored, the zero-pending fast path (no worker process
started at all), cross-run store reuse, and the stderr-only telemetry (reuse
summary and progress line) never touching canonical output.
"""

import io
import json
import os
import subprocess
import sys

import pytest

from repro.experiments.execute import execute_cells
from repro.experiments.progress import ProgressReporter, _format_eta
from repro.experiments.results import ResultSet
from repro.experiments.store import CellStore
from repro.experiments.sweep import SweepGrid
from repro.experiments.sweep import main as sweep_main
from repro.experiments.sweep import sweep
from repro.report.cli import main as report_main
from repro.report.run import run_report_spec


class FakeCell:
    """A picklable cell whose outcome is a pure function of its identity."""

    def __init__(self, index, seed):
        self.index = index
        self.seed = seed

    def params(self):
        return {"index": self.index, "kind": "fake", "seed": self.seed}


def run_fake(cell):
    """Module-level run_one (resolvable from worker processes)."""
    return {"cell": cell.params(), "value": cell.index * 10 + cell.seed,
            "wall_time_s": 0.0}


class CrashOnceCell(FakeCell):
    """A cell whose first-ever execution kills the whole worker process.

    The crash is gated by an exclusive-create marker file outside the cell's
    identity, so exactly one attempt dies and every retry succeeds — the
    shape of an OOM-killed worker.
    """

    def __init__(self, index, seed, marker_dir, crash=False):
        super().__init__(index, seed)
        self.marker_dir = marker_dir
        self.crash = crash


def run_crash_once(cell):
    if getattr(cell, "crash", False):
        marker = os.path.join(cell.marker_dir, f"crashed-{cell.index}")
        try:
            with open(marker, "x"):
                pass
            os._exit(17)  # die like a killed worker: no exception, no cleanup
        except FileExistsError:
            pass  # already crashed once; this retry completes normally
    return run_fake(cell)


def fake_cells(count, seed=7):
    return [FakeCell(index, seed) for index in range(count)]


#: The crashing run, driven in a child interpreter so that a regression to
#: the old behaviour (the pool waits forever for the lost cell) fails the test
#: on its timeout instead of wedging the suite.
_CRASH_SCRIPT = """
import sys
from test_execute import CrashOnceCell, run_crash_once
from repro.experiments.execute import execute_cells
marker_dir, store_dir = sys.argv[1:]
cells = [CrashOnceCell(index, 7, marker_dir, crash=(index == 3))
         for index in range(6)]
execute_cells(cells, run_crash_once, 7, workers=2, store=store_dir)
"""


class TestWorkerCounts:
    def test_byte_identical_on_fake_cells(self):
        """The core guarantee: canonical JSON is a pure function of the
        cells, not of how they were fanned out."""
        baseline = execute_cells(fake_cells(7), run_fake, base_seed=7)
        for workers in (2, 3):
            result = execute_cells(fake_cells(7), run_fake, base_seed=7,
                                   workers=workers)
            assert result.to_json() == baseline.to_json(), workers

    def test_byte_identical_on_a_real_grid(self):
        """Same guarantee over real simulation cells (the acceptance bar)."""
        grid = SweepGrid(schemes=("cubic",), bandwidths_bps=(5e6,),
                         rtts=(0.03,), loss_rates=(0.0, 0.01), duration=1.0)
        assert sweep(grid, base_seed=1, workers=2).to_json() == \
            sweep(grid, base_seed=1, workers=1).to_json()

    def test_streamed_jsonl_reaches_full_set(self, tmp_path):
        for workers in (1, 2):
            jsonl = tmp_path / f"w{workers}.jsonl"
            execute_cells(fake_cells(5), run_fake, base_seed=7,
                          workers=workers, jsonl_path=str(jsonl))
            assert len(ResultSet.load(str(jsonl))) == 5


class TestWorkerCrash:
    def test_dead_worker_fails_fast_and_store_resumes(self, tmp_path):
        """A worker dying mid-cell fails the run promptly — after every
        finished cell reached the store, so the re-run executes only the
        cells nobody finished and ends byte-identical."""
        store_dir = str(tmp_path / "store")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        proc = subprocess.run(
            [sys.executable, "-c", _CRASH_SCRIPT, str(tmp_path), store_dir],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode != 0
        assert "RuntimeError: a worker process died" in proc.stderr
        cells = [CrashOnceCell(index, 7, str(tmp_path), crash=(index == 3))
                 for index in range(6)]
        with CellStore(store_dir) as store:
            stored = sum(store.contains(cell.params()) for cell in cells)
            assert not store.contains(cells[3].params())
        assert 0 < stored < 6
        rerun = execute_cells(cells, run_crash_once, base_seed=7, workers=2,
                              store=store_dir)
        assert rerun.reuse == {"cells": 6, "store_hits": stored,
                               "executed": 6 - stored}
        assert rerun.to_json() == execute_cells(
            fake_cells(6), run_fake, base_seed=7).to_json()


def _boom_pool(*args, **kwargs):
    raise AssertionError("no worker process may start with zero pending "
                         "cells")


class TestReuseLayers:
    def test_zero_pending_skips_the_executor_entirely(self, tmp_path,
                                                      monkeypatch):
        """When the store satisfies every cell, no worker process may start:
        proven by running with a pool that explodes when created."""
        store_dir = str(tmp_path / "store")
        cells = fake_cells(4)
        execute_cells(cells, run_fake, base_seed=7, store=store_dir)
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                            _boom_pool)
        result = execute_cells(cells, run_fake, base_seed=7, workers=2,
                               store=store_dir)
        assert len(result) == 4
        assert result.reuse["executed"] == 0

    def test_store_round_trip_executes_zero_cells(self, tmp_path, capsys):
        store_dir = str(tmp_path / "store")
        cells = fake_cells(5)
        first = execute_cells(cells, run_fake, base_seed=7, store=store_dir)
        assert first.reuse == {"cells": 5, "store_hits": 0, "executed": 5}
        second = execute_cells(cells, run_fake, base_seed=7, store=store_dir)
        assert second.reuse == {"cells": 5, "store_hits": 5, "executed": 0}
        assert second.to_json() == first.to_json()
        assert "reused 5 cells from the store, executing 0" \
            in capsys.readouterr().err

    def test_store_reuse_crosses_cell_subsets(self, tmp_path):
        """The store is content-addressed, not run-shaped: a different later
        run reuses exactly the cells it shares with any earlier one."""
        store_dir = str(tmp_path / "store")
        execute_cells(fake_cells(3), run_fake, base_seed=7, store=store_dir)
        result = execute_cells(fake_cells(6), run_fake, base_seed=7,
                               store=store_dir)
        assert result.reuse == {"cells": 6, "store_hits": 3, "executed": 3}

    def test_open_cellstore_instance_is_not_closed(self, tmp_path):
        store = CellStore(str(tmp_path / "store"))
        execute_cells(fake_cells(2), run_fake, base_seed=7, store=store)
        # Still usable: execute_cells only closes stores it opened itself.
        assert store.put({"cell": {"index": 99, "kind": "fake", "seed": 7},
                          "value": 0})
        store.close()

    def test_fresh_jsonl_carries_reused_records(self, tmp_path):
        """A fresh stream file must be complete on its own even when some
        cells came from the store."""
        store_dir = str(tmp_path / "store")
        cells = fake_cells(4)
        execute_cells(cells[:2], run_fake, base_seed=7, store=store_dir)
        jsonl = tmp_path / "fresh.jsonl"
        execute_cells(cells, run_fake, base_seed=7, store=store_dir,
                      jsonl_path=str(jsonl))
        assert len(ResultSet.load(str(jsonl))) == 4

    def test_no_reuse_layers_no_stderr_summary(self, capsys):
        execute_cells(fake_cells(2), run_fake, base_seed=7)
        assert "reused" not in capsys.readouterr().err


class TestProfileFlag:
    def test_execute_cells_profile_requires_serial(self):
        with pytest.raises(ValueError, match="profile requires workers=1"):
            execute_cells([], lambda cell: {}, base_seed=0, workers=2,
                          profile=True)

    def test_sweep_cli_profile_requires_serial(self, capsys):
        with pytest.raises(SystemExit):
            sweep_main(["--schemes", "cubic", "--duration", "1",
                        "--profile", "--workers", "2"])
        assert "--workers 1" in capsys.readouterr().err

    def test_report_cli_profile_requires_serial(self, capsys):
        with pytest.raises(SystemExit):
            report_main(["--only", "theorems", "--report", "/dev/null",
                         "--profile", "--workers", "2"])
        assert "--workers 1" in capsys.readouterr().err

    def test_profile_prints_stats_to_stderr_not_stdout(self, tmp_path,
                                                       capsys):
        """The canonical JSON is byte-identical with and without --profile;
        the cProfile tables go to stderr only."""
        args = ["--schemes", "cubic", "--bandwidth-mbps", "5",
                "--duration", "1"]
        plain, profiled = tmp_path / "plain.json", tmp_path / "profiled.json"
        assert sweep_main([*args, "--output", str(plain)]) == 0
        captured = capsys.readouterr()
        assert "cumulative" not in captured.err
        assert sweep_main([*args, "--output", str(profiled),
                           "--profile"]) == 0
        captured = capsys.readouterr()
        assert "profile: cell" in captured.err
        assert "cumulative" in captured.err
        assert "profile: cell" not in captured.out
        assert plain.read_bytes() == profiled.read_bytes()


class TestCli:
    BASE = ["--schemes", "cubic", "--bandwidth-mbps", "5",
            "--loss", "0.0", "--duration", "1", "--seed", "1"]

    def test_sweep_store_flag_second_run_executes_zero(self, tmp_path,
                                                       capsys):
        store_dir = str(tmp_path / "store")
        first_out = tmp_path / "first.json"
        second_out = tmp_path / "second.json"
        assert sweep_main([*self.BASE, "--store", store_dir,
                           "--output", str(first_out)]) == 0
        capsys.readouterr()
        assert sweep_main([*self.BASE, "--store", store_dir,
                           "--output", str(second_out)]) == 0
        assert "executing 0" in capsys.readouterr().err
        assert second_out.read_bytes() == first_out.read_bytes()

    def test_sweep_progress_flag_forces_line_on_stderr(self, tmp_path,
                                                       capsys):
        out = tmp_path / "sweep.json"
        assert sweep_main([*self.BASE, "--progress",
                           "--output", str(out)]) == 0
        captured = capsys.readouterr()
        assert "cells 1/1" in captured.err
        assert "cells 1/1" not in captured.out
        # Canonical output is untouched by telemetry.
        assert json.loads(out.read_text())["base_seed"] == 1

    @pytest.mark.parametrize("flag", ["--executor", "--resume-from"])
    def test_removed_flags_are_unknown_arguments(self, flag, capsys):
        for main in (sweep_main, report_main):
            with pytest.raises(SystemExit):
                main([flag, "x"])
            assert "unrecognized arguments" in capsys.readouterr().err


class TestReportIntegration:
    def test_report_spec_store_round_trip(self, tmp_path, capsys):
        """A report spec re-run over a warm store executes zero cells and
        renders identically (the cheap analytic spec keeps this fast)."""
        store_dir = str(tmp_path / "store")
        first = run_report_spec("theorems", store=store_dir)
        assert first.result.reuse["executed"] == 4
        capsys.readouterr()
        second = run_report_spec("theorems", store=store_dir)
        assert second.result.reuse == {"cells": 4, "store_hits": 4,
                                       "executed": 0}
        assert "executing 0" in capsys.readouterr().err
        assert second.result.to_json() == first.result.to_json()
        assert [c.status for c in second.claims] == \
            [c.status for c in first.claims]


class TestProgressReporter:
    def test_format_eta(self):
        assert _format_eta(0) == "0:00"
        assert _format_eta(65) == "1:05"
        assert _format_eta(3725) == "1:02:05"

    def test_line_shows_counts_hits_rate_and_eta(self):
        stream = io.StringIO()
        reporter = ProgressReporter(total=10, reused=4, stream=stream,
                                    enabled=True)
        line = reporter.line(reporter._started_s)
        assert line.startswith("cells 4/10 ( 40%)")
        assert "reused 4 (40% hit)" in line
        assert "ETA" not in line  # nothing executed yet -> no rate estimate
        reporter.done = 7
        line = reporter.line(reporter._started_s + 6.0)
        assert "cells 7/10" in line
        assert "0.5 cells/s" in line
        assert "ETA 0:06" in line

    def test_line_complete_run_has_no_eta(self):
        reporter = ProgressReporter(total=4, reused=0,
                                    stream=io.StringIO(), enabled=True)
        reporter.done = 4
        line = reporter.line(reporter._started_s + 2.0)
        assert "cells 4/4 (100%)" in line
        assert "ETA" not in line

    def test_zero_total_renders_without_dividing(self):
        reporter = ProgressReporter(total=0, stream=io.StringIO(),
                                    enabled=True)
        assert "cells 0/0 (100%)" in reporter.line(reporter._started_s)

    def test_disabled_writes_nothing(self):
        stream = io.StringIO()
        reporter = ProgressReporter(total=3, stream=stream, enabled=False)
        reporter.update()
        reporter.finish()
        assert stream.getvalue() == ""

    def test_non_tty_stream_disabled_by_default(self):
        reporter = ProgressReporter(total=3, stream=io.StringIO())
        assert reporter.enabled is False

    def test_enabled_renders_in_place_and_finishes_with_newline(self):
        stream = io.StringIO()
        reporter = ProgressReporter(total=2, stream=stream, enabled=True)
        reporter.update()
        reporter.finish()
        value = stream.getvalue()
        assert value.startswith("\r\x1b[K")
        assert "cells" in value
        assert value.endswith("\n")
