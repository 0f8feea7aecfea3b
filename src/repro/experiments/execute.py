"""Deterministic fan-out execution of identity-keyed cells.

One function backs every experiment path that runs many independent cells —
:func:`repro.experiments.sweep.sweep` over a :class:`~.sweep.SweepGrid`, and
every report spec of :mod:`repro.report` — so the streaming, reuse and
byte-identity guarantees are implemented (and tested) exactly once:

* **what still needs running** is decided by the content-addressed ``store``
  (:class:`~repro.experiments.store.CellStore`) alone: a cell whose identity
  (the canonical JSON of its params) is stored is reused without execution,
  and every fresh outcome is ``put`` back the moment it completes;
* **how the pending cells run**: in this process when ``workers == 1`` or a
  single cell is pending, otherwise on one process pool.  Outcomes arrive in
  completion order and the returned
  :class:`~repro.experiments.results.ResultSet` is assembled in canonical
  cell order, so results are bit-identical for any worker count.  A worker
  that dies fails the run promptly, after every finished cell was recorded;
* ``jsonl_path`` streams each record to disk the moment its cell completes,
  and a live progress/ETA line renders on stderr (never canonical
  stdout/JSON).

Cells must expose ``params() -> dict`` (the JSON-friendly identity) and be
picklable; ``run_one`` must be a module-level function resolvable by worker
processes, returning the record dict (``cell`` identity plus payload plus
the non-deterministic ``wall_time_s``, which is stripped into
:attr:`ResultSet.timings`).
"""

from __future__ import annotations

import json
import sys
from functools import partial
from typing import Any, Callable, Dict, Iterator, Optional, Sequence, Tuple, Union

from .progress import ProgressReporter
from .results import ResultSet, ResultSetWriter
from .store import CellStore, open_store

__all__ = ["execute_cells"]

#: How many cumulative-time entries a per-cell profile prints to stderr.
PROFILE_TOP_N = 20


def _run_profiled(run_one: Callable[[Any], Dict[str, Any]],
                  cell: Any) -> Dict[str, Any]:
    """Run one cell under :mod:`cProfile`, printing its hottest entries.

    The report goes to stderr so canonical JSON on stdout (and any --output
    file) is untouched; the cell's outcome dict is returned unchanged, so
    profiling never perturbs the recorded results — only the wall times,
    which are non-deterministic telemetry anyway.
    """
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    outcome = profiler.runcall(run_one, cell)
    identity = json.dumps(cell.params(), sort_keys=True)
    print(f"profile: cell {identity}", file=sys.stderr)
    stats = pstats.Stats(profiler, stream=sys.stderr)
    stats.sort_stats("cumulative").print_stats(PROFILE_TOP_N)
    return outcome


def _run_pending(
    pending: Sequence[Tuple[int, Any]],
    run_one: Callable[[Any], Dict[str, Any]],
    workers: int,
) -> Iterator[Tuple[int, Dict[str, Any]]]:
    """Yield ``(position, outcome)`` for every pending cell as it completes."""
    if workers == 1 or len(pending) <= 1:
        for position, cell in pending:
            yield position, run_one(cell)
        return
    # Imported here: only a multi-worker run pays for the pool machinery.
    from concurrent.futures import ProcessPoolExecutor, as_completed
    from concurrent.futures.process import BrokenProcessPool

    pool = ProcessPoolExecutor(max_workers=min(workers, len(pending)))
    try:
        position_of = {pool.submit(run_one, cell): position
                       for position, cell in pending}
        finished = 0
        broken: Optional[BrokenProcessPool] = None
        for future in as_completed(position_of):
            try:
                outcome = future.result()
            except BrokenProcessPool as exc:
                # A dead worker fails every unfinished future at once; keep
                # draining, so cells that finished before it died are still
                # handed back (and so streamed / stored) before the run fails.
                broken = exc
                continue
            finished += 1
            yield position_of[future], outcome
        if broken is not None:
            raise RuntimeError(
                f"a worker process died mid-cell: {finished} of "
                f"{len(pending)} pending cells finished and were recorded "
                f"first; a re-run over the same --store executes only the "
                f"rest"
            ) from broken
    finally:
        # Also reached when a cell raises: drop the queued cells rather than
        # run them all for a result nobody will collect.
        pool.shutdown(cancel_futures=True)


def execute_cells(
    cells: Sequence[Any],
    run_one: Callable[[Any], Dict[str, Any]],
    base_seed: int,
    workers: int = 1,
    jsonl_path: Optional[str] = None,
    profile: bool = False,
    store: Union[str, CellStore, None] = None,
    progress: Optional[bool] = None,
) -> ResultSet:
    """Run ``run_one`` over every cell not already in ``store``.

    The returned :class:`~repro.experiments.results.ResultSet` is in
    canonical cell order and bit-identical for any ``workers`` value,
    provided each cell's outcome is a pure function of the cell itself
    (private per-cell seeds, no shared random state).

    ``store`` (a directory path or an open
    :class:`~repro.experiments.store.CellStore`) decides what is already
    done: cells whose content-addressed identity is stored skip execution,
    and fresh outcomes are put back as they complete, so a run that dies has
    every finished cell in the store and the same call again executes only
    the rest.  With a store, a one-line summary (``reused K cells from the
    store, executing M``) is printed to stderr; the counts are in
    :attr:`ResultSet.reuse` either way.  When every cell is stored, no worker
    process is started at all.

    ``jsonl_path`` is an output stream: always a fresh, complete file — the
    store hits first, then each fresh record the moment its cell completes.

    ``progress`` controls the live progress/ETA line on stderr (cells
    done/total, hit rate, rate, ETA); the default ``None`` enables it only
    when stderr is a terminal.  ``profile`` wraps each cell in
    :mod:`cProfile` and prints its top cumulative-time entries to **stderr**
    (canonical stdout/JSON output is never touched).  Profiling is
    serial-only: a profile interleaved across worker processes would
    attribute time to the wrong cells.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if profile and workers != 1:
        raise ValueError(
            "profile requires workers=1: per-cell profiles from concurrent "
            "worker processes would interleave and misattribute time"
        )
    opened_store = open_store(store)
    close_store = opened_store is not None and not isinstance(store, CellStore)
    outcomes: Dict[int, Tuple[Dict[str, Any], float]] = {}
    if opened_store is not None:
        for position, cell in enumerate(cells):
            hit = opened_store.get(cell.params())
            if hit is not None:
                outcomes[position] = hit
    store_hits = len(outcomes)
    pending = [(position, cell) for position, cell in enumerate(cells)
               if position not in outcomes]
    if opened_store is not None:
        print(f"reused {store_hits} cells from the store, "
              f"executing {len(pending)}", file=sys.stderr)
    writer: Optional[ResultSetWriter] = None
    if jsonl_path is not None:
        writer = ResultSetWriter(jsonl_path, base_seed=base_seed)
        for position in sorted(outcomes):
            record, wall = outcomes[position]
            writer.write(record, wall_time_s=wall)
    reporter = ProgressReporter(total=len(cells), reused=store_hits,
                                enabled=progress)
    try:
        wrapped = partial(_run_profiled, run_one) if profile else run_one
        for position, outcome in _run_pending(pending, wrapped, workers):
            outcome = dict(outcome)
            wall = outcome.pop("wall_time_s")
            if writer is not None:
                writer.write(outcome, wall_time_s=wall)
            if opened_store is not None:
                opened_store.put(outcome, wall_time_s=wall)
            outcomes[position] = (outcome, wall)
            reporter.update()
    finally:
        reporter.finish()
        if writer is not None:
            writer.close()
        if close_store and opened_store is not None:
            opened_store.close()
    result = ResultSet(base_seed=base_seed)
    for position in sorted(outcomes):
        record, wall = outcomes[position]
        result.append(record, wall)
    result.reuse = {
        "cells": len(cells),
        "store_hits": store_hits,
        "executed": len(pending),
    }
    return result
