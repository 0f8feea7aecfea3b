"""Pluggable cell executors: how pending cells become outcomes.

:func:`repro.experiments.execute.execute_cells` is a thin dispatcher over
this registry — it decides *which* cells still need running (resume, store)
and assembles the canonical :class:`~repro.experiments.results.ResultSet`;
an **executor** only turns pending ``(position, cell)`` pairs into
``(position, outcome)`` pairs, in any completion order.  Because assembly,
streaming and store writes all happen in the dispatcher, every executor
produces byte-identical canonical results for the same cells.

Three executors register at import time (like schemes/topologies/policies):

* ``local`` — this process plus a ``multiprocessing`` pool, the historical
  behavior (serial when ``workers == 1`` or only one cell is pending);
* ``sharded`` — N independent worker processes, each owning a deterministic
  round-robin slice of the pending cells and streaming it to a private
  per-shard JSONL file (so a crashed shard leaves its finished cells
  recoverable), folded back through
  :meth:`~repro.experiments.results.ResultSet.load` /
  :meth:`~repro.experiments.results.ResultSet.merge`;
* ``work-queue`` — K workers lease cells from a shared on-disk queue;
  leases expire, so a crashed worker's cells are re-leased by the survivors
  and the run still completes.

Executor functions take ``(pending, run_one, base_seed, workers, options)``
and yield ``(position, outcome)``; ``options`` is the executor-specific
tuning dict (e.g. ``lease_expiry_s`` for ``work-queue``) — unknown keys are
rejected so a typo cannot silently run with defaults.  Like every registry
in this codebase, custom executors must register at module import time so
spawn-method workers can re-resolve names.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import sys
import tempfile
import time
from functools import partial
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

from ..registry import NameRegistry
from .results import ResultSet, ResultSetWriter, cell_identity_key

__all__ = [
    "DEFAULT_EXECUTOR",
    "ExecutorFn",
    "executor_names",
    "get_executor",
    "register_executor",
]

#: The executor used when none is named: the historical in-process pool.
DEFAULT_EXECUTOR = "local"

#: One pending unit of work: the cell's canonical grid position and the cell.
PendingCell = Tuple[int, Any]

#: ``run_one`` over one cell: returns the record dict incl. ``wall_time_s``.
RunOneFn = Callable[[Any], Dict[str, Any]]

#: An executor: pending cells in, ``(position, outcome)`` pairs out (any
#: completion order; the dispatcher restores canonical order on assembly).
ExecutorFn = Callable[
    [Sequence[PendingCell], RunOneFn, int, int, Dict[str, Any]],
    Iterator[Tuple[int, Dict[str, Any]]],
]

_EXECUTORS: NameRegistry[ExecutorFn] = NameRegistry("executor")


def register_executor(name: str, fn: ExecutorFn) -> None:
    """Register ``fn`` under ``name`` for ``execute_cells(executor=name)``.

    Must run at module import time (top level of an imported module):
    spawn-method worker processes re-import modules from scratch, so an
    executor registered inside a function or ``__main__`` block cannot be
    resolved from a worker.
    """
    _EXECUTORS.register(name, fn)


def get_executor(name: str) -> ExecutorFn:
    """Resolve ``name``, listing the registered executors when unknown."""
    return _EXECUTORS.get(name)


def executor_names() -> List[str]:
    """All registered executor names, sorted."""
    return _EXECUTORS.names()


def _reject_unknown_options(name: str, options: Dict[str, Any],
                            known: Sequence[str]) -> None:
    unknown = set(options) - set(known)
    if unknown:
        raise ValueError(
            f"unknown {name} executor options: {sorted(unknown)}; "
            f"known: {sorted(known)}"
        )


# --------------------------------------------------------------------------- #
# local: this process + a multiprocessing pool (the historical behavior)
# --------------------------------------------------------------------------- #
def _run_positioned(run_one: RunOneFn,
                    item: PendingCell) -> Tuple[int, Dict[str, Any]]:
    """Pool shim: keep the cell's grid position with its outcome, so the
    dispatcher can stream completion-ordered results and still assemble the
    canonical cell-index ordering."""
    position, cell = item
    return position, run_one(cell)


def _local_executor(pending: Sequence[PendingCell], run_one: RunOneFn,
                    base_seed: int, workers: int,
                    options: Dict[str, Any],
                    ) -> Iterator[Tuple[int, Dict[str, Any]]]:
    """Serial loop or ``multiprocessing.Pool`` fan-out in this process."""
    _reject_unknown_options("local", options, ())
    if workers == 1 or len(pending) <= 1:
        for position, cell in pending:
            yield position, run_one(cell)
        return
    with multiprocessing.Pool(processes=min(workers, len(pending))) as pool:
        # imap_unordered: outcomes reach the dispatcher (and therefore the
        # JSONL stream / store / progress line) the moment each cell
        # completes, not when its pool slot's turn comes up.
        yield from pool.imap_unordered(
            partial(_run_positioned, run_one), pending, chunksize=1)


# --------------------------------------------------------------------------- #
# sharded: N independent processes, each owning a deterministic slice
# --------------------------------------------------------------------------- #
def _run_shard(pending: List[PendingCell], run_one: RunOneFn,
               base_seed: int, jsonl_path: str) -> None:
    """Worker entry point: run this shard's cells serially, streaming each
    record to the shard's private JSONL file as it completes (a crashed
    shard leaves every finished cell recoverable)."""
    with ResultSetWriter(jsonl_path, base_seed=base_seed) as writer:
        for _position, cell in pending:
            outcome = dict(run_one(cell))
            wall = outcome.pop("wall_time_s", 0.0)
            writer.write(outcome, wall_time_s=wall)


def _sharded_executor(pending: Sequence[PendingCell], run_one: RunOneFn,
                      base_seed: int, workers: int,
                      options: Dict[str, Any],
                      ) -> Iterator[Tuple[int, Dict[str, Any]]]:
    """Deterministic round-robin slices, one independent process per slice.

    Shard ``i`` owns ``pending[i::num_shards]`` — a pure function of the
    pending list, so a re-run shards identically.  Each shard streams to its
    own ``shard-<i>.jsonl``; the parent folds the files back through
    :meth:`ResultSet.load` + :meth:`ResultSet.merge` (the same dedup/
    conflict semantics every other result path uses) and maps records to
    positions by cell identity.  A shard that exits non-zero fails the run,
    but only after every finished cell — its own included — was yielded.
    """
    _reject_unknown_options("sharded", options, ())
    num_shards = max(1, min(workers, len(pending)))
    tmpdir = tempfile.mkdtemp(prefix="repro-sharded-")
    try:
        slices = [list(pending[shard::num_shards])
                  for shard in range(num_shards)]
        paths = [os.path.join(tmpdir, f"shard-{shard}.jsonl")
                 for shard in range(num_shards)]
        procs = [
            multiprocessing.Process(
                target=_run_shard,
                args=(slices[shard], run_one, base_seed, paths[shard]),
            )
            for shard in range(num_shards)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join()
        failed = [shard for shard, proc in enumerate(procs)
                  if proc.exitcode != 0]
        # Fold every readable shard file back *before* reporting a failure:
        # the dispatcher streams/stores each yielded record, so one crashed
        # shard costs only the cells it never finished.
        loaded = []
        for shard, path in enumerate(paths):
            try:
                loaded.append(ResultSet.load(path))
            except (OSError, ValueError):
                # A shard that died before its first record leaves no
                # usable file; only a shard that exited cleanly owes one.
                if shard not in failed:
                    raise
        if loaded:
            position_of = {cell_identity_key(cell.params()): position
                           for position, cell in pending}
            merged = ResultSet.merge(loaded)
            for record, wall in zip(merged.cells, merged.timings,
                                    strict=True):
                outcome = dict(record)
                outcome["wall_time_s"] = wall
                yield position_of[cell_identity_key(record["cell"])], outcome
        if failed:
            raise RuntimeError(
                f"sharded executor: shard(s) {failed} exited non-zero; the "
                f"cells finished before the crash were handed back first, so "
                f"a re-run over the same store or resume file executes only "
                f"the rest"
            )
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


# --------------------------------------------------------------------------- #
# work-queue: workers lease cells from a shared on-disk queue
# --------------------------------------------------------------------------- #
#: Seconds after which an unreleased lease is considered abandoned (the
#: leasing worker crashed) and may be re-leased by a surviving worker.
WORK_QUEUE_LEASE_EXPIRY_S = 60.0

#: How often idle work-queue processes re-scan the queue directory.
WORK_QUEUE_POLL_S = 0.05

_WORK_QUEUE_OPTIONS = ("lease_expiry_s", "poll_s")


def _lease_is_expired(lease_path: str, lease_expiry_s: float) -> bool:
    try:
        with open(lease_path) as handle:
            claimed_s = float(json.loads(handle.read())["claimed_s"])
    except (OSError, ValueError, KeyError, json.JSONDecodeError):
        # A torn lease file (crash mid-claim) is unreadable forever; treat it
        # as expired so its cell is not stranded.
        return True
    # repro-lint: disable=RPL001 lease expiry is wall-clock coordination between worker processes; it never touches cell outcomes
    return time.time() - claimed_s > lease_expiry_s


def _claim_lease(lease_path: str, lease_expiry_s: float) -> bool:
    """Try to lease one cell: exclusive-create wins; an expired or torn lease
    is stolen via atomic replace.  Two stealers racing both 'win' and both
    run the cell — outcomes are deterministic and the done-file write is
    atomic, so the duplicate work is wasted effort, never corruption."""
    # repro-lint: disable=RPL001 lease timestamps coordinate workers; they never enter canonical output
    claim = json.dumps({"pid": os.getpid(), "claimed_s": time.time()})
    try:
        with open(lease_path, "x") as handle:
            handle.write(claim)
        return True
    except FileExistsError:
        pass
    if not _lease_is_expired(lease_path, lease_expiry_s):
        return False
    tmp = f"{lease_path}.steal.{os.getpid()}"
    with open(tmp, "w") as handle:
        handle.write(claim)
    os.replace(tmp, lease_path)
    return True


def _work_queue_worker(pending: List[PendingCell], run_one: RunOneFn,
                       queue_dir: str, lease_expiry_s: float,
                       poll_s: float) -> None:
    """Worker loop: lease → run → write done-file atomically → release.

    Exits when every pending position has a done file.  A worker that dies
    mid-cell leaves only its lease behind; once that expires, any surviving
    worker re-leases the cell, so the queue drains as long as one worker
    lives.
    """
    done_dir = os.path.join(queue_dir, "done")
    lease_dir = os.path.join(queue_dir, "leases")
    remaining = dict(pending)
    while remaining:
        claimed_any = False
        for position in sorted(remaining):
            done_path = os.path.join(done_dir, f"{position}.json")
            if os.path.exists(done_path):
                del remaining[position]
                continue
            lease_path = os.path.join(lease_dir, f"{position}.lease")
            if not _claim_lease(lease_path, lease_expiry_s):
                continue
            claimed_any = True
            outcome = run_one(remaining[position])
            tmp = f"{done_path}.tmp.{os.getpid()}"
            with open(tmp, "w") as handle:
                handle.write(json.dumps(outcome, sort_keys=True))
            os.replace(tmp, done_path)
            # A stealer that raced us on an expired lease may have finished
            # first and already released it; the done file is what matters.
            try:
                os.remove(lease_path)
            except FileNotFoundError:
                pass
            del remaining[position]
        if remaining and not claimed_any:
            # Everything left is leased by someone else: wait for their done
            # files (or their leases' expiry) instead of spinning.
            time.sleep(poll_s)


def _work_queue_executor(pending: Sequence[PendingCell], run_one: RunOneFn,
                         base_seed: int, workers: int,
                         options: Dict[str, Any],
                         ) -> Iterator[Tuple[int, Dict[str, Any]]]:
    """K worker processes draining a shared on-disk lease queue.

    The parent polls the queue's ``done/`` directory and yields outcomes as
    their files appear (atomically renamed into place), so streaming, store
    writes and the progress line stay live.  If every worker dies with cells
    still pending, the run fails loudly; the queue directory is temporary,
    but completed cells were already yielded (and typically streamed /
    stored) by then.
    """
    _reject_unknown_options("work-queue", options, _WORK_QUEUE_OPTIONS)
    lease_expiry_s = float(options.get("lease_expiry_s",
                                       WORK_QUEUE_LEASE_EXPIRY_S))
    poll_s = float(options.get("poll_s", WORK_QUEUE_POLL_S))
    queue_dir = tempfile.mkdtemp(prefix="repro-workqueue-")
    done_dir = os.path.join(queue_dir, "done")
    os.makedirs(done_dir)
    os.makedirs(os.path.join(queue_dir, "leases"))
    num_workers = max(1, min(workers, len(pending)))
    procs = [
        multiprocessing.Process(
            target=_work_queue_worker,
            args=(list(pending), run_one, queue_dir, lease_expiry_s, poll_s),
        )
        for _ in range(num_workers)
    ]
    try:
        for proc in procs:
            proc.start()
        yielded: Dict[int, bool] = {}
        total = len(pending)
        while len(yielded) < total:
            advanced = False
            for name in sorted(os.listdir(done_dir)):
                if not name.endswith(".json"):
                    continue
                position = int(name[:-len(".json")])
                if position in yielded:
                    continue
                with open(os.path.join(done_dir, name)) as handle:
                    outcome = json.load(handle)
                yielded[position] = True
                advanced = True
                yield position, outcome
            if len(yielded) >= total or advanced:
                continue
            if not any(proc.is_alive() for proc in procs):
                missing = sorted(position for position, _cell in pending
                                 if position not in yielded)
                raise RuntimeError(
                    f"work-queue executor: every worker exited but "
                    f"{len(missing)} cell(s) never completed "
                    f"(positions {missing[:10]}{'...' if len(missing) > 10 else ''})"
                )
            time.sleep(poll_s)
        crashed = sum(1 for proc in procs
                      if proc.exitcode not in (None, 0))
        if crashed:
            # The run completed despite losing workers — that is the
            # crash-tolerance contract working, but it should not be silent.
            print(f"work-queue executor: {crashed} worker(s) crashed; "
                  f"their leases expired and the queue still drained",
                  file=sys.stderr)
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join()
        shutil.rmtree(queue_dir, ignore_errors=True)


register_executor("local", _local_executor)
register_executor("sharded", _sharded_executor)
register_executor("work-queue", _work_queue_executor)
