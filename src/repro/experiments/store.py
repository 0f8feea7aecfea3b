"""Content-addressed, cross-run cell result store.

This module makes the identity→result contract durable across every sweep,
benchmark and report run.  A :class:`CellStore` is a directory of
**append-only JSONL segments** plus an index snapshot:

* the store key of a record is a stable hash
  (:data:`STORE_KEY_ALGORITHM`: SHA-256 of the canonical sorted-key identity
  JSON from :func:`~repro.experiments.results.cell_identity_key`), so two
  processes — or two machines — that enumerate the same cell derive the same
  key without coordination;
* every writer process appends to **its own** segment file
  (``segments/seg-<pid>.jsonl``), so concurrent writers from different
  processes never interleave bytes, let alone corrupt each other;
* loading is corruption-tolerant in the spirit of
  :meth:`~repro.experiments.results.ResultSet.load`'s truncated-tail repair:
  a crash mid-append leaves a partial final line in one segment, which is
  dropped on scan and truncated away before the segment is appended to again;
* ``index.json`` is a pure accelerator — the segments are the truth — written
  atomically (write-temp + ``os.replace``) by :meth:`CellStore.close` /
  :meth:`CellStore.gc`; a stale or missing index just means a fuller rescan.

The store is consulted by
:func:`repro.experiments.execute.execute_cells(..., store=...)
<repro.experiments.execute.execute_cells>` before any cell executes: store
hits skip execution, and fresh outcomes are ``put`` back, so any later run —
a different grid, a report spec, a benchmark — transparently reuses every
cell ever computed.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, IO, Iterator, List, Optional, Tuple, Union

from .results import cell_identity_key, write_atomic

__all__ = [
    "STORE_FORMAT",
    "STORE_INDEX_FORMAT",
    "STORE_KEY_ALGORITHM",
    "CellStore",
    "open_store",
    "store_key",
]

#: Format tag in a store directory's ``meta.json``.
STORE_FORMAT = "repro.cellstore/v1"

#: Format tag of the ``index.json`` accelerator snapshot.
STORE_INDEX_FORMAT = "repro.cellstore-index/v1"

#: How store keys are derived; recorded in ``meta.json`` so a future
#: algorithm change is a new store version, never a silent re-keying.
STORE_KEY_ALGORITHM = "sha256/cell-identity-json/v1"

_SEGMENT_DIR = "segments"
_META_NAME = "meta.json"
_INDEX_NAME = "index.json"


def store_key(cell_params: Dict[str, Any]) -> str:
    """The content-addressed key of a cell identity: 64 lowercase hex chars.

    SHA-256 over the canonical sorted-key identity JSON
    (:func:`~repro.experiments.results.cell_identity_key`), so the key is a
    pure function of the identity — stable across processes, platforms and
    Python versions, and pinned by a golden fixture in the test suite.
    """
    identity = cell_identity_key(cell_params)
    return hashlib.sha256(identity.encode("utf-8")).hexdigest()


def _truncate_partial_tail(path: str) -> None:
    """Cut a segment back to its last newline (crash-mid-append repair).

    Every record is written as one newline-terminated line, so a segment not
    ending in ``\\n`` carries exactly one partial record; truncating it keeps
    the next append from concatenating onto the partial line (which would
    corrupt *two* records instead of losing none).
    """
    size = os.path.getsize(path)
    if size == 0:
        return
    with open(path, "rb+") as handle:
        handle.seek(size - 1)
        if handle.read(1) == b"\n":
            return
        end = size
        cut = 0
        while end > 0:
            start = max(0, end - 65536)
            handle.seek(start)
            chunk = handle.read(end - start)
            newline = chunk.rfind(b"\n")
            if newline != -1:
                cut = start + newline + 1
                break
            end = start
        handle.truncate(cut)


class CellStore:
    """A directory-backed, content-addressed map from cell identity to record.

    ``get``/``contains`` consult an in-memory index built by scanning the
    segment files once at open (primed from the ``index.json`` snapshot when
    one is present, so only bytes appended since the snapshot are rescanned);
    ``put`` appends to this process's own segment.  Many processes may hold
    the same store open and ``put`` concurrently; each sees the records that
    existed when it opened plus its own writes (call :meth:`refresh` to pick
    up other writers' appends).  :meth:`gc` compacts the segments offline and
    must not run concurrently with writers.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        self._segment_dir = os.path.join(root, _SEGMENT_DIR)
        os.makedirs(self._segment_dir, exist_ok=True)
        self._check_or_write_meta()
        #: key -> (segment file name, byte offset of its record line).
        self._index: Dict[str, Tuple[str, int]] = {}
        #: bytes of each segment already scanned into the index.
        self._scanned: Dict[str, int] = {}
        self._duplicates = 0
        self._writer: Optional[IO[str]] = None
        self._writer_name = f"seg-{os.getpid()}.jsonl"
        self._load_index_snapshot()
        self.refresh()

    # -- metadata -------------------------------------------------------------
    def _check_or_write_meta(self) -> None:
        meta_path = os.path.join(self.root, _META_NAME)
        if os.path.exists(meta_path):
            with open(meta_path) as handle:
                try:
                    meta = json.load(handle)
                except json.JSONDecodeError as exc:
                    raise ValueError(
                        f"{meta_path} is not valid JSON ({exc}); not a cell "
                        f"store directory"
                    ) from None
            if meta.get("format") != STORE_FORMAT:
                raise ValueError(
                    f"{self.root} is not a {STORE_FORMAT} store "
                    f"(meta.json format: {meta.get('format')!r})"
                )
            if meta.get("key_algorithm") != STORE_KEY_ALGORITHM:
                raise ValueError(
                    f"{self.root} uses key algorithm "
                    f"{meta.get('key_algorithm')!r}, this code uses "
                    f"{STORE_KEY_ALGORITHM!r}; refusing to mix key universes"
                )
            return
        write_atomic(meta_path, (json.dumps({
            "format": STORE_FORMAT,
            "key_algorithm": STORE_KEY_ALGORITHM,
        }, sort_keys=True), "\n"))

    def _load_index_snapshot(self) -> None:
        index_path = os.path.join(self.root, _INDEX_NAME)
        if not os.path.exists(index_path):
            return
        try:
            with open(index_path) as handle:
                snapshot = json.load(handle)
        except json.JSONDecodeError:
            return  # the index is an accelerator; a torn one just means rescan
        if snapshot.get("format") != STORE_INDEX_FORMAT:
            return
        scanned = snapshot.get("segments", {})
        for name, size in scanned.items():
            path = os.path.join(self._segment_dir, name)
            # A segment the snapshot knows about but that no longer exists
            # (or shrank — e.g. a gc by another process) makes every offset
            # suspect: fall back to a full rescan.
            if not os.path.exists(path) or os.path.getsize(path) < size:
                self._index.clear()
                self._scanned.clear()
                return
        self._scanned = {name: int(size) for name, size in scanned.items()}
        self._index = {key: (entry[0], int(entry[1]))
                       for key, entry in snapshot.get("keys", {}).items()}
        self._duplicates = int(snapshot.get("duplicates", 0))

    def _write_index_snapshot(self) -> None:
        write_atomic(os.path.join(self.root, _INDEX_NAME), (json.dumps({
            "format": STORE_INDEX_FORMAT,
            "segments": dict(self._scanned),
            "keys": {key: list(entry) for key, entry in self._index.items()},
            "duplicates": self._duplicates,
        }, sort_keys=True), "\n"))

    # -- scanning -------------------------------------------------------------
    def _segment_names(self) -> List[str]:
        return sorted(name for name in os.listdir(self._segment_dir)
                      if name.endswith(".jsonl"))

    def refresh(self) -> None:
        """Index any segment bytes appended since the last scan.

        Duplicate keys with identical records collapse to the first
        occurrence (two runs deterministically recomputing one cell);
        conflicting records under one key are an error — the store mixes
        incompatible computations and must not silently serve either.
        """
        for name in self._segment_names():
            path = os.path.join(self._segment_dir, name)
            start = self._scanned.get(name, 0)
            size = os.path.getsize(path)
            if size <= start:
                continue
            with open(path, "rb") as handle:
                handle.seek(start)
                offset = start
                for raw in handle:
                    if not raw.endswith(b"\n"):
                        # Crash-truncated tail: every *finished* record stays
                        # recoverable; the partial one is dropped (and
                        # truncated away before this process appends here).
                        break
                    self._index_line(name, offset, raw, path)
                    offset += len(raw)
            self._scanned[name] = offset

    def _index_line(self, name: str, offset: int, raw: bytes,
                    path: str) -> None:
        try:
            entry = json.loads(raw)
        except json.JSONDecodeError:
            raise ValueError(
                f"{path}: corrupt record line at byte {offset} (not valid "
                f"JSON); segments are append-only, so mid-file corruption "
                f"is outside the crash model — restore the segment or "
                f"delete it to drop its cells"
            ) from None
        key = entry.get("key")
        record = entry.get("record")
        if not (isinstance(key, str) and isinstance(record, dict)
                and "cell" in record):
            raise ValueError(
                f"{path}: malformed store entry at byte {offset} "
                f"(needs 'key' and a 'record' with a 'cell' identity)"
            )
        if store_key(record["cell"]) != key:
            raise ValueError(
                f"{path}: store entry at byte {offset} is keyed {key!r} but "
                f"its record identity hashes differently; the segment is "
                f"corrupt or was written by an incompatible key algorithm"
            )
        known = self._index.get(key)
        if known is not None:
            existing, _ = self._read_entry(known)
            if existing != record:
                raise ValueError(
                    f"{path}: conflicting records for store key {key!r} "
                    f"(also in {known[0]}); the store mixes incompatible "
                    f"computations for one cell identity"
                )
            self._duplicates += 1
            return
        self._index[key] = (name, offset)

    def _read_entry(self, entry: Tuple[str, int]) -> Tuple[Dict[str, Any], float]:
        name, offset = entry
        path = os.path.join(self._segment_dir, name)
        with open(path, "rb") as handle:
            handle.seek(offset)
            raw = handle.readline()
        payload = json.loads(raw)
        return payload["record"], float(payload.get("wall_time_s", 0.0))

    # -- the map API ----------------------------------------------------------
    def contains(self, cell_params: Dict[str, Any]) -> bool:
        """Whether a record for this cell identity is in the store."""
        return store_key(cell_params) in self._index

    def __contains__(self, cell_params: Dict[str, Any]) -> bool:
        return self.contains(cell_params)

    def __len__(self) -> int:
        return len(self._index)

    def get(self, cell_params: Dict[str, Any],
            ) -> Optional[Tuple[Dict[str, Any], float]]:
        """The stored ``(record, wall_time_s)`` for this identity, or ``None``.

        The record is the full deterministic payload (``cell`` identity plus
        outcome); the wall time is the telemetry recorded when the cell was
        originally computed.
        """
        entry = self._index.get(store_key(cell_params))
        if entry is None:
            return None
        return self._read_entry(entry)

    def put(self, record: Dict[str, Any], wall_time_s: float = 0.0) -> bool:
        """Store one cell record; returns whether it was newly added.

        Idempotent: an identity already present (here or written by another
        process this store has scanned) is not re-appended.  The write is one
        flushed newline-terminated line in this process's own segment, so
        concurrent ``put``\\ s from different processes never interleave.
        """
        if "cell" not in record:
            raise ValueError("a store record needs a 'cell' identity dict")
        key = store_key(record["cell"])
        if key in self._index:
            return False
        if self._writer is None:
            path = os.path.join(self._segment_dir, self._writer_name)
            if os.path.exists(path):
                _truncate_partial_tail(path)
                # Adopt whatever a previous same-pid run left in our segment
                # before appending behind it.
                self.refresh()
                if key in self._index:
                    return False
            self._writer = open(path, "a")
        offset = self._writer.tell()
        self._writer.write(json.dumps(
            {"key": key, "record": record, "wall_time_s": float(wall_time_s)},
            sort_keys=True))
        self._writer.write("\n")
        self._writer.flush()
        self._index[key] = (self._writer_name, offset)
        self._scanned[self._writer_name] = self._writer.tell()
        return True

    # -- maintenance ----------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Store shape: cell/segment counts, bytes on disk, duplicate lines."""
        names = self._segment_names()
        return {
            "cells": len(self._index),
            "segments": len(names),
            "bytes": sum(os.path.getsize(os.path.join(self._segment_dir, name))
                         for name in names),
            "duplicates": self._duplicates,
        }

    def gc(self) -> Dict[str, Any]:
        """Compact every segment into one, dropping duplicate and partial lines.

        Returns ``{"cells", "segments_removed", "bytes_reclaimed",
        "duplicates_dropped"}``.  Offline maintenance only: it rewrites
        segment files, so it must not run concurrently with writers in other
        processes (their in-memory offsets would go stale).
        """
        self.refresh()
        before = self.stats()
        if self._writer is not None:
            self._writer.close()
            self._writer = None
        compact_name = f"seg-gc-{os.getpid()}.jsonl"
        compact_path = os.path.join(self._segment_dir, compact_name)
        tmp_path = f"{compact_path}.tmp"
        new_index: Dict[str, Tuple[str, int]] = {}
        with open(tmp_path, "w") as handle:
            for key in sorted(self._index):
                record, wall = self._read_entry(self._index[key])
                new_index[key] = (compact_name, handle.tell())
                handle.write(json.dumps(
                    {"key": key, "record": record, "wall_time_s": wall},
                    sort_keys=True))
                handle.write("\n")
        old_names = [name for name in self._segment_names()
                     if name != compact_name]
        os.replace(tmp_path, compact_path)
        for name in old_names:
            os.remove(os.path.join(self._segment_dir, name))
        self._index = new_index
        self._scanned = {compact_name: os.path.getsize(compact_path)}
        self._duplicates = 0
        self._write_index_snapshot()
        after = self.stats()
        return {
            "cells": after["cells"],
            "segments_removed": len(old_names),
            "bytes_reclaimed": before["bytes"] - after["bytes"],
            "duplicates_dropped": before["duplicates"],
        }

    def keys(self) -> List[str]:
        """Every stored key, sorted (stable iteration for tooling/tests)."""
        return sorted(self._index)

    def records(self) -> Iterator[Tuple[Dict[str, Any], float]]:
        """Iterate ``(record, wall_time_s)`` pairs in sorted-key order."""
        for key in self.keys():
            yield self._read_entry(self._index[key])

    def close(self) -> None:
        """Flush the writer segment and persist the index snapshot."""
        if self._writer is not None:
            self._writer.close()
            self._writer = None
        self._write_index_snapshot()

    def __enter__(self) -> "CellStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def open_store(store: Union[str, CellStore, None]) -> Optional[CellStore]:
    """Normalize a ``store`` argument: a path opens a :class:`CellStore`, an
    instance passes through, ``None`` stays ``None``."""
    if store is None or isinstance(store, CellStore):
        return store
    return CellStore(store)
