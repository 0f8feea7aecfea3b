"""Content-addressed, cross-run cell result store.

This module makes the identity→result contract durable across every sweep,
benchmark and report run.  A :class:`CellStore` is a directory of
**write-once files, one per cell**::

    meta.json          {"code": ..., "format": "repro.cellstore/v2",
                        "key_algorithm": ...}
    cells/<key>.json   {"record": {...}, "wall_time_s": 1.23}

* the store key of a record is a stable hash
  (:data:`STORE_KEY_ALGORITHM`: SHA-256 of the canonical sorted-key identity
  JSON from :func:`~repro.experiments.results.cell_identity_key`), so two
  processes — or two machines — that enumerate the same cell derive the same
  key without coordination;
* ``put`` writes the cell file to ``<key>.json.tmp.<pid>`` beside it and
  publishes it with :func:`os.link`, which refuses an existing name: each
  key is created once, atomically, by the first writer, and a reader sees a
  whole file or none.  A crash leaves at most a temp file, which nothing
  reads and the next ``put`` of that key does not trip over;
* a second ``put`` of a stored key compares the records: identical is a
  no-op (two runs deterministically recomputing one cell), different is a
  :class:`ValueError` — the store would mix incompatible computations;
* ``get`` checks that the record's identity hashes to the file's key, so a
  damaged or misplaced file is an error naming its path, never a silently
  wrong result;
* ``meta.json``'s ``code`` is :func:`code_digest` of the code that made the
  store, and a store made by other code is refused: a key names a cell's
  identity, not the code that computed it, so a store warmed before a
  behaviour change would serve the old numbers.  Keys, and so every cell
  file name, do not depend on the code.

The store holds no open handle and no in-memory index: every call looks at
the directory, so any number of processes may share one store.  It serves a
few hundred cells per directory (the full report is 144), which one file per
cell fits.

The store is consulted by
:func:`repro.experiments.execute.execute_cells(..., store=...)
<repro.experiments.execute.execute_cells>` before any cell executes: store
hits skip execution, and fresh outcomes are ``put`` back, so any later run —
a different grid, a report spec, a benchmark — transparently reuses every
cell ever computed.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from typing import Any, Dict, List, Optional, Tuple

from .results import cell_identity_key, write_atomic

__all__ = [
    "STORE_FORMAT",
    "STORE_KEY_ALGORITHM",
    "CellStore",
    "code_digest",
    "store_key",
]

#: Format tag in a store directory's ``meta.json``.
STORE_FORMAT = "repro.cellstore/v2"

#: How store keys are derived; recorded in ``meta.json`` so a future
#: algorithm change is a new store version, never a silent re-keying.
STORE_KEY_ALGORITHM = "sha256/cell-identity-json/v1"

_CELL_DIR = "cells"
_META_NAME = "meta.json"

#: The ``repro`` package directory, whose ``.py`` files :func:`code_digest`
#: covers.
_PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@functools.lru_cache(maxsize=None)
def code_digest() -> str:
    """SHA-256 over the sorted relative paths and bytes of every ``.py`` file
    in the ``repro`` package: 64 lowercase hex chars, computed once per
    process.  Each file enters as its ``/``-separated path, a NUL, its byte
    length and its bytes, so no two trees share a digest by shifting bytes
    from one file to the next.  Documentation outside the package does not
    enter, so a docs-only change keeps a store warm.
    """
    files: List[Tuple[str, str]] = []
    for directory, _, names in os.walk(_PACKAGE_DIR):
        for name in names:
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                relative = os.path.relpath(path, _PACKAGE_DIR)
                files.append((relative.replace(os.sep, "/"), path))
    digest = hashlib.sha256()
    for relative, path in sorted(files):
        with open(path, "rb") as handle:
            data = handle.read()
        digest.update(relative.encode("utf-8") + b"\0")
        digest.update(len(data).to_bytes(8, "big"))
        digest.update(data)
    return digest.hexdigest()


def store_key(cell_params: Dict[str, Any]) -> str:
    """The content-addressed key of a cell identity: 64 lowercase hex chars.

    SHA-256 over the canonical sorted-key identity JSON
    (:func:`~repro.experiments.results.cell_identity_key`), so the key is a
    pure function of the identity — stable across processes, platforms and
    Python versions, and pinned by a golden fixture in the test suite.
    """
    identity = cell_identity_key(cell_params)
    return hashlib.sha256(identity.encode("utf-8")).hexdigest()


class CellStore:
    """A directory-backed, content-addressed map from cell identity to record.

    ``get`` reads one file of the ``cells/`` directory; ``put`` publishes one
    write-once file.  Many processes may ``put`` into one
    store concurrently, and each sees every cell the moment its file is
    linked.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        self._cell_dir = os.path.join(root, _CELL_DIR)
        os.makedirs(root, exist_ok=True)
        # Checked before anything is created, so a refused directory is left
        # as it was found.
        self._check_or_write_meta()
        os.makedirs(self._cell_dir, exist_ok=True)

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
                    f"(meta.json format: {meta.get('format')!r}); delete it "
                    f"or pass a fresh --store directory"
                )
            if meta.get("key_algorithm") != STORE_KEY_ALGORITHM:
                raise ValueError(
                    f"{self.root} uses key algorithm "
                    f"{meta.get('key_algorithm')!r}, this code uses "
                    f"{STORE_KEY_ALGORITHM!r}; refusing to mix key universes"
                )
            if meta.get("code") != code_digest():
                raise ValueError(
                    f"{self.root} holds cells computed by other code (its "
                    f"code digest {meta.get('code')!r}, this code's "
                    f"{code_digest()!r}); delete it or pass a fresh --store "
                    f"directory"
                )
            return
        write_atomic(meta_path, (json.dumps({
            "code": code_digest(),
            "format": STORE_FORMAT,
            "key_algorithm": STORE_KEY_ALGORITHM,
        }, sort_keys=True), "\n"))

    def _path(self, key: str) -> str:
        return os.path.join(self._cell_dir, f"{key}.json")

    def get(self, cell_params: Dict[str, Any],
            ) -> Optional[Tuple[Dict[str, Any], float]]:
        """The stored ``(record, wall_time_s)`` for this identity, or ``None``.

        The record is the full deterministic payload (``cell`` identity plus
        outcome); the wall time is the telemetry recorded when the cell was
        originally computed.  A cell file that is not a store entry, or whose
        record hashes to another key, raises :class:`ValueError` naming it.
        """
        key = store_key(cell_params)
        path = self._path(key)
        try:
            with open(path) as handle:
                text = handle.read()
        except FileNotFoundError:
            return None
        try:
            entry = json.loads(text)
            record, wall = entry["record"], float(entry["wall_time_s"])
            identity = record["cell"]
        except (ValueError, KeyError, TypeError):
            raise ValueError(
                f"{path} is not a cell store entry (needs JSON with a "
                f"'record' holding a 'cell' identity, and 'wall_time_s'); "
                f"delete the file to drop the cell"
            ) from None
        if store_key(identity) != key:
            raise ValueError(
                f"{path}: its record identity hashes to another key; the "
                f"file was damaged or moved — delete it to drop the cell"
            )
        return record, wall

    def put(self, record: Dict[str, Any], wall_time_s: float = 0.0) -> bool:
        """Store one cell record; returns whether it was newly added.

        Idempotent for an identical record: a key already present (written
        by any process) is left as it is and ``False`` returned.  A record
        that differs from the stored one raises :class:`ValueError` naming
        the key.
        """
        if "cell" not in record:
            raise ValueError("a store record needs a 'cell' identity dict")
        key = store_key(record["cell"])
        path = self._path(key)
        text = json.dumps({"record": record, "wall_time_s": float(wall_time_s)},
                          sort_keys=True)
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as handle:
            handle.write(text)
        try:
            os.link(tmp, path)
        except FileExistsError:
            stored = self.get(record["cell"])
            # Compared as JSON: a tuple in ``record`` is a list once stored.
            if stored is not None and (json.dumps(stored[0], sort_keys=True)
                                       != json.dumps(record, sort_keys=True)):
                raise ValueError(
                    f"conflicting records for store key {key!r}: the stored "
                    f"record differs from the one being put, so the store "
                    f"would mix incompatible computations for one cell "
                    f"identity"
                ) from None
            return False
        finally:
            os.remove(tmp)
        return True

    def __enter__(self) -> "CellStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        """Nothing to release: the store holds no open handle."""

