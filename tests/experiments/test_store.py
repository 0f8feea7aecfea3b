"""Tests for the content-addressed cell store.

The load-bearing properties: keys are a stable pure function of the cell
identity (pinned by a golden fixture), each key is written once and a
different record under it is an error, concurrent writer processes never
corrupt each other, and the one thing a crash can leave (a temp file) is
invisible.
"""

import glob
import hashlib
import json
import multiprocessing
import os
import re

import pytest

from repro.experiments.results import cell_identity_key
from repro.experiments import store as store_module
from repro.experiments.store import (
    STORE_FORMAT,
    STORE_KEY_ALGORITHM,
    CellStore,
    code_digest,
    store_key,
)

GOLDEN_KEYS = os.path.join(os.path.dirname(__file__), "data",
                           "golden_store_keys.json")


def record_for(index, seed=7, value=None):
    """A minimal, deterministic store record for a fake cell identity."""
    return {
        "cell": {"index": index, "kind": "fake", "seed": seed},
        "value": index * 10 if value is None else value,
    }


def stored_cells(store):
    """How many cell files ``store`` holds: ``cells/*.json``."""
    return len(glob.glob(os.path.join(store.root, "cells", "*.json")))


class TestStoreKey:
    def test_matches_golden_fixture(self):
        """The identity->key mapping is a cross-run, cross-machine contract:
        changing it orphans every existing store, so the exact digests are
        pinned."""
        with open(GOLDEN_KEYS) as handle:
            golden = json.load(handle)
        assert len(golden) >= 5
        for entry in golden:
            assert store_key(entry["cell"]) == entry["key"]

    def test_is_sha256_of_identity_json(self):
        import hashlib
        cell = {"scheme": "pcc", "seed": 3}
        expected = hashlib.sha256(
            cell_identity_key(cell).encode("utf-8")).hexdigest()
        assert store_key(cell) == expected
        assert STORE_KEY_ALGORITHM.startswith("sha256/")

    def test_key_order_insensitive(self):
        assert (store_key({"a": 1, "b": 2})
                == store_key({"b": 2, "a": 1}))

    def test_distinct_identities_distinct_keys(self):
        keys = {store_key({"index": i, "seed": s})
                for i in range(10) for s in range(10)}
        assert len(keys) == 100


class TestRoundTrip:
    def test_put_get_and_count(self, tmp_path):
        with CellStore(str(tmp_path / "store")) as store:
            assert store.get(record_for(0)["cell"]) is None
            assert store.put(record_for(0), wall_time_s=0.25)
            assert store.put(record_for(1))
            assert stored_cells(store) == 2
            record, wall = store.get(record_for(0)["cell"])
            assert record == record_for(0)
            assert wall == 0.25

    def test_put_is_idempotent(self, tmp_path):
        with CellStore(str(tmp_path / "store")) as store:
            assert store.put(record_for(0), wall_time_s=0.25)
            assert not store.put(record_for(0), wall_time_s=9.0)
            assert stored_cells(store) == 1
            # The first writer's file stays, wall time included.
            assert store.get(record_for(0)["cell"]) == (record_for(0), 0.25)

    def test_repeat_put_compares_the_record_as_stored(self, tmp_path):
        """A tuple comes back from JSON as a list; the same record put again
        is still the same record, not a conflict."""
        with CellStore(str(tmp_path / "store")) as store:
            assert store.put(record_for(0, value=(1, 2.5)))
            assert not store.put(record_for(0, value=(1, 2.5)))

    def test_conflicting_put_raises_naming_the_key(self, tmp_path):
        """Two different payloads under one identity mean the store would mix
        incompatible computations; the second put must fail loudly, and the
        first record must stay."""
        with CellStore(str(tmp_path / "store")) as store:
            store.put(record_for(0, value=111))
            key = store_key(record_for(0)["cell"])
            with pytest.raises(ValueError, match=key):
                store.put(record_for(0, value=222))
            assert store.get(record_for(0)["cell"])[0] == \
                record_for(0, value=111)
            assert stored_cells(store) == 1

    def test_one_file_per_cell(self, tmp_path):
        root = str(tmp_path / "store")
        with CellStore(root) as store:
            for index in range(3):
                store.put(record_for(index), wall_time_s=0.5)
        names = sorted(os.listdir(os.path.join(root, "cells")))
        assert names == sorted(f"{store_key(record_for(index)['cell'])}.json"
                               for index in range(3))
        with open(os.path.join(root, "cells", names[0])) as handle:
            entry = json.load(handle)
        assert set(entry) == {"record", "wall_time_s"}
        assert entry["wall_time_s"] == 0.5

    def test_record_without_identity_rejected(self, tmp_path):
        with CellStore(str(tmp_path / "store")) as store:
            with pytest.raises(ValueError, match="cell"):
                store.put({"value": 1})

    def test_persists_across_reopen(self, tmp_path):
        root = str(tmp_path / "store")
        with CellStore(root) as store:
            store.put(record_for(0))
            store.put(record_for(1))
        with CellStore(root) as store:
            assert stored_cells(store) == 2
            assert store.get(record_for(1)["cell"])[0] == record_for(1)

    def test_second_instance_sees_puts_at_once(self, tmp_path):
        """No in-memory index: a store opened earlier sees a cell the moment
        another instance publishes it, and two instances agree on a key."""
        root = str(tmp_path / "store")
        reader = CellStore(root)
        writer = CellStore(root)
        assert writer.put(record_for(0), wall_time_s=1.5)
        assert stored_cells(reader) == 1
        assert reader.get(record_for(0)["cell"]) == (record_for(0), 1.5)
        assert not reader.put(record_for(0))

    def test_conflicting_put_leaves_no_temp_file(self, tmp_path):
        root = str(tmp_path / "store")
        with CellStore(root) as store:
            store.put(record_for(0, value=111))
            with pytest.raises(ValueError, match="conflicting"):
                store.put(record_for(0, value=222))
        assert os.listdir(os.path.join(root, "cells")) == [
            f"{store_key(record_for(0)['cell'])}.json"]

    def test_context_manager_yields_the_store(self, tmp_path):
        """``with CellStore(...)`` hands back the store itself, and leaving
        the block releases nothing: the instance stays usable."""
        store = CellStore(str(tmp_path / "store"))
        with store as entered:
            assert entered is store
            entered.put(record_for(0))
        assert store.put(record_for(1))
        assert stored_cells(store) == 2


class TestMetadata:
    def test_meta_written_on_create(self, tmp_path):
        root = str(tmp_path / "store")
        CellStore(root)
        with open(os.path.join(root, "meta.json")) as handle:
            meta = json.load(handle)
        assert meta == {"code": code_digest(), "format": STORE_FORMAT,
                        "key_algorithm": STORE_KEY_ALGORITHM}

    def test_store_written_by_other_code_rejected(self, tmp_path,
                                                  monkeypatch):
        """A key names a cell's identity, not the code that computed it, so
        a store warmed by other code would serve that code's numbers: it is
        refused, naming both digests, and left as it was found."""
        root = str(tmp_path / "store")
        with CellStore(root) as store:
            store.put(record_for(0))
        written = code_digest()
        monkeypatch.setattr(store_module, "code_digest", lambda: "f" * 64)
        with pytest.raises(ValueError, match=(
                f"other code .*{written}.*{'f' * 64}.*fresh --store")):
            CellStore(root)
        monkeypatch.undo()
        assert CellStore(root).get(record_for(0)["cell"]) is not None

    def test_store_without_a_code_digest_rejected(self, tmp_path):
        """A store whose ``meta.json`` names no code (one made before the
        digest was recorded) is refused too."""
        root = str(tmp_path / "store")
        os.makedirs(root)
        with open(os.path.join(root, "meta.json"), "w") as handle:
            json.dump({"format": STORE_FORMAT,
                       "key_algorithm": STORE_KEY_ALGORITHM}, handle)
        with pytest.raises(ValueError, match="other code .*None"):
            CellStore(root)
        assert os.listdir(root) == ["meta.json"]

    def test_code_digest_covers_every_module_of_the_package(self):
        """64 hex chars, one value per process, and a function of the
        package's ``.py`` files: the digest of their paths and bytes,
        recomputed here independently, matches."""
        package = os.path.dirname(os.path.dirname(store_module.__file__))
        files = sorted(
            os.path.relpath(os.path.join(directory, name), package)
            .replace(os.sep, "/")
            for directory, _, names in os.walk(package)
            for name in names if name.endswith(".py"))
        assert "experiments/store.py" in files and len(files) > 50
        digest = hashlib.sha256()
        for relative in files:
            with open(os.path.join(package, relative), "rb") as handle:
                data = handle.read()
            digest.update(relative.encode() + b"\0"
                          + len(data).to_bytes(8, "big") + data)
        assert code_digest() == digest.hexdigest()
        assert code_digest() is code_digest()

    def test_foreign_format_rejected(self, tmp_path):
        root = str(tmp_path / "store")
        os.makedirs(root)
        with open(os.path.join(root, "meta.json"), "w") as handle:
            json.dump({"format": "something/else",
                       "key_algorithm": STORE_KEY_ALGORITHM}, handle)
        with pytest.raises(ValueError, match="format"):
            CellStore(root)

    def test_v1_store_rejected_with_advice(self, tmp_path):
        """A store of the old segment layout is refused, not migrated."""
        root = str(tmp_path / "store")
        os.makedirs(os.path.join(root, "segments"))
        with open(os.path.join(root, "meta.json"), "w") as handle:
            json.dump({"format": "repro.cellstore/v1",
                       "key_algorithm": STORE_KEY_ALGORITHM}, handle)
        with pytest.raises(ValueError,
                           match="repro.cellstore/v1.*fresh --store"):
            CellStore(root)
        assert sorted(os.listdir(root)) == ["meta.json", "segments"]

    def test_foreign_key_algorithm_rejected(self, tmp_path):
        root = str(tmp_path / "store")
        os.makedirs(root)
        with open(os.path.join(root, "meta.json"), "w") as handle:
            json.dump({"format": STORE_FORMAT,
                       "key_algorithm": "md5/legacy"}, handle)
        with pytest.raises(ValueError, match="key algorithm"):
            CellStore(root)

    def test_existing_empty_directory_becomes_a_store(self, tmp_path):
        """``--store`` may name a directory made beforehand."""
        root = tmp_path / "store"
        root.mkdir()
        with CellStore(str(root)) as store:
            assert stored_cells(store) == 0
            assert store.put(record_for(0))
        assert sorted(os.listdir(root)) == ["cells", "meta.json"]

    def test_non_json_meta_rejected(self, tmp_path):
        root = str(tmp_path / "store")
        os.makedirs(root)
        with open(os.path.join(root, "meta.json"), "w") as handle:
            handle.write("not json at all")
        with pytest.raises(ValueError, match="not a cell store"):
            CellStore(root)


def _cell_path(root, index):
    return os.path.join(root, "cells",
                        f"{store_key(record_for(index)['cell'])}.json")


class TestCrashAndCorruption:
    def test_leftover_temp_file_is_invisible(self, tmp_path):
        """A crash between writing the temp file and linking it leaves
        ``<key>.json.tmp.<pid>``: no reader sees it, and a later put of the
        same key publishes normally and cleans up after itself."""
        root = str(tmp_path / "store")
        CellStore(root)
        leftover = _cell_path(root, 0) + ".tmp.99999"
        with open(leftover, "w") as handle:
            handle.write('{"record": {"cel')  # torn mid-write
        with CellStore(root) as store:
            assert stored_cells(store) == 0
            assert store.get(record_for(0)["cell"]) is None
            assert store.put(record_for(0))
            assert stored_cells(store) == 1
            assert store.get(record_for(0)["cell"])[0] == record_for(0)
        own_tmp = _cell_path(root, 0) + f".tmp.{os.getpid()}"
        assert not os.path.exists(own_tmp)

    def test_non_json_cell_file_is_an_error(self, tmp_path):
        root = str(tmp_path / "store")
        with CellStore(root) as store:
            store.put(record_for(0))
        path = _cell_path(root, 0)
        with open(path, "w") as handle:
            handle.write("garbage not json")
        with pytest.raises(ValueError, match=re.escape(path)):
            CellStore(root).get(record_for(0)["cell"])

    @pytest.mark.parametrize("entry", [
        [1, 2],
        {"wall_time_s": 0.5},
        {"record": {"value": 1}, "wall_time_s": 0.5},
        {"record": {"cell": {}}, "wall_time_s": "slow"},
    ], ids=["not-an-object", "no-record", "no-identity", "bad-wall-time"])
    def test_malformed_cell_entry_is_an_error(self, tmp_path, entry):
        """Valid JSON that is not a store entry is refused like garbage."""
        root = str(tmp_path / "store")
        CellStore(root)
        path = _cell_path(root, 0)
        with open(path, "w") as handle:
            json.dump(entry, handle)
        with pytest.raises(ValueError, match=re.escape(path)):
            CellStore(root).get(record_for(0)["cell"])

    def test_put_over_a_corrupt_cell_file_raises_and_keeps_it(self,
                                                               tmp_path):
        """A put never overwrites a cell file: over a damaged one it raises
        naming the path, leaves the file for inspection and no temp file."""
        root = str(tmp_path / "store")
        CellStore(root)
        path = _cell_path(root, 0)
        with open(path, "w") as handle:
            handle.write("garbage not json")
        with pytest.raises(ValueError, match=re.escape(path)):
            CellStore(root).put(record_for(0))
        with open(path) as handle:
            assert handle.read() == "garbage not json"
        assert os.listdir(os.path.join(root, "cells")) == [
            os.path.basename(path)]

    def test_mis_keyed_cell_file_is_an_error(self, tmp_path):
        """A file whose record identity hashes to another key (damaged, or
        moved by hand) must not be served as the cell its name says."""
        root = str(tmp_path / "store")
        with CellStore(root) as store:
            store.put(record_for(1))
        os.rename(_cell_path(root, 1), _cell_path(root, 0))
        path = _cell_path(root, 0)
        with pytest.raises(ValueError, match=re.escape(path)):
            CellStore(root).get(record_for(0)["cell"])


def _writer_process(root, indices, barrier):
    """Open the shared store and put a batch of records (child process)."""
    store = CellStore(root)
    barrier.wait()
    for index in indices:
        store.put(record_for(index))


class TestConcurrentWriters:
    def test_two_processes_interleave_puts_without_loss(self, tmp_path):
        """Write-once files published by ``os.link`` make concurrent
        cross-process writes safe by construction: both batches (including
        the overlapping cells both processes compute) must be fully present
        afterwards, visible to a store opened before either wrote, with no
        temp file left behind."""
        root = str(tmp_path / "store")
        store = CellStore(root)
        barrier = multiprocessing.Barrier(2)
        procs = [
            multiprocessing.Process(target=_writer_process,
                                    args=(root, list(batch), barrier))
            for batch in (range(0, 30), range(25, 55))
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60)
        assert [proc.exitcode for proc in procs] == [0, 0]
        assert stored_cells(store) == 55
        for index in range(55):
            assert store.get(record_for(index)["cell"])[0] == \
                record_for(index)
        names = os.listdir(os.path.join(root, "cells"))
        assert len(names) == 55
        assert not [name for name in names if ".tmp." in name]
