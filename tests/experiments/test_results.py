"""Tests for the streaming ResultSet API and sweep resume through the store.

The load-bearing properties: the canonical JSON view is byte-identical
however the records were accumulated (streamed, loaded, reused from a store),
and a sweep resumed over a partial store runs only the missing cells yet
produces output identical to an uninterrupted run.
"""

import gc
import json
import os
import tracemalloc

import pytest

from repro.experiments.results import (
    RESULTSET_FORMAT,
    ResultSet,
    ResultSetWriter,
    cell_identity_key,
)
from repro.experiments.store import CellStore
from repro.experiments.sweep import SweepGrid, sweep


def tiny_grid(**overrides):
    params = dict(
        schemes=("cubic", "pcc"),
        bandwidths_bps=(5e6,),
        rtts=(0.03,),
        loss_rates=(0.0, 0.01),
        duration=2.0,
    )
    params.update(overrides)
    return SweepGrid(**params)


def _store_from_jsonl(path, store_dir):
    """The README recipe: load a (possibly crash-truncated) JSONL stream and
    put every recovered record into a cell store."""
    loaded = ResultSet.load(str(path))
    with CellStore(str(store_dir)) as store:
        for record, wall in zip(loaded.cells, loaded.timings, strict=True):
            store.put(record, wall)
    return str(store_dir)


def _record(index, scheme="cubic", loss=0.0, goodput=4.0, utility=None):
    cell = {"index": index, "scheme": scheme, "loss_rate": loss,
            "bandwidth_bps": 5e6, "seed": 1000 + index}
    if utility is not None:
        cell["utility"] = utility
    return {
        "cell": cell,
        "flows": [{"goodput_mbps": goodput, "loss_rate": loss,
                   "mean_rtt_ms": 31.0, "scheme": scheme, "label": f"{scheme}-0",
                   "fct": None}],
        "engine": {"events_processed": 10 + index, "pending_events": 0,
                   "simulated_seconds": 2.0},
    }


class TestCanonicalView:
    def test_ordering_is_canonical_regardless_of_append_order(self):
        in_order = ResultSet(0, [_record(0), _record(1), _record(2)])
        shuffled = ResultSet(0)
        for index in (2, 0, 1):
            shuffled.append(_record(index))
        assert shuffled.to_json() == in_order.to_json()
        assert [r["cell"]["index"] for r in shuffled.cells] == [0, 1, 2]

    def test_timings_follow_canonical_order(self):
        rs = ResultSet(0)
        rs.append(_record(1), wall_time_s=1.0)
        rs.append(_record(0), wall_time_s=0.5)
        assert rs.timings == [0.5, 1.0]
        assert rs.total_wall_time_s == 1.5

    def test_len_and_iter(self):
        rs = ResultSet(0, [_record(0), _record(1)])
        assert len(rs) == 2
        assert [r["cell"]["index"] for r in rs] == [0, 1]

    def test_record_without_identity_rejected(self):
        with pytest.raises(ValueError, match="cell"):
            ResultSet(0, [{"flows": []}])


class TestJsonlRoundTrip:
    def test_write_jsonl_then_load(self, tmp_path):
        path = tmp_path / "run.jsonl"
        rs = ResultSet(7)
        rs.append(_record(0), wall_time_s=0.25)
        rs.append(_record(1), wall_time_s=0.5)
        rs.write_jsonl(str(path))
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header == {"format": RESULTSET_FORMAT, "base_seed": 7}
        assert len(lines) == 3
        # Each record line is canonical (sorted keys) and identity-keyed.
        record = json.loads(lines[1])
        assert list(record) == sorted(record)
        assert record["wall_time_s"] == 0.25
        loaded = ResultSet.load(str(path))
        assert loaded.to_json() == rs.to_json()
        assert loaded.timings == [0.25, 0.5]

    def test_canonical_json_is_refused_naming_the_header(self, tmp_path):
        """``load`` reads only the JSONL stream: the canonical ``--output``
        file is no stream, and the error names the header it lacks."""
        path = tmp_path / "sweep.json"
        ResultSet(3, [_record(0)]).write(str(path))
        with pytest.raises(ValueError,
                           match=f"no '{RESULTSET_FORMAT}' header line"):
            ResultSet.load(str(path))

    def test_load_identical_duplicates_collapse(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        with ResultSetWriter(str(path), base_seed=0) as writer:
            writer.write(_record(0))
            writer.write(_record(0))
        assert len(ResultSet.load(str(path))) == 1

    def test_load_conflicting_duplicates_rejected(self, tmp_path):
        path = tmp_path / "conflict.jsonl"
        with ResultSetWriter(str(path), base_seed=0) as writer:
            writer.write(_record(0, goodput=4.0))
            writer.write(_record(0, goodput=1.0))
        with pytest.raises(ValueError, match="conflicting"):
            ResultSet.load(str(path))

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            ResultSet.load(str(path))


class TestAtomicWrite:
    def test_a_write_that_fails_halfway_leaves_the_old_file(self, tmp_path):
        """A full disk or a kill during ``sweep --output`` used to leave a
        truncated file where the previous good one had been."""
        path = tmp_path / "out.json"
        ResultSet(1, [_record(0)]).write(str(path))
        before = path.read_bytes()
        rows = _record(0)["flows"] * 100
        doomed = ResultSet(1, [
            dict(_record(0), flows=rows),  # streamed out before the failure
            dict(_record(1), flows=rows + [{"fct": object()}]),
        ])
        with pytest.raises(TypeError, match="not JSON serializable"):
            doomed.write(str(path))
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["out.json"]


def _traced(call):
    """``(result, peak, retained)`` of ``call()``: bytes allocated over the
    level at entry, at the highest point and at return."""
    gc.collect()
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        result = call()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - baseline, retained - baseline


class TestMemoryBounds:
    """What encoding and loading hold beside their result, in allocated bytes
    (no wall clock): a result of thousands of flow rows is encoded a slice of
    rows at a time and loaded a line at a time."""

    @pytest.fixture(scope="class")
    def churn(self):
        rows = [{"label": f"web-{i}", "scheme": "pcc", "fct": 0.1234567 * i,
                 "goodput_mbps": 3.25 + i * 1e-3, "loss_rate": 0.0,
                 "mean_rtt_ms": 61.5, "bytes": 100_000 + i, "retx": None}
                for i in range(2000)]
        return ResultSet(7, [dict(_record(index), flows=rows)
                             for index in range(2)])

    def test_to_json_peak(self, churn):
        text, peak, _ = _traced(churn.to_json)
        # 2.0 measured: the pieces and their join.  One json.dumps(indent=2)
        # holds every token of the document in a list: 6.2.
        assert peak <= 3 * len(text)

    def test_write_peak(self, churn, tmp_path):
        path = str(tmp_path / "out.json")
        _, peak, _ = _traced(lambda: churn.write(path))
        assert peak <= 0.5 * os.path.getsize(path)  # 0.07 measured

    def test_load_peak(self, churn, tmp_path):
        path = str(tmp_path / "out.jsonl")
        churn.write_jsonl(path)
        with open(path) as handle:
            longest = max(len(line) for line in handle)
        loaded, peak, retained = _traced(lambda: ResultSet.load(path))
        assert loaded.to_json() == churn.to_json()
        # 1.04 lines measured over the records; read() + strip() +
        # splitlines() held three copies of the file, six lines here.
        assert peak <= retained + 2 * longest


class TestOne:
    """``one()`` is the one record lookup: exactly one match returns it, and
    the zero-match and many-match cases raise distinct, parameter-naming
    errors."""

    def _result(self):
        return ResultSet(0, [
            _record(0, scheme="cubic", loss=0.0),
            _record(1, scheme="cubic", loss=0.01),
            _record(2, scheme="pcc", loss=0.0),
        ])

    def test_single_match_returns_the_record(self):
        assert self._result().one(scheme="pcc") == _record(2, scheme="pcc")

    def test_zero_matches_names_the_bad_parameter_and_observed_values(self):
        with pytest.raises(KeyError) as excinfo:
            self._result().one(scheme="no-such-scheme")
        message = str(excinfo.value)
        assert "no cells match" in message
        assert "scheme='no-such-scheme'" in message
        assert "'cubic'" in message and "'pcc'" in message

    def test_zero_matches_from_a_bad_combination(self):
        with pytest.raises(KeyError, match="no single cell satisfies"):
            self._result().one(scheme="pcc", loss_rate=0.01)

    def test_many_matches_names_the_disambiguating_parameters(self):
        with pytest.raises(KeyError) as excinfo:
            self._result().one(scheme="cubic")
        message = str(excinfo.value)
        assert "2 cells match" in message
        assert "loss_rate" in message
        # index/seed always differ; suggesting them would be noise.
        assert "'index'" not in message and "'seed'" not in message

    def test_empty_resultset_zero_match_message(self):
        with pytest.raises(KeyError, match="empty"):
            ResultSet(0).one(scheme="pcc")

    def test_a_predicate_constrains_like_a_value(self):
        result = self._result()
        assert result.one(scheme="cubic", loss_rate=lambda v: v > 0) \
            == _record(1, scheme="cubic", loss=0.01)
        with pytest.raises(KeyError, match="2 cells match"):
            result.one(loss_rate=lambda v: v == 0.0)
        with pytest.raises(KeyError, match="loss_rate .no cell's value"):
            result.one(loss_rate=lambda v: v > 0.5)

    def test_a_dict_valued_key_is_matched_by_a_predicate(self):
        records = [_record(index) for index in range(2)]
        for record, load in zip(records, (0.25, 0.5), strict=True):
            record["cell"]["workload_kwargs"] = {"load": load, "size_kb": 100.0}
        result = ResultSet(0, records)
        assert result.one(
            workload_kwargs=lambda kw: kw["load"] == 0.5) == records[1]
        assert result.one(workload_kwargs={"load": 0.25, "size_kb": 100.0}) \
            == records[0]
        with pytest.raises(KeyError, match="size_kb"):
            result.one(workload_kwargs={"load": 0.75, "size_kb": 100.0})

    def test_goodput_mbps_sums_the_flows_of_the_one_record(self):
        two_flows = _record(3, scheme="pcc", loss=0.01, goodput=1.5)
        two_flows["flows"] *= 2
        result = ResultSet(0, [*self._result().cells, two_flows])
        assert result.goodput_mbps(scheme="pcc", loss_rate=0.01) == 3.0
        with pytest.raises(KeyError, match="2 cells match"):
            result.goodput_mbps(scheme="cubic")


class TestSweepStreamingAndResume:
    def test_sweep_streams_jsonl_as_cells_complete(self, tmp_path):
        path = tmp_path / "stream.jsonl"
        result = sweep(tiny_grid(), base_seed=1, workers=2,
                       jsonl_path=str(path))
        loaded = ResultSet.load(str(path))
        assert loaded.to_json() == result.to_json()

    def test_resume_from_partial_jsonl_matches_uninterrupted_run(self, tmp_path):
        """The acceptance criterion: an interrupted sweep resumed from the
        cells it finished yields canonical JSON identical to a full run."""
        full_path = tmp_path / "full.jsonl"
        fresh = sweep(tiny_grid(), base_seed=1, workers=1,
                      jsonl_path=str(full_path))
        # Simulate the interruption: keep the header and the first two of
        # four records.
        partial_path = tmp_path / "partial.jsonl"
        partial_path.write_text(
            "".join(line + "\n"
                    for line in full_path.read_text().splitlines()[:3]))
        store = _store_from_jsonl(partial_path, tmp_path / "store")
        resumed = sweep(tiny_grid(), base_seed=1, workers=2,
                        jsonl_path=str(partial_path), store=store)
        assert resumed.reuse == {"cells": 4, "store_hits": 2, "executed": 2}
        assert resumed.to_json() == fresh.to_json()
        # The re-streamed file holds every cell and loads to the same view.
        assert ResultSet.load(str(partial_path)).to_json() == fresh.to_json()

    def test_resume_runs_only_missing_cells(self, tmp_path, monkeypatch):
        store = str(tmp_path / "store")
        grid = tiny_grid()
        fresh = sweep(grid, base_seed=1, workers=1, store=store)
        ran = []
        import repro.experiments.sweep as sweep_module

        real_run_cell = sweep_module.run_cell
        monkeypatch.setattr(sweep_module, "run_cell",
                            lambda cell: ran.append(cell.index)
                            or real_run_cell(cell))
        resumed = sweep(grid, base_seed=1, workers=1, store=store)
        assert ran == []  # every identity was already stored
        assert resumed.to_json() == fresh.to_json()

    def test_resume_ignores_records_outside_the_grid(self, tmp_path):
        store = str(tmp_path / "store")
        bigger = tiny_grid(loss_rates=(0.0, 0.01, 0.02))
        sweep(bigger, base_seed=1, workers=1, store=store)
        smaller = tiny_grid(loss_rates=(0.0,))
        # The smaller grid enumerates different cell indices (and therefore
        # seeds), so nothing from the bigger run can be reused: identity
        # matching must reject, not mix up, the extra records.
        result = sweep(smaller, base_seed=1, workers=1, store=store)
        assert result.to_json() == sweep(smaller, base_seed=1).to_json()

    def test_resume_reuses_cells_of_a_grid_prefix(self, tmp_path):
        """Extending a grid along its fastest-varying axis keeps earlier cell
        identities aligned, so a resume reuses them and runs only the new
        points."""
        store = str(tmp_path / "store")
        base = tiny_grid(schemes=("cubic",), loss_rates=(0.0, 0.01))
        sweep(base, base_seed=1, workers=1, store=store)
        extended = tiny_grid(schemes=("cubic",), loss_rates=(0.0, 0.01, 0.02))
        result = sweep(extended, base_seed=1, workers=1, store=store)
        assert result.reuse == {"cells": 3, "store_hits": 2, "executed": 1}
        assert result.to_json() == sweep(extended, base_seed=1).to_json()

    def test_resume_from_missing_path_runs_fresh(self, tmp_path):
        """The idempotent-restart pattern: the same ``store=`` call works on
        the very first invocation too, before the directory exists."""
        store = tmp_path / "new-store"
        result = sweep(tiny_grid(schemes=("cubic",), loss_rates=(0.0,)),
                       base_seed=1, store=str(store))
        assert len(result) == 1
        assert store.is_dir()


class TestIdentityKey:
    def test_key_is_canonical_json(self):
        params = {"scheme": "pcc", "index": 0}
        assert cell_identity_key(params) == '{"index": 0, "scheme": "pcc"}'

    def test_key_order_insensitive(self):
        assert cell_identity_key({"a": 1, "b": 2}) == \
            cell_identity_key({"b": 2, "a": 1})


class TestFreshStreamCarriesResumedRecords:
    def test_new_jsonl_target_is_complete_despite_resume(self, tmp_path):
        """Resuming from the store while streaming to a new file must leave
        the new stream complete (loadable without the store)."""
        store = str(tmp_path / "store")
        grid = tiny_grid()
        fresh = sweep(grid, base_seed=1, workers=1, store=store)
        new = tmp_path / "new.jsonl"
        sweep(grid, base_seed=1, workers=1, jsonl_path=str(new), store=store)
        assert ResultSet.load(str(new)).to_json() == fresh.to_json()


class TestCrashTruncatedTail:
    def test_load_drops_a_truncated_final_line(self, tmp_path):
        path = tmp_path / "crashed.jsonl"
        rs = ResultSet(1, [_record(0), _record(1)])
        rs.write_jsonl(str(path))
        full = path.read_text()
        # A kill mid-write leaves a partial last line (no trailing newline).
        path.write_text(full[:-40])
        recovered = ResultSet.load(str(path))
        assert len(recovered) == 1
        assert recovered.cells[0]["cell"]["index"] == 0

    def test_load_rejects_corruption_before_the_tail(self, tmp_path):
        path = tmp_path / "corrupt.jsonl"
        rs = ResultSet(1, [_record(0), _record(1)])
        rs.write_jsonl(str(path))
        lines = path.read_text().splitlines()
        lines[1] = lines[1][:-30]  # damage a *middle* record
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="corrupt record"):
            ResultSet.load(str(path))

    def test_resume_after_a_crash_truncated_stream(self, tmp_path):
        """A store-less run that crashed mid-record is not stranded: load
        the truncated stream, put its records in a store, resume from that,
        get byte-identical output."""
        path = tmp_path / "crashed.jsonl"
        fresh = sweep(tiny_grid(), base_seed=1, workers=1,
                      jsonl_path=str(path))
        full = path.read_text()
        path.write_text(full[: len(full) // 2])
        store = _store_from_jsonl(path, tmp_path / "store")
        resumed = sweep(tiny_grid(), base_seed=1, workers=1,
                        jsonl_path=str(path), store=store)
        assert 0 < resumed.reuse["store_hits"] < 4
        assert resumed.to_json() == fresh.to_json()
        assert ResultSet.load(str(path)).to_json() == fresh.to_json()


class TestSchemeDefaultsInIdentity:
    def test_bundle_defaults_recorded_in_cell_identity(self):
        """Registry kwarg defaults resolve into the identity (like topology
        defaults), so archived sweeps keep their meaning even if a default
        changes later."""
        grid = SweepGrid(schemes=("parallel_tcp",), bandwidths_bps=(5e6,),
                         duration=1.0)
        params = grid.cells(0)[0].params()
        assert params["scheme_kwargs"] == {"bundle_scheme": "cubic",
                                           "bundle_size": 10}

    def test_grid_kwargs_cannot_override_recorded_defaults(self):
        with pytest.raises(ValueError, match="override"):
            SweepGrid(schemes=("parallel_tcp",),
                      controller_kwargs={"bundle_size": 4})


class TestUnreadableFiles:
    def test_load_garbage_file_raises_valueerror_naming_the_path(self, tmp_path):
        path = tmp_path / "garbage.bin"
        path.write_text('{"base_seed": 1, "cells": [{"truncated...')
        with pytest.raises(ValueError) as excinfo:
            ResultSet.load(str(path))
        assert "garbage.bin" in str(excinfo.value)
        assert not isinstance(excinfo.value, json.JSONDecodeError)
