"""Tests for the repro.report layer: determinism, store resume, CLI, catalog.

Two tiny specs keep the packet-level work small enough for the tier-1 suite:
a 2x2 one-second grid (``repro.devtools.rebaseline.TINY_GRID``, whose
rendered report is a behaviour golden) and three hand-listed one-second
cells with a pinned seed.  Tests run them as spec objects, and the CLI tests
see them through the ``tiny_catalog`` fixture, which appends them to the
catalog table for one test.
"""

import importlib.util
import json
import os

import pytest

from repro.devtools.rebaseline import TINY_GRID
from repro.experiments.execute import execute_cells
from repro.experiments.results import ResultSet
from repro.experiments.store import store_key
from repro.experiments.sweep import (
    SweepCell,
    resolve_topology_kwargs,
    run_cell,
    topology_names,
)
from repro.experiments.workload import resolve_workload_kwargs, workload_names
from repro.netsim import qdisc_names, resolve_qdisc_kwargs
from repro.report import (
    Claim,
    ReportSpec,
    ScenarioRun,
    SpecOutcome,
    evaluate_claims,
    get_report_spec,
    list_report_specs,
    render_report,
    render_spec_section,
    report_spec_ids,
    run_report_spec,
)
from repro.core import utility_names
from repro.report import specs
from repro.report.cli import main as report_main
from repro.schemes import available_schemes, get_scheme

_REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", ".."))
_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

_PINNED_LOSSES = (0.0, 0.01, 0.02)

TINY_PINNED = ReportSpec(
    spec_id="tiny_pinned",
    title="Tiny test pinned-cell list",
    paper_section="test",
    run=ScenarioRun(cells_list=tuple(
        SweepCell(index=i, scheme="cubic", bandwidth_bps=5e6, rtt=0.03,
                  loss_rate=loss, buffer_bytes=None, num_flows=1,
                  duration=1.0, seed=7)
        for i, loss in enumerate(_PINNED_LOSSES)
    ), base_seed=7),
    rows=lambda result: [
        {"loss": record["cell"]["loss_rate"],
         "goodput_mbps": record["flows"][0]["goodput_mbps"]}
        for record in result.cells
    ],
    columns=("loss", "goodput_mbps"),
    claims=(
        Claim(
            "goodput-positive",
            "Every pinned cell moves traffic",
            None, (("goodput_mbps", ">", 0),),
            "{loss}: {goodput_mbps:.3f} Mbps",
        ),
    ),
)


@pytest.fixture
def tiny_catalog(monkeypatch):
    """The catalog with the two tiny specs appended, for one test."""
    monkeypatch.setattr(specs, "CATALOG",
                        specs.CATALOG + (TINY_GRID, TINY_PINNED))


def _bench_cells():
    """The cells of the four bench workloads at seed 0, by part: a private
    copy of ``bench/workloads.py`` whose two batch calls hand back the cells
    they were asked to run."""
    module_spec = importlib.util.spec_from_file_location(
        "_bench_workloads", os.path.join(_REPO_ROOT, "bench", "workloads.py"))
    bench = importlib.util.module_from_spec(module_spec)
    module_spec.loader.exec_module(bench)
    bench.sweep = lambda grid, base_seed, **_: grid.cells(base_seed)
    bench.run_report_spec = lambda spec, **_: spec.run.cells()
    return {f"bench:{workload.name}/{part.part_id}": part.run(None, "")
            for workload in bench.WORKLOADS
            for part in workload.parts(0, False)}


class TestCatalog:
    def test_catalog_covers_the_paper_and_names_only_registered_schemes(self):
        """The catalog is the only index of paper artifacts: every
        figure/table id is a spec, and every scheme any cell names — a sweep
        cell's ``scheme`` and per-flow ``schemes`` — resolves against the
        scheme registry."""
        ids = report_spec_ids()
        assert {"fig4_5", "table1", "fig6", "fig7", "fig8", "fig9", "fig10",
                "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
                "fig17", "sec442", "theorems"} <= set(ids)
        assert len(set(ids)) == len(ids)
        for spec in list_report_specs():
            for cell in spec.run.cells():
                for scheme in [cell.scheme,
                               *(cell.workload_kwargs.get("schemes") or ())]:
                    get_scheme(scheme)  # raises when unknown

    def test_unknown_spec_id_lists_valid_ids(self):
        with pytest.raises(ValueError, match="fig7"):
            run_report_spec("no_such_spec")

    def test_every_catalog_spec_enumerates_cells(self):
        for spec in list_report_specs():
            cells = spec.run.cells()
            # The analytical spec alone computes its rows without cells.
            assert cells or spec.spec_id == "theorems", spec.spec_id
            identities = [str(sorted(cell.params().items()))
                          for cell in cells]
            assert len(set(identities)) == len(identities), spec.spec_id

    def test_no_builder_default_and_no_cell_identity_moves(self):
        """What a name alone resolves to is cell identity: every built-in
        qdisc / topology / workload's resolved defaults, and the store key of
        every catalog cell and every bench cell at seed 0, as captured before
        the registries read their defaults from the builders' signatures.
        Whole dicts, so a builder that exposes one option more fails here by
        name."""
        with open(os.path.join(_DATA_DIR, "golden_identities.json")) as handle:
            golden = json.load(handle)
        resolvers = {"qdisc": resolve_qdisc_kwargs,
                     "topology": resolve_topology_kwargs,
                     "workload": resolve_workload_kwargs}
        assert {kind: {name: resolve(name, {})
                       for name in golden["defaults"][kind]}
                for kind, resolve in resolvers.items()} == golden["defaults"]
        batches = {spec.spec_id: spec.run.cells()
                   for spec in list_report_specs()}
        batches.update(_bench_cells())
        assert {batch: [store_key(cell.params()) for cell in batches[batch]]
                for batch in golden["store_keys"]} == golden["store_keys"]

    def test_registered_names_can_only_shrink(self):
        """A name in a table, or a declared option, is one the evidence
        uses: every scheme, utility, qdisc, topology and workload is named by
        a catalog sweep cell, and every option of every qdisc, topology and
        workload is set in some catalog sweep cell's
        ``*_kwargs``, or is allowed here with its reason — and no allowance
        is stale."""
        allowed = {
            ("scheme", "newreno"): "bench endpoints driver",
            ("qdisc", "codel"): "bench tcp_aqm workload",
            ("utility", "safe"): "what a cell runs when its utility is None",
            ("utility", "simple"): "the utility of the derivation in section "
                                   "2.2, unit-tested in tests/core/test_utility.py",
        }
        allowed_options = {
            ("workload", "incast", "wave_interval"): "bench flow_churn",
        }
        names = {(kind, name) for kind, listed in [
            ("scheme", available_schemes()), ("utility", utility_names()),
            ("qdisc", qdisc_names()), ("topology", topology_names()),
            ("workload", workload_names())] for name in listed}
        options = {(kind, name, option) for kind, listed, resolve in [
            ("qdisc", qdisc_names(), resolve_qdisc_kwargs),
            ("topology", topology_names(), resolve_topology_kwargs),
            ("workload", workload_names(), resolve_workload_kwargs)]
            for name in listed for option in resolve(name, {})}
        for spec in list_report_specs():
            for cell in spec.run.cells():
                names -= {
                    ("scheme", cell.scheme), ("utility", cell.utility),
                    *(("scheme", scheme) for scheme in
                      cell.workload_kwargs.get("schemes") or ()),
                    ("qdisc", cell.qdisc),
                    ("qdisc", cell.qdisc_kwargs.get("child")),
                    ("topology", cell.topology),
                    ("workload", cell.workload)}
                options -= {(kind, name, option)
                            for kind, name, kwargs in [
                                ("qdisc", cell.qdisc, cell.qdisc_kwargs),
                                ("topology", cell.topology,
                                 cell.topology_kwargs),
                                ("workload", cell.workload,
                                 cell.workload_kwargs)]
                            for option in kwargs}
        assert names == set(allowed)
        assert options == set(allowed_options)


class TestClaimEvaluation:
    def _spec_with(self, *claims):
        return ReportSpec(
            spec_id="throwaway", title="t", paper_section="t",
            run=ScenarioRun(cells_list=(), base_seed=0),
            rows=lambda result: [], columns=(), claims=tuple(claims),
        )

    def test_pass_fail_deviation_statuses(self):
        spec = self._spec_with(
            Claim("ok", "holds", None, (("v", ">", 0),), "m{v}"),
            Claim("weak", "holds weakly", None, (("v", "==", 1.0, "w"),),
                  "m2", deviation="note"),
            Claim("bad", "does not hold", None, (("v", "<", 0),), "m3"),
            Claim("weak-bad", "deviation that fails is still FAIL", None,
                  (("v", "<=", 0.5, "w"),), "m4", deviation="note"),
        )
        results = evaluate_claims(spec, [{"v": 1, "w": 1}])
        assert [claim.status for claim in results] == \
            ["PASS", "DEVIATION", "FAIL", "FAIL"]
        assert [claim.measured for claim in results] == \
            ["m1", "m2", "m3", "m4"]

    def test_raising_check_is_fail_not_crash(self):
        spec = self._spec_with(
            Claim("boom", "raises", lambda rows: 1 / 0, (), "never"),
        )
        (result,) = evaluate_claims(spec, [])
        assert result.status == "FAIL"
        assert "ZeroDivisionError" in result.measured

    @pytest.mark.parametrize("bound", [
        ("v", ">=", 1.0),
        ("v", ">"),
        ("v", ">", 1.0, "w", 2.0),
        ("v", ">", 1.0, 2.0),
    ])
    def test_malformed_bound_is_refused_at_construction(self, bound):
        with pytest.raises(ValueError, match="bound"):
            Claim("bad-bound", "t", None, (bound,), "m")

    def test_row_pick_matching_no_row_fails_naming_the_key(self):
        spec = self._spec_with(
            Claim("missing", "t", ("loss", 0.5), (("pcc", ">", 0),),
                  "{pcc}"),
        )
        (result,) = evaluate_claims(spec, [{"loss": 0.01, "pcc": 1.0}])
        assert result.status == "FAIL"
        assert "loss=0.5" in result.measured

    def test_row_pick_matching_two_rows_fails_with_the_count(self):
        spec = self._spec_with(
            Claim("twice", "t", ("loss", 0.01), (("pcc", ">", 0),), "{pcc}"),
        )
        (result,) = evaluate_claims(spec, [{"loss": 0.01, "pcc": 1.0},
                                           {"loss": 0.01, "pcc": 2.0}])
        assert result.status == "FAIL"
        assert "2 rows have loss=0.01" in result.measured

    @pytest.mark.parametrize("pick", [
        ("loss",),
        ("loss", 0.01, "pcc"),
        (0.01, "loss"),
        "loss",
    ])
    def test_malformed_pick_is_refused_at_construction(self, pick):
        with pytest.raises(ValueError, match="pick"):
            Claim("bad-pick", "t", pick, (), "m")

    def test_list_pick_needs_every_item_and_joins_their_texts(self):
        spec = self._spec_with(
            Claim("all", "every row", None, (("v", ">", 1.5, "w"),), "{v}/{w}"),
            Claim("some", "every row", None, (("v", ">", 2.5, "w"),),
                  "{v}/{w}"),
        )
        rows = [{"v": 2, "w": 1}, {"v": 9, "w": 3}]
        every, some = evaluate_claims(spec, rows)
        assert (every.status, every.measured) == ("PASS", "2/1; 9/3")
        assert (some.status, some.measured) == ("FAIL", "2/1; 9/3")


def _golden_report_rows():
    with open(os.path.join(_DATA_DIR, "golden_report_rows.json")) as handle:
        return json.load(handle)


def _committed_sections():
    """Each spec's section of the committed REPORT.md, by spec id."""
    with open(os.path.join(_REPO_ROOT, "REPORT.md")) as handle:
        chunks = handle.read().rstrip("\n").split("\n\n## ")[1:]
    return {chunk.split("`")[1]: "## " + chunk for chunk in chunks}


class TestLedgerFromRows:
    """``golden_report_rows.json`` holds every catalog spec's extracted rows
    from a full report run; its tables and claim ledger re-render from them
    without simulating, so a threshold edit is checked in milliseconds."""

    def test_golden_covers_the_catalog(self):
        assert set(_golden_report_rows()) == set(report_spec_ids())

    def test_theorems_compute_their_rows_without_cells(self):
        """The §2.2 theorems are closed-form: the spec executes no cell and
        its rows come straight from the fluid model."""
        outcome = run_report_spec("theorems")
        assert outcome.spec.run.cells() == []
        assert len(outcome.result) == 0
        assert outcome.rows == _golden_report_rows()["theorems"]

    @pytest.mark.parametrize("spec_id", sorted(_golden_report_rows()))
    def test_section_renders_from_rows(self, spec_id):
        spec = get_report_spec(spec_id)
        rows = _golden_report_rows()[spec_id]
        outcome = SpecOutcome(spec=spec, result=ResultSet(base_seed=0),
                              rows=rows, claims=evaluate_claims(spec, rows))
        assert render_spec_section(outcome) \
            == _committed_sections()[spec_id]

    @pytest.mark.parametrize("spec_id", sorted(_golden_report_rows()))
    def test_every_row_has_every_column(self, spec_id):
        columns = get_report_spec(spec_id).columns
        for row in _golden_report_rows()[spec_id]:
            assert set(columns) <= set(row), (spec_id, row)


class TestDeterminism:
    def test_workers_do_not_change_rendered_report(self):
        one = run_report_spec(TINY_GRID, workers=1)
        two = run_report_spec(TINY_GRID, workers=2)
        assert render_report([one]) == render_report([two])
        assert one.result.to_json() == two.result.to_json()

    def test_grid_resume_is_byte_identical(self, tmp_path):
        stream = str(tmp_path / "tiny_grid.jsonl")
        store = str(tmp_path / "store")
        baseline = render_report([run_report_spec(TINY_GRID)])
        # Simulate a crash: a store that is missing the spec's last cell.
        run = TINY_GRID.run
        cells = run.cells()
        execute_cells(cells[:-1], run_cell, run.base_seed, store=store)
        resumed = run_report_spec(TINY_GRID, jsonl_path=stream, store=store)
        assert resumed.result.reuse == {"cells": len(cells),
                                        "store_hits": len(cells) - 1,
                                        "executed": 1}
        assert render_report([resumed]) == baseline
        # The stream is complete and self-contained.
        assert len(ResultSet.load(stream)) == len(cells)


class TestCli:
    def test_unknown_only_id_errors_listing_valid_ids(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            report_main(["--only", "fig99"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unknown report spec id" in err
        assert "fig99" in err
        assert "fig7" in err  # the error names the valid ids

    def test_check_requires_matrix(self, capsys):
        with pytest.raises(SystemExit):
            report_main(["--check", "EXPERIMENTS.md"])
        assert "--check requires --matrix" in capsys.readouterr().err

    def test_cli_runs_tiny_spec_and_writes_report(self, tmp_path, capsys,
                                                  tiny_catalog):
        report = str(tmp_path / "REPORT.md")
        code = report_main(["--only", "tiny_pinned", "--report", report])
        assert code == 0
        out = capsys.readouterr().out
        assert "tiny_pinned: 3 cells" in out
        with open(report) as handle:
            text = handle.read()
        assert "Tiny test pinned-cell list" in text

    def test_store_flag_second_run_executes_zero(self, tmp_path, capsys,
                                                 tiny_catalog):
        """Every spec of one run opens the same ``--store`` directory; run
        again over it, no spec executes a cell and the ledger is the same."""
        store = str(tmp_path / "store")
        first = tmp_path / "first.md"
        second = tmp_path / "second.md"
        args = ["--only", "tiny_grid,tiny_pinned", "--store", store]
        assert report_main([*args, "--report", str(first)]) == 0
        capsys.readouterr()
        assert report_main([*args, "--report", str(second)]) == 0
        err = capsys.readouterr().err
        assert err.count("executing 0") == 2
        assert second.read_bytes() == first.read_bytes()

    def test_list_prints_cells_and_their_simulated_seconds(self, capsys,
                                                           tiny_catalog):
        """``--list`` reads a spec's cost off its cells: how many, and the
        sum of their durations."""
        assert report_main(["--list", "--only", "tiny_grid,tiny_pinned"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].split()[:4] == ["spec", "§", "cells", "sim_s"]
        assert [line.split()[:4] for line in lines[1:]] == [
            ["tiny_grid", "test", "4", "4"],
            ["tiny_pinned", "test", "3", "3"]]

    def test_a_failed_render_leaves_the_existing_report(self, tmp_path,
                                                        monkeypatch,
                                                        tiny_catalog):
        # A row value a format spec rejects used to leave a 0-byte ledger:
        # the destination was opened for writing before the render ran.
        report = tmp_path / "REPORT.md"
        report.write_text("the checked-in ledger\n")

        def broken_render(outcomes):
            raise TypeError("unsupported format string passed to NoneType")

        monkeypatch.setattr("repro.report.cli.render_report", broken_render)
        with pytest.raises(TypeError, match="NoneType"):
            report_main(["--only", "tiny_pinned", "--report", str(report)])
        assert report.read_text() == "the checked-in ledger\n"
        assert os.listdir(tmp_path) == ["REPORT.md"]

    def test_only_without_explicit_report_path_errors(self, capsys,
                                                      tiny_catalog):
        # A partial ledger written to the default path would silently
        # replace the checked-in full REPORT.md.
        with pytest.raises(SystemExit):
            report_main(["--only", "tiny_pinned"])
        assert "--report" in capsys.readouterr().err

    def test_matrix_check_against_experiments_md(self, monkeypatch, capsys):
        monkeypatch.chdir(_REPO_ROOT)
        assert report_main(["--matrix", "--check", "EXPERIMENTS.md"]) == 0, \
            capsys.readouterr()
