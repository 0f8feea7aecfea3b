"""Tests for the repro.report layer: determinism, store resume, CLI, catalog.

The tiny specs registered at module import time (so fork-method workers
inherit them) keep the packet-level work small enough for the tier-1 suite:
a 2x2 one-second grid and a pure-arithmetic scenario runner.
"""

import dataclasses
import importlib.util
import json
import os
import subprocess
import sys

import pytest

from repro.experiments.execute import execute_cells
from repro.experiments.results import ResultSet
from repro.experiments.store import CellStore, store_key
from repro.experiments.sweep import (
    SweepCell,
    SweepGrid,
    resolve_topology_kwargs,
    resolve_workload_kwargs,
    run_cell,
)
from repro.netsim import resolve_qdisc_kwargs
from repro.report import (
    Claim,
    GridRun,
    ReportSpec,
    ScenarioCell,
    ScenarioRun,
    evaluate_claims,
    get_report_spec,
    list_report_specs,
    register_report_spec,
    register_scenario_runner,
    render_report,
    report_spec_ids,
    run_report_spec,
    scenario_runner_names,
)
from repro.report import specs as catalog
from repro.report.cli import main as report_main
from repro.schemes import get_scheme

_REPO_ROOT = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", ".."))
_DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

_TINY_SCHEMES = ("pcc", "cubic")
_TINY_LOSSES = (0.0, 0.01)


def _tiny_grid_rows(result):
    goodput = result.aggregate("goodput_mbps", by=("scheme", "loss_rate"))
    return [
        {"loss": loss,
         **{scheme: goodput[(scheme, loss)] for scheme in _TINY_SCHEMES}}
        for loss in _TINY_LOSSES
    ]


register_report_spec(ReportSpec(
    spec_id="tiny_grid",
    title="Tiny test grid",
    paper_section="test",
    run=GridRun(grids=(SweepGrid(
        schemes=_TINY_SCHEMES,
        bandwidths_bps=(5e6,),
        rtts=(0.03,),
        loss_rates=_TINY_LOSSES,
        duration=1.0,
    ),), base_seed=1),
    rows=_tiny_grid_rows,
    columns=("loss",) + _TINY_SCHEMES,
    claims=(
        Claim(
            "goodput-positive",
            "Every cell moves traffic",
            lambda rows, result: (
                all(row[scheme] > 0 for row in rows
                    for scheme in _TINY_SCHEMES),
                f"min cell goodput "
                f"{min(row[s] for row in rows for s in _TINY_SCHEMES):.3f} "
                f"Mbps"),
        ),
        Claim(
            "weakened-claim",
            "A deliberately weakened claim reports DEVIATION",
            lambda rows, result: (True, "always holds"),
            deviation="EXPERIMENTS.md (test pointer)",
        ),
    ),
    sim_seconds=4.0,
))


def _tiny_scenario_runner(seed, x, scale):
    """Pure-arithmetic runner: deterministic, instant, JSON-friendly."""
    return {"value": (seed * 31 + x) * scale, "x": x}


register_scenario_runner("tiny_scenario_runner", _tiny_scenario_runner)

register_report_spec(ReportSpec(
    spec_id="tiny_scenario",
    title="Tiny test scenario list",
    paper_section="test",
    run=ScenarioRun(cells_list=tuple(
        ScenarioCell(index=i, runner="tiny_scenario_runner", seed=7,
                     kwargs={"x": x, "scale": 2})
        for i, x in enumerate((1, 2, 3))
    ), base_seed=7),
    rows=lambda result: [
        {"x": record["metrics"]["x"], "value": record["metrics"]["value"]}
        for record in result.cells
    ],
    columns=("x", "value"),
    claims=(
        Claim(
            "values-scale",
            "Every value is twice the affine seed transform",
            lambda rows, result: (
                all(row["value"] == (7 * 31 + row["x"]) * 2 for row in rows),
                f"values {[row['value'] for row in rows]}"),
        ),
    ),
    sim_seconds=0.0,
))


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
        cell's ``scheme`` and per-flow ``schemes``, or a scenario cell's
        ``scheme`` kwarg — resolves against the scheme registry."""
        assert {"fig4_5", "table1", "fig6", "fig7", "fig8", "fig9", "fig10",
                "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
                "fig17", "sec442", "theorems"} <= set(report_spec_ids())
        for spec in list_report_specs():
            for cell in spec.run.cells():
                if isinstance(cell, SweepCell):
                    named = [cell.scheme,
                             *(cell.workload_kwargs.get("schemes") or ())]
                else:
                    named = [cell.kwargs["scheme"]] \
                        if "scheme" in cell.kwargs else []
                for scheme in named:
                    get_scheme(scheme)  # raises when unknown

    def test_unknown_spec_id_lists_valid_ids(self):
        with pytest.raises(ValueError, match="fig7"):
            run_report_spec("no_such_spec")

    def test_every_catalog_spec_enumerates_cells(self):
        for spec in list_report_specs():
            cells = spec.run.cells()
            assert cells, spec.spec_id
            identities = [str(sorted(cell.params().items()))
                          for cell in cells]
            assert len(set(identities)) == len(identities), spec.spec_id

    def test_no_builder_default_and_no_cell_identity_moves(self):
        """What a name alone resolves to is cell identity: every built-in
        qdisc / topology / workload's resolved defaults, and the store key of
        every catalog cell and every bench cell at seed 0, as captured before
        the registries read their defaults from the builders' signatures.
        Whole dicts, so a builder that exposes one option more fails here by
        name.  Names the tests themselves register are not in the file."""
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

    def test_scenario_cells_can_only_shrink(self):
        """The second cell type is an escape hatch being closed: exactly
        these specs still hand scenario cells to a registered runner, and the
        catalog registers exactly their runners (this module's own test
        runner aside)."""
        holdouts = {spec.spec_id for spec in list_report_specs()
                    if any(isinstance(cell, ScenarioCell)
                           for cell in spec.run.cells())}
        assert holdouts - {"tiny_scenario"} \
            == {"fig10", "fig15", "sec442", "theorems"}
        assert set(scenario_runner_names()) - {"tiny_scenario_runner"} == {
            "incast", "short_flows", "extreme_loss", "theorem1_equilibrium",
            "theorem2_dynamics"}


    def test_registered_names_can_only_shrink(self):
        """A registered name is one the evidence uses: every built-in
        scheme, utility, qdisc, topology and workload is named by a catalog
        sweep cell, or is allowed here with its reason — and no allowance is
        stale.  A fresh interpreter, so names this suite registers for its
        own use are not counted."""
        allowed = {
            ("scheme", "newreno"): "bench endpoints driver",
            ("qdisc", "codel"): "bench tcp_aqm workload",
            ("workload", "incast"): "bench flow_churn workload",
            ("utility", "safe"): "what a cell runs when its utility is None",
            ("utility", "simple"): "the utility of the derivation in section "
                                   "2.2, unit-tested in tests/core/test_utility.py",
        }
        unused = json.loads(subprocess.run(
            [sys.executable, "-c",
             "import json\n"
             "from repro.core import utility_names\n"
             "from repro.experiments.sweep import (\n"
             "    SweepCell, topology_names, workload_names)\n"
             "from repro.netsim import qdisc_names\n"
             "from repro.report import list_report_specs\n"
             "from repro.schemes import available_schemes\n"
             "names = {(kind, name) for kind, listed in [\n"
             "    ('scheme', available_schemes()), ('utility', utility_names()),\n"
             "    ('qdisc', qdisc_names()), ('topology', topology_names()),\n"
             "    ('workload', workload_names())] for name in listed}\n"
             "for spec in list_report_specs():\n"
             "    for cell in spec.run.cells():\n"
             "        if isinstance(cell, SweepCell):\n"
             "            names -= {\n"
             "                ('scheme', cell.scheme), ('utility', cell.utility),\n"
             "                *(('scheme', scheme) for scheme in\n"
             "                  cell.workload_kwargs.get('schemes') or ()),\n"
             "                ('qdisc', cell.qdisc),\n"
             "                ('qdisc', cell.qdisc_kwargs.get('child')),\n"
             "                ('topology', cell.topology),\n"
             "                ('workload', cell.workload)}\n"
             "print(json.dumps(sorted(names)))"],
            check=True, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": os.path.join(_REPO_ROOT, "src")},
        ).stdout)
        assert {tuple(pair) for pair in unused} == set(allowed)


class TestPinnedCellPort:
    def test_sweep_cells_match_the_scenario_runners_they_replaced(self):
        """The golden file holds what the ``internet_path`` /
        ``interdc_pair`` / ``utility_ablation`` scenario runners measured at
        the last commit that had them (first ``fig4_5`` path, first
        ``table1`` pair, every ``sec44_ablation`` cell; durations capped);
        the pinned-seed sweep cells that replaced them must reproduce every
        number exactly."""
        with open(os.path.join(_DATA_DIR, "golden_pinned_cells.json")) as fh:
            golden = json.load(fh)
        for entry in golden["cells"]:
            cell = get_report_spec(entry["spec"]).run.cells()[entry["index"]]
            assert cell.seed == entry["seed"]
            capped = dataclasses.replace(
                cell, duration=min(cell.duration, golden["max_duration_s"]))
            (flow,) = run_cell(capped)["flows"]
            assert {key: flow[key] for key in entry["metrics"]} \
                == entry["metrics"], (entry["spec"], entry["index"])

    def test_ported_cells_and_rows_match_the_runners_they_replaced(self):
        """The golden file holds what the ``rtt_fairness`` /
        ``dynamic_network`` / ``convergence_stats`` / ``jain_timescales`` /
        ``friendliness`` / ``tradeoff`` / ``aqm_power`` runners returned at
        the last commit that had them, for catalog cells shortened as each
        entry's ``replace`` says.  The sweep cell that replaced each, read
        back from JSON as the store would hand it over, and the per-record
        extraction its spec's ``rows()`` is built on must reproduce every
        number that extraction still computes, exactly."""
        with open(os.path.join(_DATA_DIR, "golden_ported_cells.json")) as fh:
            golden = json.load(fh)
        for entry in golden["cells"]:
            cell = get_report_spec(entry["spec"]).run.cells()[entry["index"]]
            assert isinstance(cell, SweepCell)
            assert cell.seed == entry["seed"]
            record = run_cell(dataclasses.replace(cell, **entry["replace"]))
            extract = getattr(catalog, f"_{entry['spec']}_metrics")
            metrics = extract(json.loads(json.dumps(record)))
            assert metrics and metrics == {
                key: entry["metrics"][key] for key in metrics
            }, (entry["spec"], entry["index"])


class TestClaimEvaluation:
    def _spec_with(self, *claims):
        return ReportSpec(
            spec_id="throwaway", title="t", paper_section="t",
            run=ScenarioRun(cells_list=(), base_seed=0),
            rows=lambda result: [], columns=(), claims=tuple(claims),
            sim_seconds=0.0,
        )

    def test_pass_fail_deviation_statuses(self):
        spec = self._spec_with(
            Claim("ok", "holds", lambda rows, result: (True, "m1")),
            Claim("weak", "holds weakly",
                  lambda rows, result: (True, "m2"), deviation="note"),
            Claim("bad", "does not hold",
                  lambda rows, result: (False, "m3")),
            Claim("weak-bad", "deviation that fails is still FAIL",
                  lambda rows, result: (False, "m4"), deviation="note"),
        )
        results = evaluate_claims(spec, [], ResultSet(base_seed=0))
        assert [claim.status for claim in results] == \
            ["PASS", "DEVIATION", "FAIL", "FAIL"]
        assert [claim.measured for claim in results] == \
            ["m1", "m2", "m3", "m4"]

    def test_raising_check_is_fail_not_crash(self):
        spec = self._spec_with(
            Claim("boom", "raises",
                  lambda rows, result: 1 / 0),
        )
        (result,) = evaluate_claims(spec, [], ResultSet(base_seed=0))
        assert result.status == "FAIL"
        assert "ZeroDivisionError" in result.measured


class TestDeterminism:
    def test_workers_do_not_change_rendered_report(self):
        one = run_report_spec("tiny_grid", workers=1)
        two = run_report_spec("tiny_grid", workers=2)
        assert render_report([one]) == render_report([two])
        assert one.result.to_json() == two.result.to_json()

    def test_scenario_workers_do_not_change_rendered_report(self):
        one = run_report_spec("tiny_scenario", workers=1)
        two = run_report_spec("tiny_scenario", workers=2)
        assert render_report([one]) == render_report([two])

    def test_grid_resume_is_byte_identical(self, tmp_path):
        stream = str(tmp_path / "tiny_grid.jsonl")
        store = str(tmp_path / "store")
        baseline = render_report([run_report_spec("tiny_grid")])
        # Simulate a crash: a store that is missing the spec's last cell.
        run = get_report_spec("tiny_grid").run
        cells = run.cells()
        execute_cells(cells[:-1], run_cell, run.base_seed, store=store)
        resumed = run_report_spec("tiny_grid", jsonl_path=stream, store=store)
        assert resumed.result.reuse == {"cells": len(cells),
                                        "store_hits": len(cells) - 1,
                                        "executed": 1}
        assert render_report([resumed]) == baseline
        # The stream is complete and self-contained.
        assert len(ResultSet.load(stream)) == len(cells)

    def test_scenario_resume_is_byte_identical(self, tmp_path):
        stream = str(tmp_path / "tiny_scenario.jsonl")
        store = str(tmp_path / "store")
        baseline = render_report([run_report_spec("tiny_scenario")])
        run_report_spec("tiny_scenario", jsonl_path=stream)
        # Simulate a crash: drop the last record line, then resume from a
        # store filled with what the stream still holds.
        with open(stream) as handle:
            lines = handle.read().splitlines(keepends=True)
        with open(stream, "w") as handle:
            handle.writelines(lines[:-1])
        prior = ResultSet.load(stream)
        with CellStore(store) as cell_store:
            for record, wall in zip(prior.cells, prior.timings, strict=True):
                cell_store.put(record, wall)
        resumed = run_report_spec("tiny_scenario", jsonl_path=stream,
                                  store=store)
        assert resumed.result.reuse["executed"] == 1
        assert render_report([resumed]) == baseline
        assert len(ResultSet.load(stream)) == 3

    def test_golden_tiny_report(self):
        golden_path = os.path.join(_DATA_DIR, "golden_tiny_report.md")
        with open(golden_path) as handle:
            golden = handle.read()
        rendered = render_report([run_report_spec("tiny_grid")])
        assert rendered == golden, (
            "rendered tiny report deviates from the golden file; if the "
            "renderer changed intentionally, regenerate "
            "tests/experiments/data/golden_tiny_report.md"
        )


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

    def test_cli_runs_tiny_spec_and_writes_report(self, tmp_path, capsys):
        report = str(tmp_path / "REPORT.md")
        jsonl_dir = str(tmp_path / "cells")
        code = report_main(["--only", "tiny_scenario", "--report", report,
                            "--jsonl", jsonl_dir])
        assert code == 0
        out = capsys.readouterr().out
        assert "tiny_scenario: 3 cells" in out
        assert os.path.exists(os.path.join(jsonl_dir,
                                           "tiny_scenario.jsonl"))
        with open(report) as handle:
            text = handle.read()
        assert "Tiny test scenario list" in text

    def test_a_failed_render_leaves_the_existing_report(self, tmp_path,
                                                        monkeypatch):
        # A row value a format spec rejects used to leave a 0-byte ledger:
        # the destination was opened for writing before the render ran.
        report = tmp_path / "REPORT.md"
        report.write_text("the checked-in ledger\n")

        def broken_render(outcomes):
            raise TypeError("unsupported format string passed to NoneType")

        monkeypatch.setattr("repro.report.cli.render_report", broken_render)
        with pytest.raises(TypeError, match="NoneType"):
            report_main(["--only", "tiny_scenario", "--report", str(report)])
        assert report.read_text() == "the checked-in ledger\n"
        assert os.listdir(tmp_path) == ["REPORT.md"]

    def test_only_without_explicit_report_path_errors(self, capsys):
        # A partial ledger written to the default path would silently
        # replace the checked-in full REPORT.md.
        with pytest.raises(SystemExit):
            report_main(["--only", "tiny_scenario"])
        assert "--report" in capsys.readouterr().err

    def test_matrix_check_against_experiments_md(self):
        # A clean interpreter: the tiny specs this module registers must not
        # leak into the checked matrix.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(_REPO_ROOT, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.report", "--matrix", "--check",
             "EXPERIMENTS.md"],
            cwd=_REPO_ROOT, env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr or proc.stdout
