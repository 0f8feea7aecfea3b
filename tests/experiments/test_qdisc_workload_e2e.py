"""Third-party qdisc + workload registrations flow end-to-end.

The acceptance contract for the registries: code outside ``repro`` registers
a queue discipline and a workload generator, and both thread through
``run_flows`` (via ``run_cell``), :class:`SweepGrid` and the sweep CLI
without touching core code — with results byte-identical across worker
counts, and the non-default choices recorded (fully resolved) in every cell
identity.
"""

import json

from repro.experiments.sweep import SweepGrid, main as sweep_main, sweep
from repro.experiments.workload import register_workload
from repro.netsim import DropTailQueue, FlowSpec, register_qdisc

# Import-time registration, exactly as a third-party plugin module would do
# (lint rule RPL002): worker processes inherit it on fork, and pytest only
# imports this module once per session.


def _make_half_buffer(buffer_bytes, ecn_threshold_fraction=0.5):
    """A discipline core code knows nothing about: a drop-tail FIFO that
    ECN-marks above a configurable fraction of the buffer."""
    return DropTailQueue(
        buffer_bytes,
        ecn_threshold_bytes=buffer_bytes * ecn_threshold_fraction)


def _pair_workload(cell, rng, second_start_max=1.0):
    """Two flows: one at t=0 and one at a seeded random start time."""
    return [
        FlowSpec(scheme=cell.scheme, start_time=0.0, path_index=0,
                 label=f"{cell.scheme}-lead"),
        FlowSpec(scheme=cell.scheme,
                 start_time=rng.uniform(0.0, second_start_max),
                 path_index=1, label=f"{cell.scheme}-chaser"),
    ]


register_qdisc("e2e_marking", _make_half_buffer)
register_workload("e2e_pair", _pair_workload)


def _grid(**overrides):
    params = dict(
        schemes=("cubic",),
        bandwidths_bps=(20e6,),
        rtts=(0.03,),
        duration=3.0,
        qdisc="e2e_marking",
        qdisc_kwargs={"ecn_threshold_fraction": 0.25},
        workload="e2e_pair",
    )
    params.update(overrides)
    return SweepGrid(**params)


class TestThirdPartyRegistrationsEndToEnd:
    def test_identity_records_resolved_choices(self):
        result = sweep(_grid(), base_seed=5, workers=1)
        identity = result.cells[0]["cell"]
        assert identity["qdisc"] == "e2e_marking"
        assert identity["qdisc_kwargs"] == {"ecn_threshold_fraction": 0.25}
        assert identity["workload"] == "e2e_pair"
        # Untouched kwargs are recorded *resolved* to the declared default.
        assert identity["workload_kwargs"] == {"second_start_max": 1.0}

    def test_workload_shapes_the_flows(self):
        result = sweep(_grid(), base_seed=5, workers=1)
        flows = result.cells[0]["flows"]
        assert [flow["label"] for flow in flows] == ["cubic-lead",
                                                     "cubic-chaser"]
        assert all(flow["goodput_mbps"] > 0.0 for flow in flows)

    def test_workers_do_not_change_results(self):
        serial = sweep(_grid(), base_seed=5, workers=1)
        parallel = sweep(_grid(), base_seed=5, workers=2)
        assert serial.to_json() == parallel.to_json()

    def test_sweep_cli_accepts_registered_names(self, tmp_path, capsys):
        out = tmp_path / "cli.json"
        code = sweep_main([
            "--schemes", "cubic", "--bandwidth-mbps", "20",
            "--rtt-ms", "30", "--duration", "2",
            "--qdisc", "e2e_marking", "--workload", "e2e_pair",
            "--output", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        identity = payload["cells"][0]["cell"]
        assert identity["qdisc"] == "e2e_marking"
        assert identity["workload"] == "e2e_pair"

    def test_cli_rejects_unknown_names(self, capsys):
        try:
            sweep_main(["--qdisc", "definitely_not_registered"])
        except SystemExit as exc:
            assert exc.code == 2
        else:  # pragma: no cover - argparse always exits
            raise AssertionError("argparse should reject unknown choices")
        assert "definitely_not_registered" in capsys.readouterr().err
