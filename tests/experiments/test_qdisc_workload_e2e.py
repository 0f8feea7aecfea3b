"""A non-default qdisc and workload, with kwargs, flow end-to-end.

The acceptance contract for the qdisc and workload tables: a cell that names
a non-default queue discipline and workload generator threads them through
``run_flows`` (via ``run_cell``), :class:`SweepGrid` and the sweep CLI —
with results byte-identical across worker counts, and the non-default
choices recorded (fully resolved) in every cell identity.
"""

import json

from repro.experiments.sweep import SweepGrid, main as sweep_main, sweep


def _grid(**overrides):
    params = dict(
        schemes=("cubic",),
        bandwidths_bps=(20e6,),
        rtts=(0.03,),
        duration=3.0,
        qdisc="fq",
        qdisc_kwargs={"child": "codel"},
        workload="web",
        workload_kwargs={"load": 0.3},
    )
    params.update(overrides)
    return SweepGrid(**params)


class TestQdiscAndWorkloadEndToEnd:
    def test_identity_records_resolved_choices(self):
        result = sweep(_grid(), base_seed=5, workers=1)
        identity = result.cells[0]["cell"]
        assert identity["qdisc"] == "fq"
        assert identity["qdisc_kwargs"] == {"child": "codel"}
        assert identity["workload"] == "web"
        # Untouched kwargs are recorded *resolved* to the declared default.
        assert identity["workload_kwargs"] == {"load": 0.3, "size_kb": 100.0}

    def test_workload_shapes_the_flows(self):
        result = sweep(_grid(), base_seed=5, workers=1)
        flows = result.cells[0]["flows"]
        assert len(flows) > 1
        assert all(flow["label"].startswith("cubic-web-") for flow in flows)
        assert sum(flow["goodput_mbps"] for flow in flows) > 0.0

    def test_workers_do_not_change_results(self):
        serial = sweep(_grid(), base_seed=5, workers=1)
        parallel = sweep(_grid(), base_seed=5, workers=2)
        assert serial.to_json() == parallel.to_json()

    def test_sweep_cli_output_is_the_same_at_one_and_two_workers(self,
                                                                 tmp_path):
        outputs = []
        for workers in (1, 2):
            out = tmp_path / f"cli-{workers}.json"
            code = sweep_main([
                "--schemes", "cubic", "pcc", "--bandwidth-mbps", "20",
                "--rtt-ms", "30", "--duration", "2",
                "--qdisc", "fq", "--workload", "incast",
                "--workers", str(workers), "--output", str(out),
            ])
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        identity = json.loads(outputs[0])["cells"][0]["cell"]
        assert identity["qdisc"] == "fq"
        assert identity["qdisc_kwargs"] == {"child": "droptail"}
        assert identity["workload"] == "incast"
        assert identity["workload_kwargs"] == {
            "waves": 5, "wave_interval": 1.0, "size_kb": 50.0}

    def test_cli_rejects_unknown_names(self, capsys):
        try:
            sweep_main(["--qdisc", "definitely_not_registered"])
        except SystemExit as exc:
            assert exc.code == 2
        else:  # pragma: no cover - argparse always exits
            raise AssertionError("argparse should reject unknown choices")
        assert "definitely_not_registered" in capsys.readouterr().err
