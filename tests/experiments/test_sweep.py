"""Tests for the parallel scenario-sweep subsystem.

The load-bearing property is determinism: the same grid and base seed must
produce byte-identical result JSON regardless of how many worker processes
the sweep fans out across.
"""

import json

import pytest

from repro.experiments.execute import execute_cells
from repro.experiments.store import store_key
from repro.experiments.sweep import (
    SweepCell,
    SweepGrid,
    derive_seed,
    main,
    register_topology,
    run_cell,
    sweep,
    topology_names,
)
from repro.netsim import bdp_bytes

#: A tiny grid that exercises multi-cell fan-out while staying fast: a slow
#: link and short duration keep the packet counts small.
def tiny_grid(**overrides):
    params = dict(
        schemes=("cubic", "pcc"),
        bandwidths_bps=(5e6,),
        rtts=(0.03,),
        loss_rates=(0.0, 0.01),
        duration=3.0,
    )
    params.update(overrides)
    return SweepGrid(**params)


def hand_cell(**overrides):
    """A hand-listed cell, as the report catalog's pinned-seed specs build."""
    params = dict(index=0, scheme="cubic", bandwidth_bps=5e6, rtt=0.03,
                  loss_rate=0.0, buffer_bytes=None, num_flows=2,
                  duration=3.0, seed=1)
    params.update(overrides)
    return SweepCell(**params)


class TestSeedDerivation:
    def test_pinned_values(self):
        """The derivation is a cross-platform contract: changing it silently
        reseeds every persisted sweep, so the exact values are pinned."""
        assert [derive_seed(0, i) for i in range(3)] == [
            4870315401550313391,
            7606563966112757074,
            9080966467317087633,
        ]
        assert derive_seed(7, 0) == 6551058038977729289

    def test_deterministic(self):
        assert derive_seed(42, 17) == derive_seed(42, 17)

    def test_distinct_across_cells_and_bases(self):
        seeds = {derive_seed(base, index)
                 for base in range(20) for index in range(50)}
        assert len(seeds) == 20 * 50

    def test_json_safe_range(self):
        for base in (0, 1, 2**63 - 1):
            for index in (0, 999):
                assert 0 <= derive_seed(base, index) < 2**63


class TestGridEnumeration:
    def test_cell_order_is_cartesian_product(self):
        grid = tiny_grid()
        cells = grid.cells(base_seed=0)
        assert [(c.scheme, c.loss_rate) for c in cells] == [
            ("cubic", 0.0), ("cubic", 0.01), ("pcc", 0.0), ("pcc", 0.01),
        ]
        assert [c.index for c in cells] == [0, 1, 2, 3]
        assert [c.seed for c in cells] == [derive_seed(0, i) for i in range(4)]

    def test_default_buffer_resolves_to_bdp(self):
        cell = tiny_grid().cells(0)[0]
        assert cell.resolved_buffer_bytes() == bdp_bytes(5e6, 0.03)
        assert cell.params()["buffer_bytes"] == bdp_bytes(5e6, 0.03)

    def test_empty_schemes_rejected(self):
        with pytest.raises(ValueError):
            SweepGrid(schemes=())

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError):
            SweepGrid(schemes=("pcc",), duration=0.0)


class TestTopologyRegistry:
    def test_builtin_topologies_registered(self):
        names = topology_names()
        for name in ("single_bottleneck", "parking_lot", "trace_bottleneck",
                     "dumbbell", "random_dynamics"):
            assert name in names

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError):
            register_topology("single_bottleneck", lambda sim, cell: [])

    def test_unknown_topology_rejected_at_grid_construction(self):
        with pytest.raises(ValueError):
            tiny_grid(topology="no-such-topology")

    def test_unknown_topology_kwargs_rejected_at_grid_construction(self):
        with pytest.raises(ValueError, match="bogus"):
            tiny_grid(schemes=("cubic",), loss_rates=(0.0,),
                      topology="parking_lot",
                      topology_kwargs={"num_hops": 2, "bogus": 1})

    def test_invalid_hop_count_rejected_at_grid_construction(self):
        with pytest.raises(ValueError, match="at least one hop"):
            tiny_grid(schemes=("cubic",), loss_rates=(0.0,),
                      topology="parking_lot",
                      topology_kwargs={"num_hops": 0})

    def test_trace_misconfigurations_rejected_at_grid_construction(self):
        with pytest.raises(ValueError, match="repeat_every"):
            tiny_grid(schemes=("cubic",), loss_rates=(0.0,), duration=15.0,
                      topology="trace_bottleneck",
                      topology_kwargs={"trace": "step", "repeat_every": 5.0})
        with pytest.raises(ValueError, match="unknown trace"):
            tiny_grid(schemes=("cubic",), loss_rates=(0.0,),
                      topology="trace_bottleneck",
                      topology_kwargs={"trace": "bogus"})

    def test_parking_lot_rejects_reverse_loss_at_grid_construction(self):
        """parking_lot builds clean ACK hops; a grid asking for reverse loss
        must fail loudly at construction rather than record an un-simulated
        flag (or die mid-sweep inside a worker)."""
        with pytest.raises(ValueError, match="reverse_loss"):
            tiny_grid(schemes=("cubic",), loss_rates=(0.01,),
                      reverse_loss=True, topology="parking_lot")

    def test_parking_lot_rejects_unachievable_rtt(self):
        """An RTT too small for the hop count must error at grid
        construction, not silently clamp to a different RTT than the one
        recorded in the cell identity."""
        with pytest.raises(ValueError, match="too small"):
            tiny_grid(schemes=("cubic",), loss_rates=(0.0,),
                      rtts=(0.0005,), topology="parking_lot",
                      topology_kwargs={"num_hops": 3})

    def test_topology_recorded_in_cell_identity(self):
        grid = tiny_grid(schemes=("cubic",), loss_rates=(0.0,),
                         topology="parking_lot",
                         topology_kwargs={"num_hops": 2})
        cell = grid.cells(0)[0]
        assert cell.params()["topology"] == "parking_lot"
        # Builder defaults are resolved into the identity, so archived JSON
        # fully specifies what was simulated.
        assert cell.params()["topology_kwargs"] == {
            "num_hops": 2, "access_delay": 0.0005,
        }

    def test_hand_built_cell_shares_its_grid_twins_identity(self):
        """A cell records what it simulates however it was built: the
        builder's defaults are resolved into a hand-listed cell's identity
        as they are into a grid's, so the two share one store entry."""
        (twin,) = tiny_grid(schemes=("cubic",), loss_rates=(0.0,),
                            flow_counts=(2,), topology="parking_lot").cells(0)
        cell = hand_cell(topology="parking_lot", seed=twin.seed)
        assert cell.topology_kwargs == {}
        assert cell.params() == twin.params()
        assert cell.params()["topology_kwargs"] == {
            "num_hops": 3, "access_delay": 0.0005,
        }
        assert store_key(cell.params()) == store_key(twin.params())

    def test_builder_defaults_resolved_into_cells(self):
        grid = tiny_grid(schemes=("cubic",), loss_rates=(0.0,),
                         topology="trace_bottleneck")
        cell = grid.cells(0)[0]
        assert cell.params()["topology_kwargs"] == {
            "trace": "step", "repeat_every": None, "trace_seed": 0,
        }

    def test_cellular_trace_identical_across_schemes(self):
        """Cells differing only by scheme must face the identical capacity
        trace (the walk is seeded by trace_seed, not the per-cell seed), so
        scheme comparisons are point-by-point on the same network."""
        from repro.experiments.sweep import _build_trace_bottleneck

        from repro.netsim import Simulator

        grid = trace_grid()  # schemes = (cubic, pcc), trace = cellular
        cells = grid.cells(base_seed=1)
        assert cells[0].seed != cells[1].seed  # sim randomness still differs
        histories = []
        for cell in cells:
            sim = Simulator(seed=cell.seed)
            paths, _ = _build_trace_bottleneck(sim, cell,
                                               **cell.topology_kwargs)
            link = paths[0].forward_links[0]
            series = []
            for step in range(1, 8):
                sim.run(cell.duration * step / 8.0)
                series.append(link.bandwidth_bps)
            histories.append(series)
        assert histories[0] == histories[1]


def parking_lot_grid(**overrides):
    # Two cells so workers=4 really exercises the multiprocessing fan-out.
    params = dict(
        schemes=("cubic", "pcc"),
        bandwidths_bps=(5e6,),
        rtts=(0.03,),
        flow_counts=(3,),  # long flow + one cross flow per hop
        duration=3.0,
        topology="parking_lot",
        topology_kwargs={"num_hops": 2},
    )
    params.update(overrides)
    return SweepGrid(**params)


def trace_grid(**overrides):
    params = dict(
        schemes=("cubic", "pcc"),
        bandwidths_bps=(5e6,),
        rtts=(0.03,),
        duration=4.0,
        topology="trace_bottleneck",
        topology_kwargs={"trace": "cellular"},
    )
    params.update(overrides)
    return SweepGrid(**params)


class TestSweepDeterminism:
    def test_workers_do_not_change_results(self, tmp_path):
        """workers=1 and workers=4 must produce byte-identical JSON files."""
        serial = sweep(tiny_grid(), base_seed=1, workers=1)
        parallel = sweep(tiny_grid(), base_seed=1, workers=4)
        assert serial.to_json() == parallel.to_json()

        serial_path = tmp_path / "serial.json"
        parallel_path = tmp_path / "parallel.json"
        serial.write(str(serial_path))
        parallel.write(str(parallel_path))
        assert serial_path.read_bytes() == parallel_path.read_bytes()

    def test_parking_lot_workers_do_not_change_results(self):
        """The determinism guarantee holds for multi-path topologies too."""
        serial = sweep(parking_lot_grid(), base_seed=1, workers=1)
        parallel = sweep(parking_lot_grid(), base_seed=1, workers=4)
        assert serial.to_json() == parallel.to_json()
        for cell in serial.cells:
            assert cell["cell"]["topology"] == "parking_lot"
            assert len(cell["flows"]) == 3
            # Every path carries traffic: the long flow and both cross flows.
            assert all(flow["goodput_mbps"] > 0.0 for flow in cell["flows"])
            # The long flow (flow 0) crosses both bottlenecks and is
            # squeezed below the single-hop cross flows.
            long_flow, *cross = cell["flows"]
            assert long_flow["goodput_mbps"] < max(
                flow["goodput_mbps"] for flow in cross)

    def test_trace_workers_do_not_change_results(self):
        """The cellular trace is seeded per cell, so worker fan-out cannot
        perturb a trace-driven grid either."""
        serial = sweep(trace_grid(), base_seed=1, workers=1)
        parallel = sweep(trace_grid(), base_seed=1, workers=4)
        assert serial.to_json() == parallel.to_json()
        for cell in serial.cells:
            assert cell["cell"]["topology_kwargs"]["trace"] == "cellular"
            assert cell["flows"][0]["goodput_mbps"] > 0.0

    def test_repeated_runs_identical(self):
        grid = tiny_grid(schemes=("cubic",), loss_rates=(0.01,))
        assert sweep(grid, base_seed=3).to_json() == sweep(grid, base_seed=3).to_json()

    def test_different_base_seed_changes_results(self):
        grid = tiny_grid(schemes=("cubic",), loss_rates=(0.01,))
        a = sweep(grid, base_seed=1)
        b = sweep(grid, base_seed=2)
        assert a.to_json() != b.to_json()

    def test_timing_excluded_from_canonical_json(self):
        result = sweep(tiny_grid(schemes=("cubic",), loss_rates=(0.0,)), base_seed=0)
        canonical = json.loads(result.to_json())
        assert "timing" not in canonical
        assert all("wall_time_s" not in cell for cell in canonical["cells"])
        with_timing = json.loads(result.to_json(include_timing=True))
        assert with_timing["timing"]["wall_time_s"] == result.timings

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            sweep(tiny_grid(), workers=0)


class TestSweepRecords:
    def test_cell_payload_shape(self):
        result = sweep(tiny_grid(schemes=("cubic",), loss_rates=(0.0,)), base_seed=0)
        (cell,) = result.cells
        assert cell["cell"]["scheme"] == "cubic"
        assert cell["engine"]["events_processed"] > 0
        assert cell["engine"]["simulated_seconds"] == 3.0
        assert len(cell["flows"]) == 1
        assert cell["flows"][0]["goodput_mbps"] > 1.0  # link mostly utilized
        assert len(result.timings) == 1 and result.timings[0] > 0.0

    def test_lookup_helpers(self):
        result = sweep(tiny_grid(), base_seed=1)
        assert len(result.find(scheme="pcc")) == 2
        goodput = result.goodput_mbps(scheme="cubic", loss_rate=0.0)
        assert goodput > 1.0
        with pytest.raises(KeyError):
            result.goodput_mbps(scheme="pcc")  # two cells match
        with pytest.raises(KeyError):
            result.goodput_mbps(scheme="no-such-scheme")

    def test_multi_flow_cells_summarize_every_flow(self):
        grid = tiny_grid(schemes=("cubic",), loss_rates=(0.0,),
                         flow_counts=(2,), stagger=0.5)
        result = sweep(grid, base_seed=0)
        (cell,) = result.cells
        assert len(cell["flows"]) == 2
        assert cell["cell"]["num_flows"] == 2

    def test_run_cell_reports_wall_time(self):
        cell = tiny_grid(schemes=("cubic",), loss_rates=(0.0,)).cells(0)[0]
        outcome = run_cell(cell)
        assert outcome["wall_time_s"] > 0.0


class TestCli:
    def test_smoke(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = main([
            "--schemes", "cubic",
            "--bandwidth-mbps", "5",
            "--loss", "0.0", "0.01",
            "--duration", "2",
            "--seed", "1",
            "--workers", "2",
            "--output", str(out),
        ])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["base_seed"] == 1
        assert len(payload["cells"]) == 2
        printed = capsys.readouterr().out
        assert "events/s" in printed
        assert str(out) in printed

    def test_buffer_accepts_bdp_and_kb(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = main([
            "--schemes", "cubic",
            "--bandwidth-mbps", "5",
            "--buffer-kb", "bdp", "30",
            "--duration", "2",
            "--output", str(out),
        ])
        assert code == 0
        cells = json.loads(out.read_text())["cells"]
        assert cells[0]["cell"]["buffer_bytes"] == bdp_bytes(5e6, 0.03)
        assert cells[1]["cell"]["buffer_bytes"] == 30_000.0

    def test_parking_lot_topology(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = main([
            "--schemes", "cubic",
            "--bandwidth-mbps", "5",
            "--topology", "parking_lot",
            "--hops", "2",
            "--flows", "3",
            "--duration", "2",
            "--workers", "2",
            "--output", str(out),
        ])
        assert code == 0
        (cell,) = json.loads(out.read_text())["cells"]
        assert cell["cell"]["topology"] == "parking_lot"
        assert cell["cell"]["topology_kwargs"]["num_hops"] == 2
        assert len(cell["flows"]) == 3
        assert "parking_lot" in capsys.readouterr().out

    def test_parking_lot_defaults_to_one_flow_per_path(self, tmp_path):
        """With no --flows, a parking-lot sweep must cover every hop with
        cross traffic rather than silently running an uncontested chain."""
        out = tmp_path / "sweep.json"
        code = main([
            "--schemes", "cubic",
            "--bandwidth-mbps", "5",
            "--topology", "parking_lot",
            "--hops", "2",
            "--duration", "2",
            "--output", str(out),
        ])
        assert code == 0
        (cell,) = json.loads(out.read_text())["cells"]
        assert cell["cell"]["num_flows"] == 3  # long flow + 2 cross flows

    def test_topology_flags_require_their_topology(self, capsys):
        """--hops / --trace without the matching --topology must error rather
        than run a different experiment than the user asked for."""
        with pytest.raises(SystemExit):
            main(["--schemes", "cubic", "--trace", "cellular"])
        assert "--topology trace_bottleneck" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["--schemes", "cubic", "--hops", "2"])
        assert "--topology parking_lot" in capsys.readouterr().err

    def test_resume_flag_fresh_vs_partial_produce_identical_json(
            self, tmp_path, capsys):
        """A fresh CLI run and a resume over a partial --store must write
        byte-identical canonical JSON (the interrupted-sweep acceptance
        criterion)."""
        def args(*schemes):
            return ["--schemes", *schemes, "--bandwidth-mbps", "5",
                    "--loss", "0.0", "0.01", "--duration", "2", "--seed", "1"]

        fresh_out = tmp_path / "fresh.json"
        assert main([*args("cubic", "pcc"), "--workers", "2",
                     "--output", str(fresh_out)]) == 0
        # Simulate the interruption: a store holding only the cubic half of
        # the grid (cells 0 and 1 of 4).
        store = tmp_path / "store"
        assert main([*args("cubic"), "--store", str(store)]) == 0
        resumed_out = tmp_path / "resumed.json"
        jsonl = tmp_path / "stream.jsonl"
        capsys.readouterr()
        assert main([*args("cubic", "pcc"), "--workers", "2",
                     "--store", str(store), "--jsonl", str(jsonl),
                     "--output", str(resumed_out)]) == 0
        assert "reused 2 cells from the store, executing 2" \
            in capsys.readouterr().err
        assert resumed_out.read_bytes() == fresh_out.read_bytes()
        # The stream written by the resumed run holds the full grid.
        from repro.experiments.results import ResultSet
        resumed = ResultSet.load(str(jsonl))
        assert len(resumed) == 4
        assert resumed.to_json() == ResultSet.load(str(fresh_out)).to_json()

    def test_restartable_invocation_works_before_the_stream_exists(
            self, tmp_path, capsys):
        """One command line with --store is the documented crash-restart
        pattern and must work on the very first run, when neither the store
        nor the stream exists yet."""
        jsonl = tmp_path / "stream.jsonl"
        args = ["--schemes", "cubic", "--bandwidth-mbps", "5",
                "--duration", "1", "--jsonl", str(jsonl),
                "--store", str(tmp_path / "store")]
        assert main(args) == 0  # fresh start: creates store and stream
        assert "executing 1" in capsys.readouterr().err
        assert main(args) == 0  # restart: zero cells run
        assert "executing 0" in capsys.readouterr().err
        from repro.experiments.results import ResultSet
        assert len(ResultSet.load(str(jsonl))) == 1

    def test_trace_topology(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = main([
            "--schemes", "cubic",
            "--bandwidth-mbps", "5",
            "--topology", "trace_bottleneck",
            "--trace", "sawtooth",
            "--duration", "2",
            "--output", str(out),
        ])
        assert code == 0
        (cell,) = json.loads(out.read_text())["cells"]
        assert cell["cell"]["topology"] == "trace_bottleneck"
        assert cell["cell"]["topology_kwargs"]["trace"] == "sawtooth"
        assert cell["flows"][0]["goodput_mbps"] > 0.0


#: Fixed-seed grids whose canonical JSON is committed under ``data/``: the
#: default PCC grid (rate-paced senders, captured before the
#: RateControlPolicy extraction), four CUBIC flows over a lossy link behind
#: droptail and CoDel (windowed senders, ACK loss, AQM drops), and the churn
#: path (a Poisson storm of 30 KB ``web`` flows under PCC and CUBIC and two
#: 8-sender ``incast`` waves: flows that start mid-run, finish, and leave
#: packets and timers behind them; captured while every endpoint was still
#: built before the run and kept to its end).
GOLDEN_GRIDS = {
    "golden_pcc_sweep_seed7.json": (
        SweepGrid(schemes=("pcc",), bandwidths_bps=(5e6, 20e6), rtts=(0.03,),
                  loss_rates=(0.0, 0.01), flow_counts=(1, 2), duration=3.0,
                  stagger=0.5),
    ),
    "golden_cubic_aqm_seed7.json": tuple(
        SweepGrid(schemes=("cubic",), bandwidths_bps=(20e6,), rtts=(0.03,),
                  loss_rates=(0.005,), flow_counts=(4,), duration=2.0,
                  reverse_loss=True, qdisc=qdisc)
        for qdisc in ("droptail", "codel")
    ),
    "golden_churn_seed7.json": (
        SweepGrid(schemes=("pcc", "cubic"), bandwidths_bps=(20e6,),
                  rtts=(0.03,), duration=2.0, workload="web",
                  workload_kwargs={"load": 0.7, "size_kb": 30.0}),
        SweepGrid(schemes=("cubic",), bandwidths_bps=(20e6,), rtts=(0.03,),
                  flow_counts=(8,), duration=2.0, workload="incast",
                  workload_kwargs={"waves": 2, "wave_interval": 0.5,
                                   "size_kb": 30.0}),
    ),
}


class TestGoldenBehaviorPreservation:
    @pytest.mark.parametrize("golden", sorted(GOLDEN_GRIDS))
    def test_default_pcc_grid_matches_pre_refactor_golden_json(self, golden,
                                                               tmp_path):
        """Refactors must change structure, not trajectories: each
        fixed-seed grid reproduces its committed JSON byte for byte, at any
        worker count."""
        import pathlib

        golden_path = pathlib.Path(__file__).parent / "data" / golden
        cells = [cell for grid in GOLDEN_GRIDS[golden]
                 for cell in grid.cells(7)]
        result = execute_cells(cells, run_cell, base_seed=7, workers=2)
        out = tmp_path / "sweep.json"
        result.write(str(out))
        assert out.read_bytes() == golden_path.read_bytes()


class TestUtilitiesAxis:
    def test_utilities_is_the_fastest_varying_axis(self):
        grid = tiny_grid(schemes=("pcc",), loss_rates=(0.0, 0.01),
                         utilities=(None, "latency"))
        cells = grid.cells(0)
        assert [(c.loss_rate, c.utility) for c in cells] == [
            (0.0, None), (0.0, "latency"), (0.01, None), (0.01, "latency"),
        ]

    def test_default_cells_carry_no_extra_identity_keys(self):
        """Plain cells must keep the pre-refactor identity layout so archived
        sweep JSON stays byte-comparable."""
        cell = tiny_grid().cells(0)[0]
        assert "utility" not in cell.params()
        assert "scheme_kwargs" not in cell.params()

    def test_utility_recorded_in_cell_identity(self):
        grid = tiny_grid(schemes=("pcc",), loss_rates=(0.0,),
                         utilities=("loss_resilient",))
        params = grid.cells(0)[0].params()
        assert params["utility"] == "loss_resilient"
        assert params["scheme_kwargs"] == {"utility": "loss_resilient"}

    def test_empty_utilities_rejected(self):
        with pytest.raises(ValueError, match="utilities"):
            tiny_grid(schemes=("pcc",), utilities=())

    def test_unknown_utility_rejected_at_grid_construction(self):
        with pytest.raises(ValueError, match="registered"):
            tiny_grid(schemes=("pcc",), utilities=("no-such-utility",))

    def test_utilities_axis_requires_pcc_schemes(self):
        with pytest.raises(ValueError, match="pcc"):
            tiny_grid(utilities=("latency",))  # grid includes cubic

    def test_utility_axis_changes_results(self):
        base = tiny_grid(schemes=("pcc",), loss_rates=(0.01,), utilities=(None,))
        resilient = tiny_grid(schemes=("pcc",), loss_rates=(0.01,),
                              utilities=("loss_resilient",))
        a = sweep(base, base_seed=5)
        b = sweep(resilient, base_seed=5)
        assert a.cells[0]["flows"] != b.cells[0]["flows"]


class TestAblationSweeps:
    def test_no_rct_workers_do_not_change_results(self):
        """The byte-identical-across-worker-counts guarantee must hold for
        cells carrying controller_kwargs too, and the ablation must reach
        the flows."""
        ablation = {"use_rct": False}
        grid = tiny_grid(schemes=("pcc",), controller_kwargs=ablation)
        serial = sweep(grid, base_seed=1, workers=1)
        parallel = sweep(grid, base_seed=1, workers=4)
        assert serial.to_json() == parallel.to_json()
        for cell in serial.cells:
            assert cell["cell"]["controller_kwargs"] == ablation
        default = sweep(tiny_grid(schemes=("pcc",)), base_seed=1)
        assert [c["flows"] for c in serial.cells] \
            != [c["flows"] for c in default.cells]


class TestUtilityCli:
    def test_utility_flag_builds_the_axis(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = main([
            "--schemes", "pcc",
            "--bandwidth-mbps", "5",
            "--utility", "default", "loss_resilient",
            "--duration", "2",
            "--output", str(out),
        ])
        assert code == 0
        cells = json.loads(out.read_text())["cells"]
        assert len(cells) == 2
        assert "utility" not in cells[0]["cell"]
        assert cells[1]["cell"]["utility"] == "loss_resilient"

    def test_utility_flag_with_tcp_scheme_errors_cleanly(self, capsys):
        with pytest.raises(SystemExit):
            main(["--schemes", "cubic", "--utility", "latency"])
        assert "pcc" in capsys.readouterr().err


class TestControllerKwargsIdentityIntegrity:
    def test_controller_kwargs_cannot_smuggle_utility_qdisc_or_workload(self):
        """What a cell ran with is identity, stated in the field that records
        it — never a second time in controller_kwargs, for a grid or for a
        hand-listed cell."""
        for build in (lambda **kw: tiny_grid(schemes=("pcc",), **kw),
                      lambda **kw: hand_cell(scheme="pcc", **kw)):
            for smuggled in ({"utility": "latency"}, {"qdisc": "codel"},
                             {"workload": "web"}):
                with pytest.raises(ValueError, match="cannot set"):
                    build(controller_kwargs=smuggled)

    def test_controller_kwargs_cannot_override_declared_defaults(self):
        """The scheme's declared kwargs recorded in the identity JSON must be
        what the flows actually receive; an override would make archived
        sweeps lie."""
        for build in (lambda **kw: tiny_grid(schemes=("parallel_tcp",), **kw),
                      lambda **kw: hand_cell(scheme="parallel_tcp", **kw)):
            with pytest.raises(ValueError, match="override"):
                build(controller_kwargs={"bundle_size": 3})

    def test_controller_kwargs_cannot_set_utility_under_a_utilities_axis(self):
        with pytest.raises(ValueError, match="utilities axis"):
            tiny_grid(schemes=("pcc",), utilities=("latency",),
                      controller_kwargs={"utility": "safe"})
        with pytest.raises(ValueError, match="utilities axis"):
            tiny_grid(schemes=("pcc",), utilities=("latency",),
                      controller_kwargs={"utility_function": object()})

    def test_unrelated_controller_kwargs_still_pass(self):
        grid = tiny_grid(schemes=("pcc",),
                         controller_kwargs={"min_packets_per_mi": 10})
        assert grid.cells(0)[0].controller_kwargs == {"min_packets_per_mi": 10}

    def test_controller_kwargs_are_identity_when_set(self, tmp_path):
        """Two grids differing only in controller_kwargs simulate different
        things, so they must not share a store key: the second run over a
        store warmed by the first executes its cell and returns what a cold
        run of the second grid returns.  Default cells record nothing, so
        every archived identity keeps its key."""
        store = str(tmp_path / "store")
        shape = dict(schemes=("pcc",), bandwidths_bps=(20e6,),
                     loss_rates=(0.0,), duration=3.0)
        tuning = {"epsilon_min": 0.05, "epsilon_max": 0.08}
        default = sweep(tiny_grid(**shape), store=store)
        tuned = sweep(tiny_grid(**shape, controller_kwargs=tuning),
                      store=store)
        assert tuned.reuse["store_hits"] == 0 and tuned.reuse["executed"] == 1
        assert "controller_kwargs" not in default.cells[0]["cell"]
        assert tuned.cells[0]["cell"]["controller_kwargs"] == tuning
        assert tuned.cells[0]["flows"] != default.cells[0]["flows"]
        cold = sweep(tiny_grid(**shape, controller_kwargs=tuning))
        assert tuned.to_json() == cold.to_json()

    def test_non_json_controller_kwargs_rejected_at_construction(self):
        with pytest.raises(ValueError, match="JSON"):
            tiny_grid(schemes=("pcc",), controller_kwargs={"hook": object()})
        with pytest.raises(ValueError, match="JSON"):
            hand_cell(controller_kwargs={"hook": object()})


class TestHandListedCellValidation:
    """What a grid rejects at construction a hand-listed cell rejects too —
    in the parent process, never mid-sweep in a worker."""

    def test_per_flow_schemes_are_parsed(self):
        for build in (hand_cell, lambda **kw: tiny_grid(flow_counts=(2,), **kw)):
            with pytest.raises(ValueError, match="nonsense"):
                build(workload_kwargs={"schemes": ["cubic", "nonsense"]})

    def test_per_flow_schemes_need_one_entry_per_flow(self):
        for build in (hand_cell, lambda **kw: tiny_grid(flow_counts=(2,), **kw)):
            with pytest.raises(ValueError, match="one per flow"):
                build(workload_kwargs={"schemes": ["cubic"]})

    def test_utility_applies_only_to_pcc_based_listed_schemes(self):
        listed = {"schemes": ["pcc", "cubic"]}
        with pytest.raises(ValueError, match="only to pcc"):
            hand_cell(scheme="pcc", utility="latency", workload_kwargs=listed)
        with pytest.raises(ValueError, match="only to pcc"):
            tiny_grid(schemes=("pcc",), flow_counts=(2,),
                      utilities=("latency",), workload_kwargs=listed)

    def test_a_hand_listed_cells_identity_cannot_lie(self):
        """Before the rules moved from the grid to the cell, the first cell
        below constructed, simulated the latency utility and recorded
        ``utility: "safe"``; the second died in the worker."""
        with pytest.raises(ValueError, match="cannot set .*utilities axis"):
            hand_cell(scheme="pcc", utility="safe",
                      controller_kwargs={"utility": "latency"})
        with pytest.raises(ValueError, match="utilities axis applies only"):
            hand_cell(scheme="cubic", utility="latency")
        with pytest.raises(ValueError, match="registered"):
            hand_cell(scheme="pcc", utility="no-such-utility")
        with pytest.raises(ValueError, match="known schemes"):
            hand_cell(scheme="cubik")
        # One spelling per simulation, hence one store key: the utility
        # field's.
        cell = hand_cell(scheme="pcc", utility="latency")
        assert cell.params()["scheme_kwargs"] == {"utility": "latency"}

    def test_per_flow_schemes_name_each_flows_scheme(self):
        cell = hand_cell(workload_kwargs={"schemes": ["cubic", "pcc"]})
        record = run_cell(cell)
        assert [flow["scheme"] for flow in record["flows"]] == ["cubic", "pcc"]
        assert record["cell"]["workload_kwargs"] == {"schemes": ["cubic", "pcc"]}

    def test_dumbbell_needs_one_access_delay_per_flow(self):
        kwargs = {"access_delays": [0.001], "bottleneck_delay": 0.01}
        with pytest.raises(ValueError, match="one per flow"):
            hand_cell(topology="dumbbell", topology_kwargs=kwargs)
        with pytest.raises(ValueError, match="one per flow"):
            tiny_grid(flow_counts=(2,), topology="dumbbell",
                      topology_kwargs=kwargs)
        with pytest.raises(ValueError, match="access_delays"):
            hand_cell(topology="dumbbell")

    def test_dumbbell_rejects_reverse_loss(self):
        kwargs = {"access_delays": [0.001, 0.002], "bottleneck_delay": 0.01}
        with pytest.raises(ValueError, match="reverse_loss"):
            hand_cell(topology="dumbbell", topology_kwargs=kwargs,
                      reverse_loss=True)
        with pytest.raises(ValueError, match="reverse_loss"):
            tiny_grid(flow_counts=(2,), topology="dumbbell",
                      topology_kwargs=kwargs, reverse_loss=True)

    def test_dumbbell_gives_each_flow_its_own_base_rtt(self):
        record = run_cell(hand_cell(
            topology="dumbbell",
            topology_kwargs={"access_delays": [0.001, 0.021],
                             "bottleneck_delay": 0.004}))
        near, far = (flow["mean_rtt_ms"] for flow in record["flows"])
        assert near >= 10.0 and far >= 50.0 and far - near > 30.0


class TestDeliveredSeries:
    def test_on_records_one_value_per_second_summing_to_goodput(self):
        cell = hand_cell(scheme="parallel_tcp", num_flows=1, duration=3.5,
                         delivered_series=True)
        record = run_cell(cell)
        assert record["cell"]["delivered_series"] is True
        (flow,) = record["flows"]
        series = flow["delivered_bytes"]
        assert len(series) == 4  # bins [0,1) [1,2) [2,3) [3,3.5]
        assert sum(series) * 8 / cell.duration / 1e6 == flow["goodput_mbps"]
        assert flow["goodput_mbps"] > 1.0

    def test_off_leaves_record_and_identity_unchanged(self):
        record = run_cell(hand_cell())
        assert "delivered_series" not in record["cell"]
        assert all("delivered_bytes" not in flow for flow in record["flows"])
        on = run_cell(hand_cell(delivered_series=True))
        for flow in on["flows"]:
            del flow["delivered_bytes"]
        assert on["flows"] == record["flows"]
        assert on["engine"] == record["engine"]


class TestHelpListsRegistries:
    """`--help` must list the registries dynamically, not hard-coded examples
    that drift when schemes/topologies are registered."""

    @staticmethod
    def _unwrapped_help() -> str:
        """The help text with argparse's line wrapping undone, so names that
        were split across lines (argparse breaks at hyphens) match again."""
        import re
        from repro.experiments.sweep import _build_parser

        return re.sub(r"\n\s*", "", _build_parser().format_help())

    def test_help_lists_every_scheme_spec_and_topology(self):
        from repro.schemes import available_schemes
        from repro.experiments.sweep import topology_names

        help_text = self._unwrapped_help()
        for spec in available_schemes():
            assert spec in help_text, f"--help does not mention {spec}"
        for topology in topology_names():
            assert topology in help_text

    def test_help_lists_utilities(self):
        from repro.core import utility_names

        help_text = self._unwrapped_help()
        for name in utility_names():
            assert name in help_text
