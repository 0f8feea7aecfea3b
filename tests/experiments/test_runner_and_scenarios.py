"""Tests for the experiment runner and the scenario builders."""

import pytest

from repro.experiments import (
    available_schemes,
    run_flows,
    run_incast,
    sample_paths,
)
from repro.experiments.sweep import SweepCell, run_cell
from repro.netsim import FlowSpec, Simulator, single_bottleneck


def _single_flow(scheme, duration, loss_rate=0.0, buffer_bytes=None,
                 reverse_loss=False):
    """The flow summary of one 100 Mbps / 30 ms single-bottleneck cell."""
    cell = SweepCell(index=0, scheme=scheme, bandwidth_bps=100e6, rtt=0.03,
                     loss_rate=loss_rate, buffer_bytes=buffer_bytes,
                     num_flows=1, duration=duration, seed=1,
                     reverse_loss=reverse_loss)
    (flow,) = run_cell(cell)["flows"]
    return flow


class TestRunner:
    def test_unknown_scheme_rejected(self):
        sim = Simulator()
        topo = single_bottleneck(sim, 10e6, 0.02, buffer_bytes=50_000)
        with pytest.raises(ValueError):
            run_flows(sim, [topo.path], [FlowSpec(scheme="nonsense")], duration=1.0)

    def test_available_schemes_contains_all_paper_protocols(self):
        schemes = available_schemes()
        for name in ["pcc", "cubic", "reno", "illinois", "hybla", "vegas",
                     "westwood", "reno_paced", "sabul", "pcp", "parallel_tcp"]:
            assert name in schemes

    def test_unknown_scheme_error_names_the_known_schemes(self):
        sim = Simulator()
        topo = single_bottleneck(sim, 10e6, 0.02, buffer_bytes=50_000)
        with pytest.raises(ValueError, match="known schemes: .*pcc"):
            run_flows(sim, [topo.path], [FlowSpec(scheme="nonsense")],
                      duration=1.0)

    def test_run_flows_forwards_controller_kwargs(self):
        """An ablation is a flow's controller_kwargs: the no-RCT flow runs."""
        sim = Simulator(seed=4)
        topo = single_bottleneck(sim, 10e6, 0.02, buffer_bytes=50_000)
        spec = FlowSpec(scheme="pcc", controller_kwargs={"use_rct": False})
        result = run_flows(sim, [topo.path], [spec], duration=2.0)
        assert result.flow(0).schemes[0].controller.use_rct is False
        assert result.flow(0).goodput_bps(2.0) > 0

    def test_requires_at_least_one_path(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            run_flows(sim, [], [FlowSpec(scheme="pcc")], duration=1.0)

    def test_two_flows_share_one_bottleneck(self):
        sim = Simulator(seed=1)
        topo = single_bottleneck(sim, 20e6, 0.02, buffer_bytes=75_000)
        specs = [FlowSpec(scheme="cubic", label="a"),
                 FlowSpec(scheme="cubic", label="b")]
        result = run_flows(sim, [topo.path], specs, duration=10.0)
        total = result.total_goodput_bps()
        assert total < 20e6 * 1.05
        assert total > 20e6 * 0.7
        assert result.by_label("a").goodput_bps(10.0) > 1e6
        assert result.by_label("b").goodput_bps(10.0) > 1e6

    def test_parallel_tcp_bundle_expands_to_subflows(self):
        sim = Simulator(seed=2)
        topo = single_bottleneck(sim, 20e6, 0.02, buffer_bytes=75_000)
        spec = FlowSpec(scheme="parallel_tcp",
                        controller_kwargs={"bundle_size": 4})
        result = run_flows(sim, [topo.path], [spec], duration=5.0)
        assert len(result.flow(0).senders) == 4
        assert result.flow(0).goodput_bps(5.0) > 5e6

    def test_summary_rows_structure(self):
        sim = Simulator(seed=3)
        topo = single_bottleneck(sim, 10e6, 0.02, buffer_bytes=50_000)
        result = run_flows(sim, [topo.path],
                           [FlowSpec(scheme="pcc", label="x")], duration=5.0)
        rows = result.summary_rows()
        assert rows[0]["label"] == "x"
        assert rows[0]["goodput_mbps"] > 0

    def test_by_label_missing_raises(self):
        sim = Simulator(seed=3)
        topo = single_bottleneck(sim, 10e6, 0.02, buffer_bytes=50_000)
        result = run_flows(sim, [topo.path], [FlowSpec(scheme="pcc", label="x")],
                           duration=1.0)
        with pytest.raises(KeyError):
            result.by_label("missing")


class TestFlowLifetime:
    """Endpoints are built at a flow's start time and dropped at its last
    ACK; the record (spec and statistics) is what a result keeps."""

    def test_unknown_scheme_fails_before_anything_runs(self):
        sim = Simulator()
        topo = single_bottleneck(sim, 10e6, 0.02, buffer_bytes=50_000)
        specs = [FlowSpec(scheme="cubic"),
                 FlowSpec(scheme="nonsense", start_time=5.0)]
        with pytest.raises(ValueError, match="nonsense"):
            run_flows(sim, [topo.path], specs, duration=1.0)
        assert sim.events_processed == 0 and sim.pending_events == 0

    def test_finished_flow_keeps_its_record_and_drops_its_endpoints(self):
        sim = Simulator(seed=2)
        topo = single_bottleneck(sim, 20e6, 0.02, buffer_bytes=75_000)
        specs = [
            FlowSpec(scheme="pcc", size_bytes=30_000, label="pcc"),
            FlowSpec(scheme="cubic", size_bytes=30_000, label="cubic"),
            FlowSpec(scheme="parallel_tcp", size_bytes=60_000, label="bundle",
                     controller_kwargs={"bundle_size": 3}),
            FlowSpec(scheme="cubic", label="bulk"),
        ]
        result = run_flows(sim, [topo.path], specs, duration=5.0)
        for label, subflows in (("pcc", 1), ("cubic", 1), ("bundle", 3)):
            flow = result.by_label(label)
            assert flow.flow_completion_time is not None
            assert flow.senders == [] and flow.schemes == []
            assert len(flow.stats_list) == subflows
            assert flow.goodput_bps(5.0) > 0
        bulk = result.by_label("bulk")
        assert bulk.flow_completion_time is None
        assert len(bulk.senders) == len(bulk.schemes) == 1
        assert bulk.senders[0].controller is bulk.schemes[0]

    def test_bundle_keeps_its_endpoints_until_the_last_subflow_finishes(self):
        sim = Simulator(seed=2)
        topo = single_bottleneck(sim, 20e6, 0.02, buffer_bytes=75_000)
        spec = FlowSpec(scheme="parallel_tcp", size_bytes=400_000,
                        controller_kwargs={"bundle_size": 4})
        flow = run_flows(sim, [topo.path], [spec], duration=0.01).flow(0)
        partly_done = 0
        while flow.flow_completion_time is None:
            done = sum(s.completion_time is not None for s in flow.stats_list)
            partly_done += 0 < done < 4
            assert len(flow.senders) == len(flow.schemes) == 4
            sim.run(sim.now + 0.002)
        assert partly_done and sim.now < 5.0
        assert flow.senders == [] and flow.schemes == []

    def test_flow_that_starts_after_the_end_reads_as_one_that_sent_nothing(self):
        """A never-built flow reports what an eagerly built, never-begun one
        did: zeros, no FCT, and all-zero bins of the run's bin width."""
        sim = Simulator(seed=2)
        topo = single_bottleneck(sim, 20e6, 0.02, buffer_bytes=75_000)
        specs = [FlowSpec(scheme="cubic", label="on"),
                 FlowSpec(scheme="parallel_tcp", start_time=5.0,
                          size_bytes=90_000, label="late")]
        result = run_flows(sim, [topo.path], specs, duration=1.0, bin_width=0.5)
        late = result.by_label("late")
        assert late.senders == late.schemes == late.stats_list == []
        assert result.summary_rows()[1] == {
            "label": "late", "scheme": "parallel_tcp", "goodput_mbps": 0.0,
            "loss_rate": 0.0, "mean_rtt_ms": 0.0, "fct": None}
        assert late.delivered_bytes(1.0) == [0.0, 0.0, 0.0]
        for value in (late.goodput_bps(1.0), late.throughput_bps(1.0),
                      late.loss_rate, late.mean_rtt):
            assert value == 0.0 and isinstance(value, float)
        with pytest.raises(IndexError):
            late.stats
        assert len(result.by_label("on").delivered_bytes(1.0)) == 3

    def test_bulk_flow_staggered_past_the_duration(self):
        cell = SweepCell(index=0, scheme="cubic", bandwidth_bps=10e6, rtt=0.03,
                         loss_rate=0.0, buffer_bytes=None, num_flows=3,
                         duration=2.0, seed=3, stagger=1.5,
                         delivered_series=True)
        record = run_cell(cell)
        assert record["flows"][2] == {
            "label": "cubic-2", "scheme": "cubic", "goodput_mbps": 0.0,
            "loss_rate": 0.0, "mean_rtt_ms": 0.0, "fct": None,
            "delivered_bytes": [0.0, 0.0, 0.0]}
        # Flow 1 started at 1.5 s and did deliver; the counters are the ones
        # recorded when all three flows were built before the run.
        assert record["flows"][1]["delivered_bytes"] == [0.0, 30000.0, 0.0]
        assert record["engine"] == {"events_processed": 4743,
                                    "pending_events": 30,
                                    "simulated_seconds": 2.0}


class TestScenarios:
    def test_lossy_link_scenario_pcc_beats_cubic(self):
        pcc = _single_flow("pcc", 8.0, loss_rate=0.01, reverse_loss=True)
        cubic = _single_flow("cubic", 8.0, loss_rate=0.01, reverse_loss=True)
        assert pcc["goodput_mbps"] > 2.0 * cubic["goodput_mbps"]

    def test_shallow_buffer_scenario_outcome_fields(self):
        flow = _single_flow("pcc", 6.0, buffer_bytes=9_000)
        assert flow["scheme"] == "pcc"
        assert flow["goodput_mbps"] > 0.0
        assert 0.0 <= flow["loss_rate"] < 1.0

    def test_incast_all_flows_complete(self):
        outcome = run_incast("pcc", 8, 64_000.0)
        assert outcome["completed"] == 8
        assert outcome["barrier_time"] is not None
        assert outcome["goodput_mbps"] > 0

    def test_internet_path_sampler_in_ranges(self):
        paths = sample_paths(30, seed=1)
        assert len(paths) == 30
        for config in paths:
            assert 5e6 <= config.bandwidth_bps <= 200e6
            assert 0.010 <= config.rtt <= 0.400
            assert 0.0 <= config.loss_rate <= 0.01
            assert config.buffer_bytes >= 3_000.0

    def test_internet_path_sampler_deterministic(self):
        a = sample_paths(5, seed=9)
        b = sample_paths(5, seed=9)
        assert [(p.bandwidth_bps, p.rtt) for p in a] == [
            (p.bandwidth_bps, p.rtt) for p in b]
