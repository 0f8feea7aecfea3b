"""End-to-end tests of PCC running inside the simulator."""

import pytest

from repro.core import (
    ControllerState,
    LatencyUtility,
    LossResilientUtility,
    PCCScheme,
    make_pcc_sender,
)
from repro.core import controller as controller_module
from repro.netsim import FlowStats, Simulator, single_bottleneck


def run_pcc(bandwidth_bps, rtt, buffer_bytes, duration, loss_rate=0.0, seed=1,
            **scheme_kwargs):
    sim = Simulator(seed=seed)
    topo = single_bottleneck(sim, bandwidth_bps, rtt, buffer_bytes=buffer_bytes,
                             loss_rate=loss_rate)
    stats = FlowStats(1)
    sender, receiver, scheme = make_pcc_sender(sim, 1, topo.path, stats,
                                               **scheme_kwargs)
    sender.start()
    sim.run(duration)
    return stats, scheme, topo


class TestPCCBasics:
    def test_fills_clean_link(self):
        stats, scheme, _ = run_pcc(20e6, 0.03, 75_000, duration=20.0)
        assert stats.goodput_bps(20.0) > 0.85 * 20e6

    def test_initial_rate_is_two_mss_per_rtt(self):
        sim = Simulator(seed=1)
        topo = single_bottleneck(sim, 20e6, 0.10, buffer_bytes=75_000)
        stats = FlowStats(1)
        sender, receiver, scheme = make_pcc_sender(sim, 1, topo.path, stats)
        sender.start()
        sim.run(0.05)
        expected = 2 * 1500 * 8 / 0.10
        assert scheme.controller.rate_bps == pytest.approx(expected, rel=0.05)

    def test_leaves_starting_state_eventually(self):
        stats, scheme, _ = run_pcc(20e6, 0.03, 75_000, duration=10.0)
        assert scheme.controller.state is not ControllerState.STARTING

    def test_tracks_bottleneck_rate(self):
        stats, scheme, _ = run_pcc(20e6, 0.03, 75_000, duration=20.0)
        recent = [mi.target_rate_bps for mi in scheme.completed_intervals[-20:]]
        mean_rate = sum(recent) / len(recent)
        assert mean_rate == pytest.approx(20e6, rel=0.25)

    def test_monitor_intervals_have_enough_packets(self):
        stats, scheme, _ = run_pcc(20e6, 0.03, 75_000, duration=10.0)
        steady = scheme.completed_intervals[5:]
        assert steady, "expected completed monitor intervals"
        assert all(mi.packets_sent >= 8 for mi in steady)

    def test_finite_pcc_flow_completes(self):
        sim = Simulator(seed=2)
        topo = single_bottleneck(sim, 20e6, 0.03, buffer_bytes=75_000)
        stats = FlowStats(1)
        sender, receiver, scheme = make_pcc_sender(sim, 1, topo.path, stats,
                                                   total_bytes=2_000_000)
        sender.start()
        sim.run(20.0)
        assert sender.completed
        assert stats.flow_completion_time is not None


class TestPCCRobustness:
    def test_random_loss_does_not_collapse_throughput(self):
        stats, _, _ = run_pcc(50e6, 0.03, 187_500, duration=20.0, loss_rate=0.01)
        assert stats.goodput_bps(20.0) > 0.75 * 50e6

    def test_shallow_buffer_high_utilisation(self):
        stats, _, _ = run_pcc(50e6, 0.03, buffer_bytes=9_000, duration=20.0)
        assert stats.goodput_bps(20.0) > 0.7 * 50e6

    def test_loss_capped_near_five_percent_on_clean_link(self):
        """The safe utility's sigmoid caps steady-state loss around 5%."""
        stats, _, _ = run_pcc(20e6, 0.03, 75_000, duration=30.0)
        assert stats.loss_rate < 0.12

    def test_adapts_to_bandwidth_drop(self):
        sim = Simulator(seed=3)
        topo = single_bottleneck(sim, 50e6, 0.03, buffer_bytes=100_000)
        stats = FlowStats(1)
        sender, receiver, scheme = make_pcc_sender(sim, 1, topo.path, stats)
        sender.start()
        sim.run(15.0)
        topo.forward.set_bandwidth(10e6)
        sim.run(40.0)
        late_rates = [mi.target_rate_bps for mi in scheme.completed_intervals
                      if mi.start_time > 30.0]
        assert late_rates
        assert sum(late_rates) / len(late_rates) < 20e6

    def test_adapts_to_bandwidth_increase(self):
        sim = Simulator(seed=4)
        topo = single_bottleneck(sim, 10e6, 0.03, buffer_bytes=100_000)
        stats = FlowStats(1)
        sender, receiver, scheme = make_pcc_sender(sim, 1, topo.path, stats)
        sender.start()
        sim.run(15.0)
        topo.forward.set_bandwidth(40e6)
        sim.run(60.0)
        series = stats.delivered_bins.bin_values(45.0, 59.0)  # bytes per second
        assert sum(series) * 8 / len(series) > 15e6


class TestPCCUtilityPlugability:
    def test_loss_resilient_utility_survives_extreme_loss(self):
        stats, _, _ = run_pcc(
            20e6, 0.03, 150_000, duration=25.0, loss_rate=0.3,
            utility_function=LossResilientUtility(),
        )
        # Achievable goodput is ~70% of capacity; PCC should get most of it.
        assert stats.goodput_bps(25.0) > 0.45 * 20e6

    def test_safe_utility_stalls_under_extreme_loss(self):
        """With the default (safe) utility, >5% random loss caps throughput —
        exactly the §4.1.4 observation motivating §4.4.2."""
        resilient_stats, _, _ = run_pcc(20e6, 0.03, 150_000, duration=20.0,
                                        loss_rate=0.3,
                                        utility_function=LossResilientUtility())
        safe_stats, _, _ = run_pcc(20e6, 0.03, 150_000, duration=20.0,
                                   loss_rate=0.3)
        assert resilient_stats.goodput_bps(20.0) > 2.0 * safe_stats.goodput_bps(20.0)

    def test_latency_utility_keeps_queue_small(self):
        safe_stats, _, safe_topo = run_pcc(20e6, 0.02, 2_000_000, duration=20.0)
        latency_stats, _, latency_topo = run_pcc(
            20e6, 0.02, 2_000_000, duration=20.0,
            utility_function=LatencyUtility(),
        )
        # With a bufferbloated drop-tail queue, the latency utility must keep
        # mean RTT well below what the throughput-oriented safe utility builds
        # (the safe utility happily fills the 2 MB buffer, ~0.8 s of queue).
        assert latency_stats.mean_rtt < safe_stats.mean_rtt
        assert latency_stats.mean_rtt < 0.150

    def test_rct_ablation_runs(self):
        stats_rct, _, _ = run_pcc(20e6, 0.03, 75_000, duration=15.0, use_rct=True)
        stats_no_rct, _, _ = run_pcc(20e6, 0.03, 75_000, duration=15.0,
                                     use_rct=False)
        assert stats_rct.goodput_bps(15.0) > 0.7 * 20e6
        assert stats_no_rct.goodput_bps(15.0) > 0.7 * 20e6

    def test_epsilon_parameters_forwarded(self):
        scheme = PCCScheme(epsilon_min=0.02, epsilon_max=0.08)
        assert scheme.controller.epsilon_min == 0.02
        assert scheme.controller.epsilon_max == 0.08


class TestPCCSchemeConfiguration:
    """PCCScheme's utility selection, initial rate and rate ceiling."""

    def test_max_rate_caps_the_sending_rate(self, monkeypatch):
        monkeypatch.setattr(controller_module, "MAX_RATE_BPS", 5e6)
        stats, scheme, _ = run_pcc(20e6, 0.03, 75_000, duration=10.0)
        assert all(mi.target_rate_bps <= 5e6
                   for mi in scheme.completed_intervals)
        assert stats.goodput_bps(10.0) < 5.5e6

    def test_utility_selectable_by_name(self):
        scheme = PCCScheme(utility="latency")
        assert isinstance(scheme.utility_function, LatencyUtility)
        scheme = PCCScheme(utility="loss_resilient")
        assert isinstance(scheme.utility_function, LossResilientUtility)

    def test_utility_name_and_instance_conflict_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            PCCScheme(utility="latency", utility_function=LatencyUtility())

    def test_unknown_utility_name_rejected(self):
        with pytest.raises(ValueError, match="latency"):
            PCCScheme(utility="no-such-utility")

    def test_explicit_initial_rate_survives_flow_start(self):
        """A configured initial rate must not be wiped by the 2*MSS/RTT reset
        that applies when none is given."""
        sim = Simulator(seed=1)
        topo = single_bottleneck(sim, 20e6, 0.10, buffer_bytes=75_000)
        sender, _, scheme = make_pcc_sender(sim, 1, topo.path,
                                            initial_rate_bps=5e6)
        sender.start()
        sim.run(0.05)
        assert scheme.controller.rate_bps == pytest.approx(5e6)
