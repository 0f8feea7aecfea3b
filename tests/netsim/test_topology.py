"""Unit tests for topology builders, flows and dynamics."""

import pytest

from repro.netsim import (
    SYNTHETIC_TRACES,
    LinkConfig,
    RandomLinkDynamics,
    Simulator,
    TraceLinkDynamics,
    bdp_bytes,
    cellular_trace,
    dumbbell,
    incast,
    make_synthetic_trace,
    parking_lot,
    sawtooth_trace,
    single_bottleneck,
    step_trace,
)
from repro.netsim.topology import PARKING_LOT_ACCESS_DELAY


class TestTopologyBuilders:
    def test_bdp_bytes(self):
        assert bdp_bytes(100e6, 0.03) == pytest.approx(375_000.0)

    def test_single_bottleneck_rtt_and_bandwidth(self):
        sim = Simulator()
        topo = single_bottleneck(sim, 42e6, 0.8, buffer_bytes=10_000)
        assert topo.path.base_rtt == pytest.approx(0.8)
        assert topo.path.bottleneck_bandwidth_bps == 42e6

    def test_single_bottleneck_reverse_loss_default_zero(self):
        sim = Simulator()
        topo = single_bottleneck(sim, 10e6, 0.03, buffer_bytes=10_000, loss_rate=0.1)
        assert topo.forward.loss_rate == pytest.approx(0.1)
        assert topo.reverse.loss_rate == 0.0

    def test_single_bottleneck_reverse_loss_override(self):
        sim = Simulator()
        topo = single_bottleneck(sim, 10e6, 0.03, buffer_bytes=10_000,
                                 loss_rate=0.1, reverse_loss_rate=0.05)
        assert topo.reverse.loss_rate == pytest.approx(0.05)

    def test_dumbbell_per_flow_rtt(self):
        sim = Simulator()
        config = LinkConfig(bandwidth_bps=100e6, delay_s=0.005, buffer_bytes=100_000)
        topo = dumbbell(sim, config, access_delays=[0.005, 0.045])
        assert topo.paths[0].base_rtt == pytest.approx(0.020)
        assert topo.paths[1].base_rtt == pytest.approx(0.100)

    def test_dumbbell_flows_share_bottleneck(self):
        sim = Simulator()
        config = LinkConfig(bandwidth_bps=100e6, delay_s=0.005, buffer_bytes=100_000)
        topo = dumbbell(sim, config, access_delays=[0.001, 0.001, 0.001])
        bottlenecks = {path.forward_links[-1] for path in topo.paths}
        assert bottlenecks == {topo.bottleneck_forward}

    def test_dumbbell_access_links_outrun_the_bottleneck(self):
        """Access links run ten times the bottleneck rate with an uncongested
        3 MB buffer, so only the shared bottleneck queues."""
        sim = Simulator()
        config = LinkConfig(bandwidth_bps=20e6, delay_s=0.005, buffer_bytes=50_000)
        topo = dumbbell(sim, config, access_delays=[0.001, 0.002])
        for link in (*topo.access_forward, *topo.access_reverse):
            assert link.bandwidth_bps == 200e6
            assert link.queue.capacity_bytes == 3_000_000.0
        assert topo.bottleneck_forward.queue.capacity_bytes == 50_000
        assert topo.bottleneck_reverse.queue.capacity_bytes == 3_000_000.0

    def test_incast_topology_fan_in(self):
        sim = Simulator()
        topo = incast(sim, num_senders=8, bandwidth_bps=1e9, rtt=0.0004,
                      buffer_bytes=64_000)
        assert len(topo.paths) == 8
        shared = {path.forward_links[-1] for path in topo.paths}
        assert shared == {topo.shared_link}

    def test_link_config_custom_queue_factory(self):
        from repro.netsim import CoDelQueue
        sim = Simulator()
        config = LinkConfig(bandwidth_bps=1e6, delay_s=0.01,
                            queue_factory=lambda: CoDelQueue(64_000))
        link = config.build(sim)
        assert isinstance(link.queue, CoDelQueue)


class TestParkingLot:
    def make(self, num_hops=3, hop_delay=0.005):
        sim = Simulator()
        return parking_lot(
            sim, num_hops=num_hops, bandwidth_bps=50e6, hop_delay=hop_delay,
            buffer_bytes=100_000,
        )

    def test_long_path_crosses_every_hop(self):
        topo = self.make(num_hops=4)
        assert topo.long_path.forward_links[1:] == tuple(topo.hops)
        assert len(topo.paths) == 5  # the long path plus one cross path per hop

    def test_cross_path_shares_exactly_its_hop(self):
        topo = self.make(num_hops=3)
        for i, cross in enumerate(topo.cross_paths):
            shared = set(cross.forward_links) & set(topo.hops)
            assert shared == {topo.hops[i]}

    def test_reverse_chain_is_mirrored(self):
        topo = self.make(num_hops=3)
        assert topo.long_path.reverse_links[:-1] == tuple(reversed(topo.reverse_hops))
        for i, cross in enumerate(topo.cross_paths):
            assert cross.reverse_links[0] is topo.reverse_hops[i]

    def test_rtt_diversity(self):
        topo = self.make(num_hops=4, hop_delay=0.005)  # 0.5 ms access links
        assert topo.long_path.base_rtt == pytest.approx(2 * (0.0005 + 4 * 0.005))
        for cross in topo.cross_paths:
            assert cross.base_rtt == pytest.approx(2 * (0.0005 + 0.005))

    def test_access_links_use_the_shared_access_delay(self):
        """Every access link has the delay the sweep subtracts when it sizes
        hop delays from a target RTT, so a swept RTT is the one built."""
        topo = self.make(num_hops=2)
        assert len(topo.access_forward) == len(topo.access_reverse) == 3
        for link in (*topo.access_forward, *topo.access_reverse):
            assert link.delay_s == PARKING_LOT_ACCESS_DELAY

    def test_loss_applies_to_forward_hops_only(self):
        sim = Simulator()
        topo = parking_lot(sim, num_hops=2, bandwidth_bps=10e6, hop_delay=0.005,
                           buffer_bytes=50_000, loss_rate=0.02)
        assert all(hop.loss_rate == pytest.approx(0.02) for hop in topo.hops)
        assert all(rev.loss_rate == 0.0 for rev in topo.reverse_hops)

    def test_rejects_zero_hops(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            parking_lot(sim, num_hops=0, bandwidth_bps=10e6, hop_delay=0.005,
                        buffer_bytes=50_000)


class TestDynamics:
    def test_random_dynamics_redraws_every_period(self):
        sim = Simulator(seed=9)
        topo = single_bottleneck(sim, 100e6, 0.03, buffer_bytes=100_000)
        dyn = RandomLinkDynamics(sim, topo.forward, reverse_link=topo.reverse)
        dyn.start()
        sim.run(26.0)
        assert len(dyn.history) == 6  # t = 0, 5, 10, 15, 20, 25
        for _, bw, rtt, loss in dyn.history:
            assert 10e6 <= bw <= 100e6
            assert 0.010 <= rtt <= 0.100
            assert 0.0 <= loss <= 0.01

    def test_random_dynamics_applies_every_draw(self):
        """Each draw sets the forward bandwidth, delay and loss and the
        reverse delay; the reverse link's rate and loss stay as built."""
        sim = Simulator(seed=4)
        topo = single_bottleneck(sim, 100e6, 0.03, buffer_bytes=100_000)
        dyn = RandomLinkDynamics(sim, topo.forward, reverse_link=topo.reverse)
        dyn.start()
        sim.run(7.0)
        _, bandwidth, rtt, loss = dyn.history[-1]
        assert topo.forward.bandwidth_bps == bandwidth
        assert topo.forward.delay_s == topo.reverse.delay_s == rtt / 2.0
        assert topo.forward.loss_rate == loss
        assert topo.reverse.bandwidth_bps == 100e6
        assert topo.reverse.loss_rate == 0.0

    def test_optimal_rate_at_lookup(self):
        sim = Simulator(seed=9)
        topo = single_bottleneck(sim, 100e6, 0.03, buffer_bytes=100_000)
        dyn = RandomLinkDynamics(sim, topo.forward)
        dyn.start()
        sim.run(12.0)
        assert dyn.optimal_rate_at(2.0) == dyn.history[0][1]
        assert dyn.optimal_rate_at(7.0) == dyn.history[1][1]

    def test_optimal_rate_at_boundaries(self):
        """The bisected lookup keeps the linear scan's semantics: before any
        entry the configured rate is in force, an exact entry time reports
        that entry, and a tie resolves to the last co-timed entry."""
        sim = Simulator()
        topo = single_bottleneck(sim, 100e6, 0.03, buffer_bytes=100_000)
        dyn = TraceLinkDynamics(
            sim, topo.forward,
            bandwidth_trace=[(1.0, 50e6), (2.0, 30e6), (2.0, 20e6)])
        dyn.start()
        sim.run(3.0)
        assert dyn.optimal_rate_at(0.5) == 100e6  # before the first entry
        assert dyn.optimal_rate_at(1.0) == 50e6   # exactly at an entry
        assert dyn.optimal_rate_at(2.0) == 20e6   # tie -> last co-timed entry
        assert dyn.optimal_rate_at(99.0) == 20e6  # past the last entry

    def test_mean_optimal_rate_time_weighted(self):
        sim = Simulator(seed=9)
        topo = single_bottleneck(sim, 100e6, 0.03, buffer_bytes=100_000)
        dyn = RandomLinkDynamics(sim, topo.forward)
        dyn.start()
        sim.run(10.0)
        expected = (dyn.history[0][1] + dyn.history[1][1]) / 2.0
        assert dyn.mean_optimal_rate(0.0, 10.0) == pytest.approx(expected)


class TestTraceDynamics:
    def test_bandwidth_trace_applies_piecewise(self):
        sim = Simulator()
        topo = single_bottleneck(sim, 100e6, 0.03, buffer_bytes=100_000)
        dyn = TraceLinkDynamics(
            sim, topo.forward,
            bandwidth_trace=[(0.0, 80e6), (1.0, 20e6), (2.0, 60e6)],
        )
        dyn.start()
        sim.run(0.5)
        assert topo.forward.bandwidth_bps == 80e6
        sim.run(1.5)
        assert topo.forward.bandwidth_bps == 20e6
        sim.run(2.5)
        assert topo.forward.bandwidth_bps == 60e6
        assert [h[0] for h in dyn.history] == [0.0, 1.0, 2.0]

    def test_last_entry_holds_past_the_trace_end(self):
        """A trace plays once: its last value stays in force to the end of
        the run and nothing is applied after it."""
        sim = Simulator()
        topo = single_bottleneck(sim, 100e6, 0.03, buffer_bytes=100_000)
        dyn = TraceLinkDynamics(
            sim, topo.forward,
            bandwidth_trace=[(0.0, 80e6), (1.0, 20e6)],
        )
        dyn.start()
        sim.run(5.0)
        assert topo.forward.bandwidth_bps == 20e6
        assert [h[0] for h in dyn.history] == [0.0, 1.0]
        assert dyn.optimal_rate_at(4.5) == 20e6

    def test_trace_changes_only_the_forward_bandwidth(self):
        """A bandwidth trace leaves the link's delay and loss, and the whole
        reverse link, as the topology built them."""
        sim = Simulator()
        topo = single_bottleneck(sim, 100e6, 0.03, buffer_bytes=100_000,
                                 loss_rate=0.01)
        dyn = TraceLinkDynamics(sim, topo.forward,
                                bandwidth_trace=[(0.0, 80e6), (1.0, 20e6)])
        dyn.start()
        sim.run(1.5)
        assert topo.forward.bandwidth_bps == 20e6
        assert (topo.forward.delay_s, topo.forward.loss_rate) == (0.015, 0.01)
        assert (topo.reverse.bandwidth_bps, topo.reverse.delay_s,
                topo.reverse.loss_rate) == (100e6, 0.015, 0.0)
        assert dyn.history[-1] == (1.0, 20e6, 0.03, 0.01)

    def test_optimal_rate_helpers(self):
        sim = Simulator()
        topo = single_bottleneck(sim, 100e6, 0.03, buffer_bytes=100_000)
        dyn = TraceLinkDynamics(
            sim, topo.forward, bandwidth_trace=[(0.0, 80e6), (1.0, 20e6)],
        )
        dyn.start()
        sim.run(2.0)
        assert dyn.optimal_rate_at(0.5) == 80e6
        assert dyn.optimal_rate_at(1.5) == 20e6
        assert dyn.mean_optimal_rate(0.0, 2.0) == pytest.approx(50e6)

    def test_optimal_rate_before_first_entry_is_link_rate(self):
        """A trace whose first entry fires late must report the link's
        configured bandwidth — not the not-yet-applied first entry — for
        times before it, in both the point and mean helpers."""
        sim = Simulator()
        topo = single_bottleneck(sim, 100e6, 0.03, buffer_bytes=100_000)
        dyn = TraceLinkDynamics(sim, topo.forward,
                                bandwidth_trace=[(3.0, 10e6)])
        dyn.start()
        sim.run(6.0)
        assert dyn.optimal_rate_at(2.0) == 100e6
        assert dyn.optimal_rate_at(4.0) == 10e6
        assert dyn.mean_optimal_rate(0.0, 6.0) == pytest.approx(55e6)

    def test_empty_trace_rejected(self):
        sim = Simulator()
        topo = single_bottleneck(sim, 100e6, 0.03, buffer_bytes=100_000)
        with pytest.raises(ValueError):
            TraceLinkDynamics(sim, topo.forward, bandwidth_trace=[])


class TestSyntheticTraces:
    def test_step_trace_toggles(self):
        trace = step_trace(10e6, 40e6, period=1.0, duration=4.0)
        assert trace == [(0.0, 40e6), (1.0, 10e6), (2.0, 40e6), (3.0, 10e6)]

    def test_step_trace_toggles_eight_times_at_any_duration(self):
        """Entry ``k`` is at ``k * duration / 8``.  A running sum of periods
        fell short of the duration at these lengths, and the ninth entry it
        added (at t = 1.0999999999999999 for 1.1 s) still fired in the run."""
        for duration in (0.1, 1.1, 2.9):
            trace = make_synthetic_trace("step", peak_bps=40e6, duration=duration)
            assert len(trace) == 8, duration
            assert trace[-1][0] < duration

    def test_sawtooth_trace_ramps_and_resets(self):
        trace = sawtooth_trace(10e6, 38e6, period=1.0, duration=2.0)
        times = [t for t, _ in trace]
        values = [v for _, v in trace]
        assert times == pytest.approx([i / 8 for i in range(16)])
        assert values[:8] == pytest.approx([10e6 + 4e6 * i for i in range(8)])
        assert values[8] == pytest.approx(10e6)  # reset at the cycle boundary

    def test_cellular_trace_deterministic_and_bounded(self):
        a = cellular_trace(20e6, duration=30.0)
        assert a == cellular_trace(20e6, duration=30.0)
        assert [t for t, _ in a] == [0.5 * k for k in range(60)]
        assert len({rate for _, rate in a}) > 30    # it walks
        assert all(20e6 / 5.0 <= rate <= 2 * 20e6 for _, rate in a)

    def test_make_synthetic_trace_names(self):
        for name in SYNTHETIC_TRACES:
            trace = make_synthetic_trace(name, peak_bps=40e6, duration=16.0)
            assert trace and trace[0][0] == 0.0
            assert all(rate <= 40e6 + 1e-6 for _, rate in trace)
        with pytest.raises(ValueError):
            make_synthetic_trace("no-such-trace", peak_bps=40e6, duration=16.0)

    def test_cellular_trace_is_the_default_seed_walk(self):
        """The bundled ``"cellular"`` trace is :func:`cellular_trace` around
        half the peak, the same on every call."""
        trace = make_synthetic_trace("cellular", peak_bps=40e6, duration=16.0)
        assert trace == cellular_trace(20e6, duration=16.0)
        assert trace == make_synthetic_trace("cellular", peak_bps=40e6,
                                             duration=16.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            step_trace(1e6, 2e6, period=0.0, duration=1.0)
        with pytest.raises(ValueError):
            sawtooth_trace(1e6, 2e6, period=1.0, duration=0.0)
        with pytest.raises(ValueError):
            cellular_trace(1e6, duration=0.0)
