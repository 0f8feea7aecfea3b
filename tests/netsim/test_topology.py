"""Unit tests for topology builders, flows and dynamics."""

import pytest

from repro.netsim import (
    SYNTHETIC_TRACES,
    LinkConfig,
    RandomLinkDynamics,
    ScheduledLinkDynamics,
    Simulator,
    TraceLinkDynamics,
    bdp_bytes,
    cellular_trace,
    dumbbell,
    incast,
    incast_burst,
    make_synthetic_trace,
    parking_lot,
    poisson_short_flows,
    sawtooth_trace,
    single_bottleneck,
    step_trace,
)


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

    def test_incast_topology_fan_in(self):
        sim = Simulator()
        topo = incast(sim, num_senders=8, bandwidth_bps=1e9, rtt=0.0004,
                      buffer_bytes=64_000)
        assert len(topo.paths) == 8
        shared = {path.forward_links[-1] for path in topo.paths}
        assert shared == {topo.shared_link}

    def test_link_config_custom_queue_factory(self):
        from repro.netsim import InfiniteQueue
        sim = Simulator()
        config = LinkConfig(bandwidth_bps=1e6, delay_s=0.01,
                            queue_factory=InfiniteQueue)
        link = config.build(sim)
        assert isinstance(link.queue, InfiniteQueue)


class TestParkingLot:
    def make(self, num_hops=3, hop_delay=0.005, access_delay=0.0005):
        sim = Simulator()
        return parking_lot(
            sim, num_hops=num_hops, bandwidth_bps=50e6, hop_delay=hop_delay,
            buffer_bytes=100_000, access_delay=access_delay,
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
        topo = self.make(num_hops=4, hop_delay=0.005, access_delay=0.0005)
        assert topo.long_path.base_rtt == pytest.approx(2 * (0.0005 + 4 * 0.005))
        for cross in topo.cross_paths:
            assert cross.base_rtt == pytest.approx(2 * (0.0005 + 0.005))

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


class TestWorkloadGenerators:
    def test_incast_burst_jitter_bounded(self):
        import random
        flows = incast_burst("cubic", 16, 256_000, jitter=0.001,
                             rng=random.Random(1))
        assert len(flows) == 16
        assert all(0.0 <= f.start_time <= 0.001 for f in flows)
        assert all(f.size_bytes == 256_000 for f in flows)

    def test_poisson_short_flows_load_matches(self):
        import random
        load = 0.5
        duration = 2000.0
        flows = poisson_short_flows("cubic", 100_000, load, 15e6, duration,
                                    rng=random.Random(3))
        offered_bits = len(flows) * 100_000 * 8
        offered_load = offered_bits / (15e6 * duration)
        assert offered_load == pytest.approx(load, rel=0.1)

    def test_poisson_short_flows_invalid_load(self):
        with pytest.raises(ValueError):
            poisson_short_flows("cubic", 100_000, 1.5, 15e6, 10.0)


class TestDynamics:
    def test_random_dynamics_redraws_every_period(self):
        sim = Simulator(seed=9)
        topo = single_bottleneck(sim, 100e6, 0.03, buffer_bytes=100_000)
        dyn = RandomLinkDynamics(sim, topo.forward, period=5.0,
                                 reverse_link=topo.reverse)
        dyn.start()
        sim.run(26.0)
        assert len(dyn.history) == 6  # t = 0, 5, 10, 15, 20, 25
        for _, bw, rtt, loss in dyn.history:
            assert 10e6 <= bw <= 100e6
            assert 0.010 <= rtt <= 0.100
            assert 0.0 <= loss <= 0.01

    def test_optimal_rate_at_lookup(self):
        sim = Simulator(seed=9)
        topo = single_bottleneck(sim, 100e6, 0.03, buffer_bytes=100_000)
        dyn = RandomLinkDynamics(sim, topo.forward, period=5.0)
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
        schedule = [(1.0, 50e6, None, None), (2.0, 30e6, None, None),
                    (2.0, 20e6, None, None)]
        dyn = ScheduledLinkDynamics(sim, topo.forward, schedule)
        dyn.start()
        sim.run(3.0)
        assert dyn.optimal_rate_at(0.5) == 100e6  # before the first entry
        assert dyn.optimal_rate_at(1.0) == 50e6   # exactly at an entry
        assert dyn.optimal_rate_at(2.0) == 20e6   # tie -> last co-timed entry
        assert dyn.optimal_rate_at(99.0) == 20e6  # past the last entry

    def test_mean_optimal_rate_time_weighted(self):
        sim = Simulator(seed=9)
        topo = single_bottleneck(sim, 100e6, 0.03, buffer_bytes=100_000)
        dyn = RandomLinkDynamics(sim, topo.forward, period=5.0)
        dyn.start()
        sim.run(10.0)
        expected = (dyn.history[0][1] + dyn.history[1][1]) / 2.0
        assert dyn.mean_optimal_rate(0.0, 10.0) == pytest.approx(expected)

    def test_scheduled_dynamics_applies_schedule(self):
        sim = Simulator()
        topo = single_bottleneck(sim, 100e6, 0.03, buffer_bytes=100_000)
        schedule = [(1.0, 50e6, None, None), (2.0, None, 0.06, 0.02)]
        dyn = ScheduledLinkDynamics(sim, topo.forward, schedule,
                                    reverse_link=topo.reverse)
        dyn.start()
        sim.run(0.5)
        assert topo.forward.bandwidth_bps == 100e6
        sim.run(1.5)
        assert topo.forward.bandwidth_bps == 50e6
        sim.run(2.5)
        assert topo.forward.delay_s == pytest.approx(0.03)
        assert topo.forward.loss_rate == pytest.approx(0.02)


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

    def test_loss_trace_applies_to_both_directions(self):
        sim = Simulator()
        topo = single_bottleneck(sim, 100e6, 0.03, buffer_bytes=100_000)
        dyn = TraceLinkDynamics(
            sim, topo.forward,
            loss_trace=[(1.0, 0.05)],
            reverse_link=topo.reverse,
        )
        dyn.start()
        sim.run(1.5)
        assert topo.forward.loss_rate == pytest.approx(0.05)
        assert topo.reverse.loss_rate == pytest.approx(0.05)

    def test_repeat_every_replays_the_trace(self):
        sim = Simulator()
        topo = single_bottleneck(sim, 100e6, 0.03, buffer_bytes=100_000)
        dyn = TraceLinkDynamics(
            sim, topo.forward,
            bandwidth_trace=[(0.0, 80e6), (1.0, 20e6)],
            repeat_every=2.0,
        )
        dyn.start()
        sim.run(2.5)  # second cycle's first entry fired at t=2.0
        assert topo.forward.bandwidth_bps == 80e6
        sim.run(3.5)  # second cycle's second entry at t=3.0
        assert topo.forward.bandwidth_bps == 20e6

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
            TraceLinkDynamics(sim, topo.forward)
        with pytest.raises(ValueError):
            TraceLinkDynamics(sim, topo.forward,
                              bandwidth_trace=[(0.0, 1e6)], repeat_every=0.0)

    def test_repeat_period_must_cover_the_trace(self):
        """A repeat period shorter than the trace span would interleave
        replay cycles with the original trace's tail; it must be rejected."""
        sim = Simulator()
        topo = single_bottleneck(sim, 100e6, 0.03, buffer_bytes=100_000)
        with pytest.raises(ValueError, match="repeat_every"):
            TraceLinkDynamics(sim, topo.forward,
                              bandwidth_trace=[(0.0, 80e6), (3.0, 20e6)],
                              repeat_every=2.0)


class TestSyntheticTraces:
    def test_step_trace_toggles(self):
        trace = step_trace(10e6, 40e6, period=1.0, duration=4.0)
        assert trace == [(0.0, 40e6), (1.0, 10e6), (2.0, 40e6), (3.0, 10e6)]

    def test_sawtooth_trace_ramps_and_resets(self):
        trace = sawtooth_trace(10e6, 40e6, period=1.0, duration=2.0, steps=4)
        times = [t for t, _ in trace]
        values = [v for _, v in trace]
        assert times == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75])
        assert values[:4] == pytest.approx([10e6, 20e6, 30e6, 40e6])
        assert values[4] == pytest.approx(10e6)  # reset at the cycle boundary

    def test_cellular_trace_deterministic_and_bounded(self):
        a = cellular_trace(20e6, duration=30.0, seed=7)
        b = cellular_trace(20e6, duration=30.0, seed=7)
        c = cellular_trace(20e6, duration=30.0, seed=8)
        assert a == b
        assert a != c
        assert all(20e6 / 5.0 <= rate <= 2 * 20e6 for _, rate in a)

    def test_make_synthetic_trace_names(self):
        for name in SYNTHETIC_TRACES:
            trace = make_synthetic_trace(name, peak_bps=40e6, duration=16.0)
            assert trace and trace[0][0] == 0.0
            assert all(rate <= 40e6 + 1e-6 for _, rate in trace)
        with pytest.raises(ValueError):
            make_synthetic_trace("no-such-trace", peak_bps=40e6, duration=16.0)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            step_trace(1e6, 2e6, period=0.0, duration=1.0)
        with pytest.raises(ValueError):
            sawtooth_trace(1e6, 2e6, period=1.0, duration=1.0, steps=1)
        with pytest.raises(ValueError):
            cellular_trace(1e6, duration=1.0, spread=1.5)
