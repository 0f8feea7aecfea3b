"""Unit tests for links, routes and paths."""

import math

import pytest

from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.packet import Packet
from repro.netsim.queues import DropTailQueue
from repro.netsim.route import Path, Route


def make_packet(packet_id=0, size=1500, flow_id=1):
    return Packet(flow_id=flow_id, packet_id=packet_id, data_seq=packet_id,
                  size_bytes=size, sent_time=0.0)


def send_over(sim, links, packets):
    """Send packets over a route built from `links`; return (packet, time) arrivals."""
    arrivals = []
    route = Route(links, lambda p: arrivals.append((p, sim.now)))
    for p in packets:
        route.send(p)
    sim.run_until_idle()
    return arrivals


class TestLinkTiming:
    def test_single_packet_delay_is_serialization_plus_propagation(self):
        sim = Simulator()
        link = Link(sim, bandwidth_bps=12_000, delay_s=0.1)  # 1500B -> 1s serialization
        arrivals = send_over(sim, [link], [make_packet()])
        assert len(arrivals) == 1
        assert arrivals[0][1] == pytest.approx(1.0 + 0.1)

    def test_packet_without_a_route_is_refused_when_serialization_starts(self):
        sim = Simulator()
        link = Link(sim, bandwidth_bps=12_000, delay_s=0.1)
        with pytest.raises(RuntimeError, match="no route attached"):
            link.enqueue(make_packet())
        assert sim.pending_events == 0

    def test_back_to_back_packets_spaced_by_serialization_time(self):
        sim = Simulator()
        link = Link(sim, bandwidth_bps=12_000_000, delay_s=0.01)  # 1ms per 1500B
        arrivals = send_over(sim, [link], [make_packet(i) for i in range(3)])
        times = [t for _, t in arrivals]
        assert times[1] - times[0] == pytest.approx(0.001)
        assert times[2] - times[1] == pytest.approx(0.001)

    def test_multihop_delay_accumulates(self):
        sim = Simulator()
        a = Link(sim, bandwidth_bps=12_000_000, delay_s=0.010)
        b = Link(sim, bandwidth_bps=12_000_000, delay_s=0.020)
        arrivals = send_over(sim, [a, b], [make_packet()])
        assert arrivals[0][1] == pytest.approx(0.001 + 0.010 + 0.001 + 0.020)

    def test_throughput_limited_by_bottleneck(self):
        sim = Simulator()
        fast = Link(sim, bandwidth_bps=100e6, delay_s=0.001)
        slow = Link(sim, bandwidth_bps=10e6, delay_s=0.001,
                    queue=DropTailQueue(10_000_000))
        count = 100
        arrivals = send_over(sim, [fast, slow], [make_packet(i) for i in range(count)])
        assert len(arrivals) == count
        first, last = arrivals[0][1], arrivals[-1][1]
        measured_bps = (count - 1) * 1500 * 8 / (last - first)
        assert measured_bps == pytest.approx(10e6, rel=0.02)


class TestLinkLossAndDrops:
    def test_zero_loss_delivers_everything(self):
        sim = Simulator(seed=5)
        link = Link(sim, bandwidth_bps=100e6, delay_s=0.001,
                    queue=DropTailQueue(10_000_000))
        arrivals = send_over(sim, [link], [make_packet(i) for i in range(500)])
        assert len(arrivals) == 500

    def test_random_loss_rate_statistically_close(self):
        sim = Simulator(seed=11)
        link = Link(sim, bandwidth_bps=1e9, delay_s=0.0, loss_rate=0.2,
                    queue=DropTailQueue(100_000_000))
        n = 5000
        arrivals = send_over(sim, [link], [make_packet(i) for i in range(n)])
        delivered_fraction = len(arrivals) / n
        assert 0.75 <= delivered_fraction <= 0.85
        assert link.stats.packets_randomly_lost == n - len(arrivals)

    def test_queue_overflow_counted_and_reported(self):
        sim = Simulator()
        losses = []
        link = Link(sim, bandwidth_bps=12_000, delay_s=0.0,
                    queue=DropTailQueue(3000))
        link.on_loss = losses.append
        arrivals = send_over(sim, [link], [make_packet(i) for i in range(10)])
        # One packet in service + two queued fit; the rest are dropped.
        assert link.stats.packets_queue_dropped == 7
        assert len(losses) == 7
        assert len(arrivals) == 3

    def test_invalid_parameters_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Link(sim, bandwidth_bps=0, delay_s=0.01)
        with pytest.raises(ValueError):
            Link(sim, bandwidth_bps=1e6, delay_s=-1)
        with pytest.raises(ValueError):
            Link(sim, bandwidth_bps=1e6, delay_s=0.0, loss_rate=1.5)

    @pytest.mark.parametrize("bandwidth_bps, delay_s", [
        (math.nan, 0.01), (math.inf, 0.01), (-math.inf, 0.01),
        (1e6, math.nan), (1e6, math.inf),
    ])
    def test_non_finite_parameters_rejected(self, bandwidth_bps, delay_s):
        """A link pushes its own heap entries at now plus serialization plus
        delay, past the engine's finite-time check, so NaN and infinity are
        refused where they are set, not at the first packet."""
        sim = Simulator()
        match = ("bandwidth_bps must be positive"
                 if not 0 < bandwidth_bps < math.inf
                 else "delay_s must be non-negative")
        with pytest.raises(ValueError, match=match):
            Link(sim, bandwidth_bps=bandwidth_bps, delay_s=delay_s)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_setters_reject_non_finite_values_and_keep_the_old(self, value):
        sim = Simulator()
        link = Link(sim, bandwidth_bps=1e6, delay_s=0.01)
        with pytest.raises(ValueError, match="bandwidth_bps must be positive"):
            link.set_bandwidth(value)
        with pytest.raises(ValueError, match="delay_s must be non-negative"):
            link.set_delay(value)
        assert (link.bandwidth_bps, link.delay_s) == (1e6, 0.01)
        assert send_over(sim, [link], [make_packet(0)])[0][1] == \
            pytest.approx(1500 * 8 / 1e6 + 0.01)


class TestLinkMutation:
    def test_bandwidth_change_affects_subsequent_packets(self):
        sim = Simulator()
        link = Link(sim, bandwidth_bps=12_000, delay_s=0.0)
        arrivals = []
        route = Route([link], lambda p: arrivals.append(sim.now))
        route.send(make_packet(0))
        sim.run_until_idle()
        link.set_bandwidth(1_200_000)  # 100x faster now
        route.send(make_packet(1))
        sim.run_until_idle()
        assert arrivals[0] == pytest.approx(1.0)
        assert arrivals[1] - arrivals[0] == pytest.approx(0.01)

    def test_loss_rate_change(self):
        sim = Simulator(seed=1)
        link = Link(sim, bandwidth_bps=1e9, delay_s=0.0,
                    queue=DropTailQueue(100_000_000))
        link.set_loss_rate(0.99)
        arrivals = send_over(sim, [link], [make_packet(i) for i in range(200)])
        assert len(arrivals) < 30

    def test_utilization_reflects_busy_time(self):
        sim = Simulator()
        link = Link(sim, bandwidth_bps=12_000, delay_s=0.0)
        send_over(sim, [link], [make_packet(0)])
        assert link.stats.utilization(2.0) == pytest.approx(0.5)


class TestPath:
    def test_base_rtt_sums_both_directions(self):
        sim = Simulator()
        fwd = Link(sim, bandwidth_bps=1e6, delay_s=0.015)
        rev = Link(sim, bandwidth_bps=1e6, delay_s=0.025)
        path = Path([fwd], [rev])
        assert path.base_rtt == pytest.approx(0.040)

    def test_bottleneck_bandwidth(self):
        sim = Simulator()
        a = Link(sim, bandwidth_bps=100e6, delay_s=0.001)
        b = Link(sim, bandwidth_bps=10e6, delay_s=0.001)
        path = Path([a, b], [a])
        assert path.bottleneck_bandwidth_bps == 10e6

    def test_bind_creates_routes(self):
        sim = Simulator()
        fwd = Link(sim, bandwidth_bps=1e6, delay_s=0.001)
        rev = Link(sim, bandwidth_bps=1e6, delay_s=0.001)
        path = Path([fwd], [rev])
        path.bind(lambda p: None, lambda p: None)
        assert path.forward_route is not None
        assert path.reverse_route is not None

    def test_route_requires_links(self):
        with pytest.raises(ValueError):
            Route([], lambda p: None)

    def test_hops_name_the_next_link_then_the_destination(self):
        """``hops[i]`` is what a packet leaving link ``i`` is handed to, and
        rebinding the destination rebuilds the table."""
        sim = Simulator()
        a = Link(sim, bandwidth_bps=1e6, delay_s=0.001)
        b = Link(sim, bandwidth_bps=1e6, delay_s=0.002)
        first, second = [], []
        route = Route([a, b, a], first.append)
        assert route.hops == (b.enqueue, a.enqueue, first.append)
        route.destination = second.append
        assert route.hops == (b.enqueue, a.enqueue, second.append)
        assert route.destination == second.append
        packet = make_packet(0)
        route.send(packet)
        sim.run_until_idle()
        assert first == [] and second == [packet] and packet.hop == 3
        assert sim.now == pytest.approx(3 * 1500 * 8 / 1e6 + 0.004)
