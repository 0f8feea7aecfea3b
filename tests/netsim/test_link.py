"""Unit tests for links, routes and paths."""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.netsim.engine import Simulator
from repro.netsim.link import Link
from repro.netsim.packet import Packet
from repro.netsim.queues import (
    CoDelQueue,
    DropTailQueue,
    FairQueue,
    make_qdisc,
    qdisc_names,
)
from repro.netsim.route import Path, Route


def make_packet(packet_id=0, size=1500, flow_id=1):
    return Packet(flow_id=flow_id, packet_id=packet_id, data_seq=packet_id,
                  size_bytes=size, sent_time=0.0)


class PlainDropTailQueue(DropTailQueue):
    """Behaves as ``DropTailQueue``, but is not exactly that type, so a link
    drives it through its ``enqueue`` / ``dequeue`` (the generic path)."""


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
        assert link.packets_randomly_lost == n - len(arrivals)
        assert link.queue.stats.dropped == 0

    @pytest.mark.parametrize("queue_type", [DropTailQueue, PlainDropTailQueue])
    def test_queue_overflow_counted_once_by_the_queue(self, queue_type):
        sim = Simulator()
        link = Link(sim, bandwidth_bps=12_000, delay_s=0.0,
                    queue=queue_type(3000))
        arrivals = send_over(sim, [link], [make_packet(i) for i in range(10)])
        # One packet in service + two queued fit; the rest are dropped.
        stats = link.queue.stats
        assert (stats.enqueued, stats.dequeued, stats.dropped) == (3, 3, 7)
        assert link.packets_randomly_lost == 0
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


#: (gap before the event in s, what happens, its value): a packet of that
#: size, or a new bandwidth (bps) or delay (s) for the link.
LINK_TRACES = st.lists(
    st.tuples(
        st.sampled_from((0.0, 0.0002, 0.001, 0.004, 0.02)),
        st.one_of(
            st.tuples(st.just("packet"), st.sampled_from((40, 200, 1500, 9000))),
            st.tuples(st.just("bandwidth"), st.sampled_from((1e6, 12e6, 100e6))),
            st.tuples(st.just("delay"), st.sampled_from((0.0, 0.001, 0.02))),
        ),
    ),
    min_size=1, max_size=150,
)


#: Every discipline in the table, plus ``fq`` over each non-composed child.
QDISCS = [(name, {}) for name in qdisc_names()] + [
    ("fq", {"child": name}) for name in qdisc_names()
    if not isinstance(make_qdisc(name, 15_000), FairQueue)]

#: (gap before the arrival in s, flow, packet size).
ARRIVALS = st.lists(
    st.tuples(st.sampled_from((0.0, 0.0002, 0.001, 0.004, 0.02)),
              st.integers(min_value=1, max_value=3),
              st.sampled_from((40, 200, 1500, 9000))),
    min_size=1, max_size=200,
)


class TestEachPacketCountedOnce:
    """Per-link conservation from the counters alone: every packet offered
    to a link is dequeued, dropped by the queue or resident, and every
    dequeued packet is delivered or lost in transit."""

    @pytest.mark.parametrize("name, kwargs", QDISCS,
                             ids=[name + "".join(f"/{v}" for v in kwargs.values())
                                  for name, kwargs in QDISCS])
    @given(arrivals=ARRIVALS, loss_rate=st.sampled_from((0.0, 0.1)),
           bandwidth_bps=st.sampled_from((1e6, 12e6)),
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=30, deadline=None)
    # A standing queue for far longer than CoDel's interval: head drops.
    @example(arrivals=[(0.005, 1 + i % 2, 1500) for i in range(200)],
             loss_rate=0.0, bandwidth_bps=1e6, seed=0)
    def test_offered_is_dequeued_dropped_or_resident(
            self, name, kwargs, arrivals, loss_rate, bandwidth_bps, seed):
        sim = Simulator(seed=seed)
        queue = make_qdisc(name, 15_000, **kwargs)
        link = Link(sim, bandwidth_bps, 0.002, queue=queue, loss_rate=loss_rate)
        delivered = []
        route = Route([link], delivered.append)
        offered = []

        def offer(packet):
            offered.append(packet)
            route.send(packet)

        at = 0.0
        for packet_id, (gap, flow_id, size) in enumerate(arrivals):
            at += gap
            sim.schedule_at(at, offer, Packet(flow_id, packet_id, packet_id, size, at))
        stats = queue.stats
        while True:
            sim.run(sim.now + 0.003)
            assert len(offered) == (stats.dequeued + stats.dropped
                                    + queue.packets_queued)
            if not sim.pending_events:
                break
        assert queue.packets_queued == 0
        assert stats.dequeued == len(delivered) + link.packets_randomly_lost


class TestDropTailPath:
    """A link whose queue is exactly ``DropTailQueue`` admits, serves and
    releases in its own frames; it must match the generic path bit for
    bit."""

    def test_the_path_is_chosen_from_the_exact_queue_type(self):
        sim = Simulator()
        for queue, generic in ((None, False), (DropTailQueue(3000), False),
                               (PlainDropTailQueue(3000), True),
                               (CoDelQueue(3000), True)):
            link = Link(sim, 1e6, 0.0, queue=queue)
            assert isinstance(link, Link)
            assert (type(link).enqueue is Link.enqueue) == generic
            assert (type(link)._serve_next is Link._serve_next) == generic

    @staticmethod
    def run(queue, trace, loss_rate, seed):
        sim = Simulator(seed=seed)
        link = Link(sim, 12e6, 0.002, queue=queue, loss_rate=loss_rate)
        delivered = []
        route = Route([link], lambda packet: delivered.append(
            (packet.packet_id, sim.now, packet.enqueue_time)))
        sent = []
        at = 0.0
        for packet_id, (gap, (kind, value)) in enumerate(trace):
            at += gap
            if kind == "packet":
                sent.append(packet_id)
                sim.schedule_at(at, route.send,
                                Packet(1, packet_id, packet_id, value, at))
            elif kind == "bandwidth":
                sim.schedule_at(at, link.set_bandwidth, value)
            else:
                sim.schedule_at(at, link.set_delay, value)
        sim.run_until_idle()
        queue_stats = queue.stats
        not_delivered = sorted(set(sent) - {packet_id for packet_id, *_ in delivered})
        return (delivered, not_delivered, link.packets_randomly_lost,
                tuple(getattr(queue_stats, name) for name in queue_stats.__slots__),
                queue.bytes_queued, queue.packets_queued,
                sim.events_processed, sim.pending_events, sim.now)

    @given(trace=LINK_TRACES,
           capacity=st.sampled_from((1000, 3000, 20_000, math.inf)),
           loss_rate=st.sampled_from((0.0, 0.1, 0.5)),
           seed=st.integers(min_value=0, max_value=2**16))
    @settings(max_examples=150, deadline=None)
    def test_fifo_path_equals_the_generic_path(self, trace, capacity,
                                               loss_rate, seed):
        fifo = self.run(DropTailQueue(capacity), trace, loss_rate, seed)
        generic = self.run(PlainDropTailQueue(capacity), trace, loss_rate, seed)
        assert fifo == generic
        # Each packet is counted once: dropped by the queue, lost in transit
        # or delivered.
        delivered, not_delivered, lost, (enqueued, dequeued, dropped) = fifo[:4]
        assert len(not_delivered) == dropped + lost
        assert enqueued == dequeued == len(delivered) + lost
