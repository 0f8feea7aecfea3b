"""Unit tests for the queue disciplines."""

import math
import random

import pytest

from repro.netsim.packet import Packet
from repro.netsim.queues import (
    CoDelQueue,
    DropTailQueue,
    FairQueue,
    make_qdisc,
    qdisc_names,
)


def make_packet(flow_id=1, packet_id=0, size=1500):
    return Packet(flow_id=flow_id, packet_id=packet_id, data_seq=packet_id,
                  size_bytes=size, sent_time=0.0)


class TestDropTail:
    def test_fifo_order(self):
        queue = DropTailQueue(capacity_bytes=10_000)
        packets = [make_packet(packet_id=i) for i in range(3)]
        for p in packets:
            assert queue.enqueue(p, now=0.0)
        out = [queue.dequeue(0.0) for _ in range(3)]
        assert [p.packet_id for p in out] == [0, 1, 2]

    def test_drops_when_full(self):
        queue = DropTailQueue(capacity_bytes=3000)
        assert queue.enqueue(make_packet(packet_id=0), 0.0)
        assert queue.enqueue(make_packet(packet_id=1), 0.0)
        assert not queue.enqueue(make_packet(packet_id=2), 0.0)
        assert queue.stats.dropped == 1
        assert queue.packets_queued == 2

    def test_occupancy_never_exceeds_capacity(self):
        queue = DropTailQueue(capacity_bytes=4500)
        for i in range(10):
            queue.enqueue(make_packet(packet_id=i), 0.0)
        assert queue.bytes_queued <= 4500

    def test_dequeue_empty_returns_none(self):
        queue = DropTailQueue(capacity_bytes=3000)
        assert queue.dequeue(0.0) is None

    def test_byte_accounting_roundtrip(self):
        queue = DropTailQueue(capacity_bytes=100_000)
        for i in range(5):
            queue.enqueue(make_packet(packet_id=i, size=1000), 0.0)
        assert queue.bytes_queued == 5000
        queue.dequeue(0.0)
        queue.dequeue(0.0)
        assert queue.bytes_queued == 3000
        assert queue.packets_queued == 3

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            DropTailQueue(capacity_bytes=0)


class TestInfiniteQueue:
    """The ``infinite`` qdisc is a drop-tail FIFO of unbounded capacity,
    whatever buffer the link is configured with."""

    def test_never_drops(self):
        queue = make_qdisc("infinite", 1500)
        assert type(queue) is DropTailQueue and queue.capacity_bytes == math.inf
        for i in range(1000):
            assert queue.enqueue(make_packet(packet_id=i), 0.0)
        assert queue.stats.dropped == 0
        assert queue.packets_queued == 1000

    def test_fifo_order(self):
        queue = make_qdisc("infinite", 1500)
        for i in range(5):
            queue.enqueue(make_packet(packet_id=i), 0.0)
        assert [queue.dequeue(0.0).packet_id for _ in range(5)] == list(range(5))


class TestCoDel:
    def test_no_drops_when_sojourn_below_target(self):
        queue = CoDelQueue(capacity_bytes=10_000_000)
        for i in range(20):
            queue.enqueue(make_packet(packet_id=i), now=0.0)
        # Dequeue immediately: sojourn time ~0, CoDel must not drop.
        out = [queue.dequeue(0.001) for _ in range(20)]
        assert all(p is not None for p in out)
        assert queue.stats.dropped == 0

    def test_drops_after_persistent_queueing(self):
        queue = CoDelQueue(capacity_bytes=10_000_000)
        # Fill a deep standing queue at t=0.
        for i in range(200):
            queue.enqueue(make_packet(packet_id=i), now=0.0)
        # Drain slowly starting at t=0.5: sojourn times are way above target
        # for longer than an interval, so CoDel must start dropping.
        drained = 0
        dropped_before = queue.stats.dropped
        t = 0.5
        while queue.packets_queued > 0:
            if queue.dequeue(t) is not None:
                drained += 1
            t += 0.01
        assert queue.stats.dropped > dropped_before

    def test_respects_byte_capacity(self):
        queue = CoDelQueue(capacity_bytes=3000)
        assert queue.enqueue(make_packet(packet_id=0), 0.0)
        assert queue.enqueue(make_packet(packet_id=1), 0.0)
        assert not queue.enqueue(make_packet(packet_id=2), 0.0)


class TestFairQueue:
    def test_round_robin_across_flows(self):
        queue = FairQueue()
        for i in range(4):
            queue.enqueue(make_packet(flow_id=1, packet_id=i), 0.0)
        for i in range(4):
            queue.enqueue(make_packet(flow_id=2, packet_id=100 + i), 0.0)
        served_flows = [queue.dequeue(0.0).flow_id for _ in range(8)]
        # Long-run service must alternate: neither flow is served more than
        # one packet ahead of the other at any prefix.
        balance = 0
        for flow_id in served_flows:
            balance += 1 if flow_id == 1 else -1
            assert abs(balance) <= 1

    def test_single_flow_behaves_like_fifo(self):
        queue = FairQueue()
        for i in range(5):
            queue.enqueue(make_packet(flow_id=7, packet_id=i), 0.0)
        assert [queue.dequeue(0.0).packet_id for _ in range(5)] == list(range(5))

    def test_isolation_one_flow_overflowing_does_not_drop_other(self):
        queue = FairQueue(lambda: DropTailQueue(3000))
        # Flow 1 overflows its own child queue.
        accepted_flow1 = [queue.enqueue(make_packet(flow_id=1, packet_id=i), 0.0)
                          for i in range(10)]
        assert not all(accepted_flow1)
        # Flow 2 still gets its packets in.
        assert queue.enqueue(make_packet(flow_id=2, packet_id=100), 0.0)

    def test_aggregate_occupancy_consistent_after_drops(self):
        queue = FairQueue(lambda: DropTailQueue(3000))
        for i in range(10):
            queue.enqueue(make_packet(flow_id=1, packet_id=i), 0.0)
        # Drain everything; occupancy must return to exactly zero.
        while queue.dequeue(0.0) is not None:
            pass
        assert queue.bytes_queued == 0
        assert queue.packets_queued == 0

    def test_unequal_packet_sizes_share_bytes_not_packets(self):
        queue = FairQueue()
        # Flow 1 sends 1500-byte packets, flow 2 sends 500-byte packets.
        for i in range(6):
            queue.enqueue(make_packet(flow_id=1, packet_id=i, size=1500), 0.0)
        for i in range(18):
            queue.enqueue(make_packet(flow_id=2, packet_id=100 + i, size=500), 0.0)
        bytes_served = {1: 0, 2: 0}
        for _ in range(12):
            packet = queue.dequeue(0.0)
            bytes_served[packet.flow_id] += packet.size_bytes
        # Byte service should be roughly equal (within one quantum).
        assert abs(bytes_served[1] - bytes_served[2]) <= 1500


class TestFairQueueDropAccounting:
    """The parent reads each child's occupancy before and after every child
    ``enqueue`` and ``dequeue``: whatever left the child without being handed
    out is one drop, whether or not the child counted it."""

    def test_child_reject_counted_once(self):
        queue = FairQueue(lambda: DropTailQueue(3000))
        assert queue.enqueue(make_packet(flow_id=1, packet_id=0), 0.0)
        assert queue.enqueue(make_packet(flow_id=1, packet_id=1), 0.0)
        # Third 1500-byte packet exceeds the per-flow capacity.
        assert not queue.enqueue(make_packet(flow_id=1, packet_id=2), 0.0)
        assert queue.stats.dropped == queue._flows[1].stats.dropped == 1
        assert queue.stats.enqueued == 2
        assert queue.bytes_queued == 3000
        assert queue.packets_queued == 2

    def test_hookless_child_reject_keeps_the_aggregate_and_counts_the_drop(self):
        class UncountedRejectQueue(DropTailQueue):
            """Rejects without calling _drop, so it counts no drop itself."""

            def enqueue(self, packet, now):
                if self.bytes_queued + packet.size_bytes > self.capacity_bytes:
                    return False
                return super().enqueue(packet, now)

        queue = FairQueue(child_factory=lambda: UncountedRejectQueue(3000))
        assert queue.enqueue(make_packet(flow_id=1, packet_id=0), 0.0)
        assert queue.enqueue(make_packet(flow_id=1, packet_id=1), 0.0)
        assert not queue.enqueue(make_packet(flow_id=1, packet_id=2), 0.0)
        child = queue._flows[1]
        assert child.stats.dropped == 0
        assert (queue.stats.enqueued, queue.stats.dropped) == (2, 1)
        assert (queue.bytes_queued, queue.packets_queued) == \
            (child.bytes_queued, child.packets_queued) == (3000, 2)
        assert [queue.dequeue(0.0).packet_id for _ in range(2)] == [0, 1]
        assert queue.dequeue(0.0) is None
        assert (queue.bytes_queued, queue.packets_queued) == (0, 0)

    def test_codel_head_drops_counted_once(self):
        """fq_codel drops at dequeue, inside the child; the parent counts
        each such drop once, and its occupancy follows the child's."""
        queue = make_qdisc("fq_codel", 10_000_000)
        for i in range(200):
            queue.enqueue(make_packet(flow_id=1 + i % 2, packet_id=i), 0.0)
        delivered, now = 0, 0.5
        while queue.packets_queued:
            delivered += queue.dequeue(now) is not None
            now += 0.01
            children = queue._flows.values()
            assert queue.packets_queued == sum(c.packets_queued for c in children)
            assert queue.bytes_queued == sum(c.bytes_queued for c in children)
        child_drops = sum(c.stats.dropped for c in queue._flows.values())
        assert child_drops > 0
        assert queue.stats.dropped == child_drops
        assert delivered + queue.stats.dropped == 200 == queue.stats.enqueued

    def test_attach_rng_reaches_existing_and_future_children(self):
        import random

        queue = FairQueue(lambda: DropTailQueue(10_000))
        assert queue.enqueue(make_packet(flow_id=1, packet_id=0), 0.0)
        rng = random.Random(5)
        queue.attach_rng(rng)
        assert queue._flows[1].rng is rng
        assert queue.enqueue(make_packet(flow_id=2, packet_id=1), 0.0)
        assert queue._flows[2].rng is rng


def _codel_cycle(queue, start, flow_id=1, count=60):
    """A burst of ``count`` packets at ``start`` drained one per 20 ms, so
    sojourn stays above target and CoDel drops; returns (drops, end time)."""
    for i in range(count):
        queue.enqueue(make_packet(flow_id=flow_id, packet_id=i), start)
    dropped_before, now = queue.stats.dropped, start
    while queue.packets_queued:
        now += 0.02
        queue.dequeue(now)
    return queue.stats.dropped - dropped_before, now


class TestFairQueueForgetsDrainedFlows:
    """A child and its deficit go when the flow drains, wherever a fresh
    child would behave the same, so the table holds the flows with packets
    queued and not every flow an ``fq`` link ever saw."""

    @pytest.mark.parametrize("qdisc", ["fq", "fq_codel"])
    def test_two_thousand_one_packet_flows_leave_nothing(self, qdisc):
        """Each drained child goes to the pool the next flow takes from, so
        the 2000 flows are served by one child built once."""
        queue = make_qdisc(qdisc, 100_000)
        built = []
        build_child = queue._child_factory
        queue._child_factory = lambda: built.append(build_child()) or built[-1]
        for flow_id in range(2000):
            now = flow_id * 0.001
            assert queue.enqueue(make_packet(flow_id=flow_id), now)
            assert queue.dequeue(now + 0.0005).flow_id == flow_id
        assert len(queue._flows) == len(queue._deficits) == 0
        assert queue.stats.enqueued == queue.stats.dequeued == 2000
        assert len(built) == 1 and queue._spares == built

    def test_a_backlogged_flow_keeps_its_child(self):
        queue = make_qdisc("fq_codel", 100_000)
        for packet_id in range(2):
            queue.enqueue(make_packet(flow_id=1, packet_id=packet_id), 0.0)
        child = queue._flows[1]
        assert queue.dequeue(0.001).packet_id == 0
        assert queue._flows[1] is child
        assert queue.dequeue(0.002).packet_id == 1
        assert 1 not in queue._flows and 1 not in queue._deficits

    @pytest.mark.parametrize("child", ["red", "pie"])
    def test_red_and_pie_children_are_kept(self, child):
        """Both keep an average (RED's occupancy EWMA, PIE's probability)
        that a fresh child would not have."""
        queue = make_qdisc("fq", 100_000, child=child)
        queue.attach_rng(random.Random(1))
        queue.enqueue(make_packet(flow_id=1), 0.0)
        assert queue.dequeue(0.001).flow_id == 1
        assert list(queue._flows) == [1]
        assert queue._deficits == {1: 0.0}

    def test_a_codel_child_that_remembers_its_last_episode_is_kept(self):
        """After an episode of several drops, RFC 8289's re-entry rule
        (``delta > 1`` within 16 intervals) starts the next episode from the
        last one's drop count: such a child is not a fresh one, and here a
        second burst soon after the first loses 26 packets through it
        against 17 through a fresh child."""
        queue = make_qdisc("fq_codel", 1_000_000)
        drops, end = _codel_cycle(queue, 0.0)
        assert drops == 17
        child = queue._flows[1]
        assert not child._dropping and child._first_above_time == 0.0
        assert child._drop_count - child._last_drop_count > 1
        assert queue._deficits[1] == 0.0
        assert _codel_cycle(child, end + 0.1)[0] == 26
        assert _codel_cycle(CoDelQueue(1_000_000), end + 0.1)[0] == 17


BUFFER_BYTES = 15_000

# Every discipline in the table, plus ``fq`` over each child that is not
# itself composed.
CONSTRUCTIONS = [(name, {}) for name in qdisc_names()] + [
    ("fq", {"child": name}) for name in qdisc_names()
    if not isinstance(make_qdisc(name, BUFFER_BYTES), FairQueue)]


class TestConstructionDrawsNoRandomness:
    """Building a queue never perturbs a random stream: RED and PIE draw
    only from the RNG the link attaches after wiring the queue."""

    @pytest.mark.parametrize(
        "name, kwargs", CONSTRUCTIONS,
        ids=["/".join([name, *(f"{k}={v}" for k, v in kw.items())])
             for name, kw in CONSTRUCTIONS])
    def test_no_draw_and_no_rng_until_attach_rng(self, name, kwargs):
        before = random.getstate()
        queue = make_qdisc(name, BUFFER_BYTES, **kwargs)
        # fq builds each flow's child at the flow's first packet.
        assert queue.enqueue(make_packet(), 0.0)
        assert random.getstate() == before
        parts = [queue, *getattr(queue, "_flows", {}).values()]
        assert all(part.rng is None for part in parts)

        rng = random.Random(7)
        rng_state = rng.getstate()
        queue.attach_rng(rng)
        assert all(part.rng is rng for part in parts)
        assert rng.getstate() == rng_state
