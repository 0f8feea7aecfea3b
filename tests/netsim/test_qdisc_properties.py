"""Property-test layer pinning queue invariants for every registered qdisc.

Every discipline reachable through the :mod:`repro.netsim.queues` registry —
including any third-party registration that imports before pytest collects —
is exercised against the same contracts:

* **conservation**: every admitted packet is eventually delivered, dropped
  post-admission, or resident; nothing is created or destroyed.  Note that
  ``stats.enqueued`` counts only *admitted* packets (enqueue-time rejects
  increment only ``stats.dropped``), so the caller-side accept/reject split
  is part of the bookkeeping.
* **bounded occupancy**: capacity-bounded disciplines never hold more bytes
  than their buffer (per flow, for fair queueing).
* **FIFO within a flow**: packets of one flow are delivered in arrival
  order, whatever the discipline drops or how flows interleave.
* **drop-state re-entry**: CoDel and PIE leave their drop state when the
  queue drains and re-engage cleanly on the next congestion epoch.
* **determinism**: with equal attached-RNG seeds, the accept/deliver/drop/
  mark sequences are identical — the byte-identity contract sweeps rely on.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim import make_qdisc, qdisc_names
from repro.netsim.packet import Packet
from repro.netsim.queues import CoDelQueue, PIEQueue

BUFFER_BYTES = 30_000.0

ALL_QDISCS = tuple(qdisc_names())
BOUNDED_QDISCS = tuple(name for name in ALL_QDISCS if name != "infinite")

#: (flow_id, size_bytes, dequeue_after) event streams.  Sizes stay below the
#: buffer so "can never fit" rejections do not dominate the search space.
EVENTS = st.lists(
    st.tuples(st.integers(min_value=1, max_value=3),
              st.sampled_from((200, 1500, 9000)),
              st.booleans()),
    min_size=1, max_size=120,
)


def _packet(packet_id, flow_id=1, size=1500):
    return Packet(flow_id=flow_id, packet_id=packet_id, data_seq=packet_id,
                  size_bytes=size, sent_time=0.0)


def _build(name):
    queue = make_qdisc(name, BUFFER_BYTES)
    queue.attach_rng(random.Random(7))
    return queue


def _drive(queue, events, dt=0.0007):
    """Feed the event stream; returns (accepted, delivered, final_now)."""
    accepted = 0
    delivered = []
    now = 0.0
    for i, (flow_id, size, deq) in enumerate(events):
        now += dt
        if queue.enqueue(_packet(i, flow_id, size), now):
            accepted += 1
        if deq:
            packet = queue.dequeue(now)
            if packet is not None:
                delivered.append(packet)
    return accepted, delivered, now


def _drain(queue, now, dt=0.0007):
    """Dequeue until empty (AQM may drop along the way); returns packets."""
    out = []
    while len(queue):
        now += dt
        packet = queue.dequeue(now)
        if packet is not None:
            out.append(packet)
    return out


@pytest.mark.parametrize("name", ALL_QDISCS)
@given(events=EVENTS)
@settings(max_examples=25, deadline=None)
def test_conservation(name, events):
    """admitted == delivered + post-admission drops + resident (== 0 after
    a full drain); enqueue-time rejects are accounted by the caller."""
    queue = _build(name)
    accepted, delivered, now = _drive(queue, events)
    delivered += _drain(queue, now)
    rejects = len(events) - accepted
    post_admission_drops = queue.stats.dropped - rejects
    assert queue.stats.enqueued == accepted
    assert post_admission_drops >= 0
    assert accepted == len(delivered) + post_admission_drops
    assert queue.bytes_queued == 0
    assert queue.packets_queued == 0
    assert len(queue) == 0


@pytest.mark.parametrize("name", BOUNDED_QDISCS)
@given(events=EVENTS)
@settings(max_examples=25, deadline=None)
def test_occupancy_never_exceeds_capacity(name, events):
    """Single-flow traffic never occupies more than the buffer (for fair
    queueing the buffer is the per-flow capacity, so one flow pins it)."""
    queue = _build(name)
    now = 0.0
    for i, (_flow, size, deq) in enumerate(events):
        now += 0.0007
        queue.enqueue(_packet(i, flow_id=1, size=size), now)
        assert queue.bytes_queued <= BUFFER_BYTES
        if deq:
            queue.dequeue(now)
        assert queue.bytes_queued <= BUFFER_BYTES


@pytest.mark.parametrize("name", ALL_QDISCS)
@given(events=EVENTS)
@settings(max_examples=25, deadline=None)
def test_fifo_order_within_flow(name, events):
    """Whatever is dropped, each flow's survivors arrive in packet order."""
    queue = _build(name)
    _accepted, delivered, now = _drive(queue, events)
    delivered += _drain(queue, now)
    per_flow = {}
    for packet in delivered:
        per_flow.setdefault(packet.flow_id, []).append(packet.packet_id)
    for ids in per_flow.values():
        assert ids == sorted(ids)


@pytest.mark.parametrize("name", ALL_QDISCS)
@given(events=EVENTS)
@settings(max_examples=25, deadline=None)
def test_determinism_same_seed_same_trace(name, events):
    """Equal seeds produce identical accept/deliver/drop/mark sequences."""
    traces = []
    for _ in range(2):
        queue = make_qdisc(name, BUFFER_BYTES)
        queue.attach_rng(random.Random(99))
        drops = []
        queue.on_drop = lambda packet, drops=drops: drops.append(
            packet.packet_id)
        accepted, delivered, now = _drive(queue, events)
        delivered += _drain(queue, now)
        traces.append((
            accepted,
            [(p.packet_id, p.ecn_marked) for p in delivered],
            drops,
            queue.stats.marked,
        ))
    assert traces[0] == traces[1]


def _congestion_cycle(queue, start, count=60):
    """Enqueue a burst at ``start`` then drain it slowly (high sojourn)."""
    for i in range(count):
        queue.enqueue(_packet(int(start * 1000) * 1000 + i, flow_id=1,
                              size=1500), start)
    dropped_before = queue.stats.dropped
    now = start
    while len(queue):
        now += 0.02
        queue.dequeue(now)
    return queue.stats.dropped - dropped_before


def test_codel_drop_state_reenters_after_drain():
    """CoDel leaves the dropping state on drain and the next congestion
    epoch (identical relative timing) triggers the identical drop pattern."""
    queue = CoDelQueue(capacity_bytes=1_000_000.0)
    first = _congestion_cycle(queue, start=0.0)
    assert first > 0
    assert not queue._dropping
    assert len(queue) == 0
    second = _congestion_cycle(queue, start=100.0)
    assert second == first


def _pie_overload_cycle(queue, start, steps=400):
    """Sustained overload: enqueue every 5 ms, dequeue every fourth step, so
    the sampled queueing delay climbs and the drop probability engages."""
    dropped_before = queue.stats.dropped
    now = start
    base_id = int(start) * 100_000
    for step in range(steps):
        now += 0.005
        queue.enqueue(_packet(base_id + step, flow_id=1, size=1500), now)
        if step % 4 == 3:
            queue.dequeue(now)
    while len(queue):
        now += 0.02
        queue.dequeue(now)
    return queue.stats.dropped - dropped_before


def test_pie_drop_state_reenters_after_drain():
    """PIE's drop probability decays after a drain; a later identical
    overload epoch re-engages the controller instead of inheriting stale
    state."""
    queue = PIEQueue(capacity_bytes=1_000_000.0)
    queue.attach_rng(random.Random(3))
    first = _pie_overload_cycle(queue, start=0.0)
    assert first > 0
    assert len(queue) == 0
    second = _pie_overload_cycle(queue, start=100.0)
    assert second > 0
    assert 0.0 <= queue._probability <= 1.0
