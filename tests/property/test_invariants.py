"""Property-based tests (hypothesis) for core data structures and invariants."""

import math

from hypothesis import given, settings, strategies as st

from repro.analysis import FluidModel, jain_index
from repro.core.metrics import MonitorIntervalStats
from repro.core.utility import LossResilientUtility, SafeUtility, sigmoid
from repro.netsim import FlowStats, Receiver, Simulator
from repro.netsim.packet import Packet
from repro.netsim.queues import DropTailQueue, FairQueue
from repro.netsim.stats import BinnedSeries, SequenceTracker


# --------------------------------------------------------------------------- #
# Queues
# --------------------------------------------------------------------------- #
@given(
    capacity=st.integers(min_value=1500, max_value=100_000),
    sizes=st.lists(st.integers(min_value=40, max_value=1500), min_size=1,
                   max_size=200),
)
def test_droptail_capacity_and_conservation(capacity, sizes):
    queue = DropTailQueue(capacity_bytes=capacity)
    accepted = 0
    for i, size in enumerate(sizes):
        packet = Packet(flow_id=1, packet_id=i, data_seq=i, size_bytes=size,
                        sent_time=0.0)
        if queue.enqueue(packet, 0.0):
            accepted += 1
        assert queue.bytes_queued <= capacity
    dequeued = 0
    while queue.dequeue(0.0) is not None:
        dequeued += 1
    assert dequeued == accepted
    assert queue.bytes_queued == 0
    assert queue.packets_queued == 0
    assert queue.stats.enqueued == accepted
    assert queue.stats.dropped == len(sizes) - accepted


@given(
    flows=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=100),
)
def test_fairqueue_conserves_packets(flows):
    queue = FairQueue(lambda: DropTailQueue(1_000_000))
    for i, flow_id in enumerate(flows):
        packet = Packet(flow_id=flow_id, packet_id=i, data_seq=i,
                        size_bytes=1500, sent_time=0.0)
        assert queue.enqueue(packet, 0.0)
    drained = []
    while True:
        packet = queue.dequeue(0.0)
        if packet is None:
            break
        drained.append(packet.packet_id)
    assert sorted(drained) == list(range(len(flows)))
    assert queue.packets_queued == 0


@given(
    flows=st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=60),
)
def test_fairqueue_preserves_per_flow_fifo_order(flows):
    queue = FairQueue()
    for i, flow_id in enumerate(flows):
        queue.enqueue(Packet(flow_id=flow_id, packet_id=i, data_seq=i,
                             size_bytes=1500, sent_time=0.0), 0.0)
    seen: dict[int, list[int]] = {}
    while True:
        packet = queue.dequeue(0.0)
        if packet is None:
            break
        seen.setdefault(packet.flow_id, []).append(packet.packet_id)
    for ids in seen.values():
        assert ids == sorted(ids)


# --------------------------------------------------------------------------- #
# Sequence tracking and binning
# --------------------------------------------------------------------------- #
@given(seqs=st.lists(st.integers(min_value=0, max_value=300), max_size=300))
def test_sequence_tracker_counts_unique(seqs):
    tracker = SequenceTracker()
    for seq in seqs:
        tracker.add(seq)
    assert tracker.count == len(set(seqs))
    assert tracker.duplicates == len(seqs) - len(set(seqs))
    for seq in set(seqs):
        assert seq in tracker


@given(seqs=st.lists(st.integers(min_value=0, max_value=60), max_size=200))
def test_receiver_tracks_sequences_as_the_tracker_does(seqs):
    """The receiver records a new segment in its own frame (in order, or
    above the frontier) and calls ``add`` for the rest: its tracker and
    goodput counters must equal a tracker fed every segment with ``add``."""
    stats = FlowStats(1)
    receiver = Receiver(Simulator(), 1, stats)
    reference = SequenceTracker()
    for packet_id, seq in enumerate(seqs):
        receiver.receive(Packet(1, packet_id, seq, 1500, 0.0))
        reference.add(seq)
        assert vars(receiver.delivered) == vars(reference)
    assert stats.unique_bytes_delivered == 1500 * reference.count
    assert stats.duplicate_packets == reference.duplicates


@given(
    entries=st.lists(
        st.tuples(st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                  st.floats(min_value=0.0, max_value=1e6, allow_nan=False)),
        max_size=200,
    ),
)
def test_binned_series_total_preserved(entries):
    series = BinnedSeries()
    for time, value in entries:
        series.add(time, value)
    assert math.isclose(series.total(), sum(v for _, v in entries),
                        rel_tol=1e-9, abs_tol=1e-6)


# --------------------------------------------------------------------------- #
# Fairness index
# --------------------------------------------------------------------------- #
@given(st.lists(st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
                min_size=1, max_size=50))
def test_jain_index_bounds(allocations):
    index = jain_index(allocations)
    assert 0.0 < index <= 1.0 + 1e-12
    if sum(allocations) > 0:
        assert index >= 1.0 / len(allocations) - 1e-12


@given(st.floats(min_value=1e-3, max_value=1e6, allow_nan=False),
       st.integers(min_value=1, max_value=30))
def test_jain_index_equal_allocations_exactly_one(value, n):
    assert math.isclose(jain_index([value] * n), 1.0, rel_tol=1e-9)


# --------------------------------------------------------------------------- #
# Utility functions
# --------------------------------------------------------------------------- #
def _mi(rate_mbps, loss_fraction, rtt=0.03, packets=128):
    """Build a completed MI at ``rate_mbps`` with a realized loss rate of
    exactly ``round(packets * loss_fraction) / packets``.

    The packet count is shared by every rate and the MI duration is derived
    from it, so the achieved sending rate equals ``rate_mbps`` exactly and two
    MIs built with the same ``loss_fraction`` realize the *identical* loss
    rate.  (Quantizing losses against a rate-dependent packet count — the old
    ``int(round(packets * loss))`` with ``packets`` proportional to the rate —
    made the two MIs of the monotonicity property realize different loss
    rates, e.g. 0/41 vs 1/44, violating its fixed-loss premise.)
    """
    rate_bps = rate_mbps * 1e6
    duration = packets * 1500 * 8.0 / rate_bps
    mi = MonitorIntervalStats(0, rate_bps, 0.0, duration)
    lost = int(round(packets * loss_fraction))
    for _ in range(packets):
        mi.record_send(1500)
    ack_spacing = 1500 * 8.0 / rate_bps
    for i in range(packets - lost):
        mi.record_ack(1500, rtt, ack_time=rtt + i * ack_spacing)
    for _ in range(lost):
        mi.record_loss()
    mi.send_phase_over = True
    return mi


@given(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
       st.floats(min_value=1.0, max_value=500.0, allow_nan=False))
def test_sigmoid_bounded_and_monotone(y, alpha):
    value = sigmoid(y, alpha)
    assert 0.0 <= value <= 1.0
    assert sigmoid(y + 0.01, alpha) <= value + 1e-12


@given(rate=st.floats(min_value=1.0, max_value=500.0, allow_nan=False),
       loss=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
@settings(max_examples=60)
def test_safe_utility_finite_and_bounded_by_throughput(rate, loss):
    utility = SafeUtility()
    value = utility(_mi(rate, loss))
    assert math.isfinite(value)
    # Utility never exceeds the delivered throughput in Mbps.
    assert value <= rate * (1 - loss) + 1.0


@given(rate=st.floats(min_value=1.0, max_value=500.0, allow_nan=False),
       loss=st.floats(min_value=0.0, max_value=0.99, allow_nan=False))
@settings(max_examples=60)
def test_loss_resilient_utility_non_negative(rate, loss):
    value = LossResilientUtility()(_mi(rate, loss))
    assert value >= 0.0


@given(loss=st.floats(min_value=0.0, max_value=0.03, allow_nan=False),
       low=st.floats(min_value=5.0, max_value=200.0, allow_nan=False),
       factor=st.floats(min_value=1.05, max_value=1.5, allow_nan=False))
@settings(max_examples=60)
def test_safe_utility_prefers_higher_rate_under_fixed_low_loss(loss, low, factor):
    """With loss below the threshold and independent of rate (random loss),
    the safe utility must prefer the higher sending rate — the architectural
    property that makes PCC immune to random-loss collapse."""
    utility = SafeUtility()
    assert utility(_mi(low * factor, loss)) > utility(_mi(low, loss))


def test_safe_utility_regression_former_falsifying_example():
    """Pin the Hypothesis falsifying example that exposed the quantized-loss
    bug in the old ``_mi`` helper (loss=0.01171875, low=5.0, factor=1.0625):
    the two MIs realized 0/41 vs 1/44 loss, so the 'fixed low loss' premise of
    the §2.2 monotonicity property did not hold.  With a shared packet count
    both MIs realize 2/128 loss and the true invariant passes."""
    utility = SafeUtility()
    loss, low, factor = 0.01171875, 5.0, 1.0625
    low_mi = _mi(low, loss)
    high_mi = _mi(low * factor, loss)
    assert high_mi.loss_rate == low_mi.loss_rate  # identical realized loss
    assert utility(high_mi) > utility(low_mi)


# --------------------------------------------------------------------------- #
# Fluid model / equilibrium structure
# --------------------------------------------------------------------------- #
@given(capacity=st.floats(min_value=1.0, max_value=1e4, allow_nan=False),
       rates=st.lists(st.floats(min_value=0.01, max_value=1e4, allow_nan=False),
                      min_size=1, max_size=8))
@settings(max_examples=60)
def test_fluid_model_loss_bounds(capacity, rates):
    model = FluidModel(capacity)
    loss = model.loss(rates)
    assert 0.0 <= loss < 1.0
    for i in range(len(rates)):
        assert model.throughput(rates, i) <= rates[i] + 1e-9


@given(n=st.integers(min_value=2, max_value=6),
       capacity=st.floats(min_value=10.0, max_value=1000.0, allow_nan=False))
@settings(max_examples=15, deadline=None)
def test_symmetric_equilibrium_total_rate_bound(n, capacity):
    """Theorem 1's proved region: equilibrium total rate lies in (C, 20C/19)."""
    from repro.analysis import symmetric_equilibrium_rate

    model = FluidModel(capacity, alpha=max(2.2 * (n - 1), 100.0))
    x_hat = symmetric_equilibrium_rate(model, n)
    total = n * x_hat
    assert capacity < total < capacity * 20.0 / 19.0 * 1.01
