"""Unit tests for per-flow statistics helpers."""


import random

import pytest

from repro.cc import NewRenoController
from repro.netsim import (
    ACK_SIZE_BYTES,
    Packet,
    Receiver,
    Simulator,
    WindowedSender,
    connect,
    single_bottleneck,
)
from repro.netsim.stats import (
    _MAX_RTO,
    BinnedSeries,
    FlowStats,
    RTTEstimator,
    SequenceTracker,
)


class TestBinnedSeries:
    def test_values_accumulate_in_bins(self):
        series = BinnedSeries()
        series.add(0.2, 10.0)
        series.add(0.9, 5.0)
        series.add(1.1, 7.0)
        assert series.bin_values(0.0, 1.9) == [15.0, 7.0]

    def test_missing_bins_are_zero(self):
        series = BinnedSeries()
        series.add(0.5, 1.0)
        series.add(3.5, 2.0)
        assert series.bin_values(0.0, 3.5) == [1.0, 0.0, 0.0, 2.0]

    def test_total(self):
        series = BinnedSeries()
        for t in [0.1, 0.6, 1.4, 2.2]:
            series.add(t, 2.0)
        assert series.total() == pytest.approx(8.0)

    def test_series_sorted_by_time(self):
        series = BinnedSeries()
        series.add(5.5, 1.0)
        series.add(0.5, 1.0)
        assert [t for t, _ in series.series()] == [0.0, 5.0]

    def test_empty(self):
        assert BinnedSeries().bin_values() == []


class TestSequenceTracker:
    def test_in_order_sequences(self):
        tracker = SequenceTracker()
        for seq in range(5):
            assert tracker.add(seq)
        assert tracker.count == 5
        assert tracker.next_expected == 5

    def test_duplicates_detected(self):
        tracker = SequenceTracker()
        assert tracker.add(0)
        assert not tracker.add(0)
        assert tracker.duplicates == 1
        assert tracker.count == 1

    def test_out_of_order_fills_gap(self):
        tracker = SequenceTracker()
        tracker.add(0)
        tracker.add(2)
        tracker.add(3)
        assert tracker.next_expected == 1
        tracker.add(1)
        assert tracker.next_expected == 4
        assert tracker.count == 4

    def test_contains(self):
        tracker = SequenceTracker()
        tracker.add(0)
        tracker.add(5)
        assert 0 in tracker
        assert 5 in tracker
        assert 3 not in tracker

    def test_memory_compaction_below_frontier(self):
        tracker = SequenceTracker()
        for seq in range(1000):
            tracker.add(seq)
        # The out-of-order set must stay empty for purely in-order arrivals.
        assert len(tracker._above) == 0


class TestRTTEstimator:
    def test_first_sample_initialises(self):
        rtt = RTTEstimator()
        rtt.update(0.1)
        assert rtt.srtt == pytest.approx(0.1)

    def test_smoothing_follows_samples(self):
        rtt = RTTEstimator()
        for _ in range(100):
            rtt.update(0.05)
        assert rtt.srtt == pytest.approx(0.05, rel=1e-6)

    def test_rto_has_minimum(self):
        rtt = RTTEstimator(min_rto=0.2)
        for _ in range(50):
            rtt.update(0.001)
        assert rtt.rto >= 0.2

    def test_rto_grows_with_variance(self):
        stable = RTTEstimator()
        jittery = RTTEstimator()
        for i in range(100):
            stable.update(0.5)
            jittery.update(0.5 + (0.2 if i % 2 else -0.2))
        assert jittery.rto > stable.rto

    def test_non_positive_samples_ignored(self):
        rtt = RTTEstimator()
        rtt.update(-1.0)
        rtt.update(0.0)
        assert rtt.srtt is None

    def test_default_rto_before_samples(self):
        assert RTTEstimator().rto == pytest.approx(1.0)

    def test_rto_attribute_tracks_the_rfc6298_formula(self):
        """``rto`` is recomputed in update(); it must read what the former
        property computed from srtt/rttvar at every point."""
        def formula(est):
            if est.srtt is None:
                return max(est.initial_rto, est.min_rto)
            rto = est.srtt + max(4.0 * (est.rttvar or 0.0), 0.001)
            return min(_MAX_RTO, max(est.min_rto, rto))

        rtt = RTTEstimator(min_rto=0.2, initial_rto=1.0)
        rtt.update(0.0)
        rtt.update(-3.0)
        assert rtt.rto == formula(rtt) == 1.0  # ignored samples change nothing
        rtt.update(0.5)
        assert rtt.rto == formula(rtt) == 1.5  # first sample: srtt + 4 * srtt / 2
        rtt.update(-1.0)
        assert rtt.rto == 1.5
        rtt.update(0.7)
        assert rtt.rto == formula(rtt)
        for _ in range(200):
            rtt.update(0.001)
        assert rtt.rto == formula(rtt) == 0.2  # clamped to min_rto

    def test_update_equals_its_builtin_reference_to_the_bit(self):
        """update() chooses with compares; this is the same arithmetic written
        with ``min``/``max``/``abs``, and every field must stay ``==`` to it
        through the min_rto floor, the 1 ms variance floor, the max_rto cap
        and ignored samples."""
        def reference_update(est, sample):
            if sample <= 0:
                return
            if est.srtt is None:
                est.srtt, est.rttvar = sample, sample / 2.0
            else:
                est.rttvar = 0.75 * est.rttvar + 0.25 * abs(est.srtt - sample)
                est.srtt = 0.875 * est.srtt + 0.125 * sample
            est.rto = min(_MAX_RTO, max(
                est.min_rto, est.srtt + max(4.0 * est.rttvar, 0.001)))

        rng = random.Random(20)
        samples = [rng.uniform(0.02, 0.04) for _ in range(300)]
        samples += [0.002] * 300    # 4 * rttvar decays under 1 ms, rto under min_rto
        samples += [rng.uniform(20.0, 100.0) for _ in range(50)]    # over max_rto
        samples += [rng.choice((0.0, -0.5, rng.uniform(0.001, 2.0)))
                    for _ in range(300)]
        for kwargs in ({"min_rto": 0.2, "initial_rto": 1.0},    # the TCP family
                       {"min_rto": 0.01, "initial_rto": 0.1}):  # rate-based
            actual, reference = RTTEstimator(**kwargs), RTTEstimator(**kwargs)
            seen = set()
            for sample in samples:
                actual.update(sample)
                reference_update(reference, sample)
                assert vars(actual) == vars(reference)
                if sample <= 0:
                    seen.add("ignored sample")
                    continue
                unclamped = reference.srtt + max(4.0 * reference.rttvar, 0.001)
                seen.add("variance floor" if 4.0 * reference.rttvar < 0.001
                         else "variance term")
                seen.add("min_rto floor" if unclamped < reference.min_rto else
                         "max_rto cap" if unclamped > _MAX_RTO else
                         "unclamped")
            assert seen == {"ignored sample", "variance floor", "variance term",
                            "min_rto floor", "max_rto cap", "unclamped"}


class TestFlowStats:
    def test_loss_rate_and_throughput(self):
        stats = FlowStats(1)
        stats.packets_sent, stats.bytes_sent = 100, 100 * 1500
        stats.packets_lost = 10
        assert stats.loss_rate == pytest.approx(0.1)
        assert stats.throughput_bps(1.0) == pytest.approx(100 * 1500 * 8)

    def test_goodput_counts_only_new_data(self):
        """The receiver writes the delivery counters and the bin itself."""
        sim = Simulator()
        stats = FlowStats(1)
        receiver = Receiver(sim, 1, stats)
        for at in (0.5, 0.6):
            sim.schedule_at(at, receiver.receive, Packet(1, 0, 0, 1500, 0.0))
        sim.run(1.0)
        assert stats.packets_delivered == 2
        assert stats.unique_bytes_delivered == 1500
        assert stats.duplicate_packets == 1
        assert stats.goodput_bps(1.0) == pytest.approx(1500 * 8)
        assert stats.delivered_bins.series() == [(0.0, 1500.0)]

    def test_rtt_statistics(self):
        stats = FlowStats(1)
        stats.rtt_sum, stats.rtt_count = 0.040, 2
        assert stats.mean_rtt == pytest.approx(0.020)

    def test_ack_counters_equal_their_reference_to_the_bit(self):
        """The sender writes the per-ACK counters in ``receive_ack``'s own
        frame; they equal the reference, bit for bit, over RTT samples that
        are zero, negative (neither is averaged) or positive, and an ACK of
        a packet no longer outstanding counts nothing.  The RTT estimate and
        the acknowledged-segment tracker it also advances in place equal
        ``RTTEstimator.update`` and ``SequenceTracker.add`` fed the same
        samples and segments; the ACKs of each pair of packets arrive in
        reverse order, so every other segment lands above the frontier."""
        def reference_ack(stats, size_bytes, rtt):
            stats.packets_acked += 1
            stats.bytes_acked += size_bytes
            if rtt > 0:
                stats.rtt_sum += rtt
                stats.rtt_count += 1

        def counters(stats):
            return (stats.packets_acked, stats.bytes_acked, stats.rtt_sum,
                    stats.rtt_count)

        sim = Simulator(seed=1)
        topo = single_bottleneck(sim, 100e6, 1.0, buffer_bytes=500_000)
        actual, reference = FlowStats(1), FlowStats(1)
        controller = NewRenoController()
        controller.cwnd = 1_100.0
        sender = WindowedSender(sim, 1, topo.path, controller, actual)
        connect(sender, Receiver(sim, 1, FlowStats(1)), topo.path)
        sender.start()
        sim.run(0.01)
        sent = list(sender._outstanding.values())[:1_000]
        sent[0::2], sent[1::2] = sent[1::2], sent[0::2]
        # The windowed sender's RTO bounds are the estimator's defaults.
        rtt_reference, acked_reference = RTTEstimator(), SequenceTracker()
        rng = random.Random(20)
        for packet in sent:
            rtt = rng.choice((0.0, -0.01, 0.03, rng.uniform(0.001, 2.0)))
            ack = Packet(1, packet.packet_id, packet.data_seq, ACK_SIZE_BYTES,
                         sim.now, is_ack=True)
            ack.acked_packet_id = packet.packet_id
            ack.ack_sent_time = sim.now - rtt
            sender.receive_ack(ack)
            sample = sim.now - ack.ack_sent_time
            reference_ack(reference, packet.size_bytes, sample)
            rtt_reference.update(sample)
            acked_reference.add(packet.data_seq)
            assert counters(actual) == counters(reference)
            assert vars(sender.rtt) == vars(rtt_reference)
            assert vars(sender._acked_segments) == vars(acked_reference)
            sender.receive_ack(ack)     # no longer outstanding
            rtt_reference.update(sample)
            assert counters(actual) == counters(reference)
            assert vars(sender.rtt) == vars(rtt_reference)
        assert 0 < actual.rtt_count < actual.packets_acked == len(sent) == 1_000
        assert acked_reference.count == 1_000 and not acked_reference._above

    def test_flow_completion_time(self):
        stats = FlowStats(1)
        stats.start_time = 2.0
        stats.completion_time = 5.5
        assert stats.flow_completion_time == pytest.approx(3.5)

    def test_flow_completion_time_none_when_incomplete(self):
        stats = FlowStats(1)
        stats.start_time = 2.0
        assert stats.flow_completion_time is None

    def test_summary_keys(self):
        stats = FlowStats(3)
        summary = stats.summary(10.0)
        assert set(summary) == {
            "flow_id", "throughput_mbps", "goodput_mbps", "loss_rate",
            "mean_rtt_ms", "retransmissions", "fct",
        }

    def test_zero_duration_throughput_is_zero(self):
        stats = FlowStats(1)
        stats.packets_sent, stats.bytes_sent = 1, 1500
        assert stats.throughput_bps(0.0) == 0.0
        assert stats.goodput_bps(-1.0) == 0.0
