"""Unit tests for per-flow statistics helpers."""


import random

import pytest

from repro.netsim.stats import BinnedSeries, FlowStats, RTTEstimator, SequenceTracker


class TestBinnedSeries:
    def test_values_accumulate_in_bins(self):
        series = BinnedSeries(bin_width=1.0)
        series.add(0.2, 10.0)
        series.add(0.9, 5.0)
        series.add(1.1, 7.0)
        assert series.bin_values(0.0, 1.9) == [15.0, 7.0]

    def test_missing_bins_are_zero(self):
        series = BinnedSeries(bin_width=1.0)
        series.add(0.5, 1.0)
        series.add(3.5, 2.0)
        assert series.bin_values(0.0, 3.5) == [1.0, 0.0, 0.0, 2.0]

    def test_total(self):
        series = BinnedSeries(bin_width=0.5)
        for t in [0.1, 0.6, 1.4, 2.2]:
            series.add(t, 2.0)
        assert series.total() == pytest.approx(8.0)

    def test_series_sorted_by_time(self):
        series = BinnedSeries(bin_width=1.0)
        series.add(5.5, 1.0)
        series.add(0.5, 1.0)
        assert [t for t, _ in series.series()] == [0.0, 5.0]

    def test_empty(self):
        assert BinnedSeries().bin_values() == []

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            BinnedSeries(bin_width=0.0)


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
        assert tracker.missing_below_frontier() == 0 or tracker.missing_below_frontier() >= 0
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
        assert rtt.min_rtt == pytest.approx(0.1)

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
            return min(est.max_rto, max(est.min_rto, rto))

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
            est.latest_rtt = sample
            est.min_rtt = min(est.min_rtt, sample)
            if est.srtt is None:
                est.srtt, est.rttvar = sample, sample / 2.0
            else:
                est.rttvar = 0.75 * est.rttvar + 0.25 * abs(est.srtt - sample)
                est.srtt = 0.875 * est.srtt + 0.125 * sample
            est.rto = min(est.max_rto, max(
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
                         "max_rto cap" if unclamped > reference.max_rto else
                         "unclamped")
            assert seen == {"ignored sample", "variance floor", "variance term",
                            "min_rto floor", "max_rto cap", "unclamped"}


class TestFlowStats:
    def test_loss_rate_and_throughput(self):
        stats = FlowStats(1)
        for _ in range(100):
            stats.record_send(0.0, 1500, retransmission=False)
        for _ in range(10):
            stats.record_loss()
        assert stats.loss_rate == pytest.approx(0.1)
        assert stats.throughput_bps(1.0) == pytest.approx(100 * 1500 * 8)

    def test_goodput_counts_only_new_data(self):
        stats = FlowStats(1)
        stats.record_delivery(0.5, 1500, is_new=True)
        stats.record_delivery(0.6, 1500, is_new=False)
        assert stats.unique_bytes_delivered == 1500
        assert stats.duplicate_packets == 1
        assert stats.goodput_bps(1.0) == pytest.approx(1500 * 8)

    def test_rtt_statistics(self):
        stats = FlowStats(1)
        stats.record_ack(1500, 0.010)
        stats.record_ack(1500, 0.030)
        assert stats.mean_rtt == pytest.approx(0.020)
        assert stats.rtt_min == pytest.approx(0.010)
        assert stats.rtt_max == pytest.approx(0.030)

    def test_record_ack_equals_its_builtin_reference_to_the_bit(self):
        def reference_record_ack(stats, size_bytes, rtt):
            stats.packets_acked += 1
            stats.bytes_acked += size_bytes
            if rtt > 0:
                stats.rtt_sum += rtt
                stats.rtt_count += 1
                stats.rtt_min = min(stats.rtt_min, rtt)
                stats.rtt_max = max(stats.rtt_max, rtt)

        def counters(stats):
            return {name: value for name, value in vars(stats).items()
                    if name != "delivered_bins"}

        rng = random.Random(20)
        actual, reference = FlowStats(1), FlowStats(1)
        for _ in range(1000):
            rtt = rng.choice((0.0, -0.01, 0.03, rng.uniform(0.001, 2.0)))
            actual.record_ack(1500, rtt)
            reference_record_ack(reference, 1500, rtt)
            assert counters(actual) == counters(reference)
        assert 0 < actual.rtt_count < actual.packets_acked
        assert actual.rtt_min < 0.03 < actual.rtt_max

    def test_flow_completion_time(self):
        stats = FlowStats(1)
        stats.start_time = 2.0
        stats.completion_time = 5.5
        assert stats.flow_completion_time == pytest.approx(3.5)

    def test_flow_completion_time_none_when_incomplete(self):
        stats = FlowStats(1)
        stats.start_time = 2.0
        assert stats.flow_completion_time is None

    def test_throughput_series_in_mbps(self):
        stats = FlowStats(1, bin_width=1.0)
        for _i in range(10):
            stats.record_delivery(0.5, 125_000, is_new=True)  # 1 Mbit each
        series = stats.throughput_series_mbps(0.0, 0.0)
        assert series[0] == pytest.approx(10.0)

    def test_summary_keys(self):
        stats = FlowStats(3)
        summary = stats.summary(10.0)
        assert set(summary) == {
            "flow_id", "throughput_mbps", "goodput_mbps", "loss_rate",
            "mean_rtt_ms", "retransmissions", "fct",
        }

    def test_zero_duration_throughput_is_zero(self):
        stats = FlowStats(1)
        stats.record_send(0.0, 1500, retransmission=False)
        assert stats.throughput_bps(0.0) == 0.0
        assert stats.goodput_bps(-1.0) == 0.0
