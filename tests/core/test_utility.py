"""Unit tests for PCC utility functions and MI statistics."""

import pytest

from repro.core.metrics import MonitorIntervalStats
from repro.core.utility import (
    LatencyUtility,
    LossResilientUtility,
    SafeUtility,
    SimpleUtility,
    sigmoid,
)


def make_mi(rate_mbps=10.0, duration=0.1, loss_fraction=0.0, rtt=0.03, mi_id=0):
    """Build a completed MI with the given sending rate and loss fraction."""
    mi = MonitorIntervalStats(mi_id, rate_mbps * 1e6, 0.0, duration)
    packet_bytes = 1500
    packets = max(1, int(rate_mbps * 1e6 * duration / 8 / packet_bytes))
    lost = int(round(packets * loss_fraction))
    for _ in range(packets):
        mi.record_send(packet_bytes)
    for _ in range(packets - lost):
        mi.record_ack(packet_bytes, rtt)
    for _ in range(lost):
        mi.record_loss()
    mi.send_phase_over = True
    return mi


class TestSigmoid:
    def test_limits(self):
        assert sigmoid(-10.0, 100.0) == pytest.approx(1.0)
        assert sigmoid(10.0, 100.0) == pytest.approx(0.0)

    def test_midpoint(self):
        assert sigmoid(0.0, 100.0) == pytest.approx(0.5)

    def test_monotone_decreasing(self):
        values = [sigmoid(y, 100.0) for y in [-0.1, -0.01, 0.0, 0.01, 0.1]]
        assert values == sorted(values, reverse=True)

    def test_no_overflow_for_extreme_arguments(self):
        assert sigmoid(1e6, 100.0) == 0.0
        assert sigmoid(-1e6, 100.0) == 1.0


class TestMonitorIntervalStats:
    def test_loss_rate_and_throughput(self):
        mi = make_mi(rate_mbps=10.0, duration=0.1, loss_fraction=0.2)
        assert mi.loss_rate == pytest.approx(0.2, abs=0.03)
        assert mi.throughput_bps == pytest.approx(10e6 * 0.8, rel=0.06)
        assert mi.sending_rate_bps == pytest.approx(10e6, rel=0.05)

    def test_all_packets_accounted(self):
        mi = make_mi(loss_fraction=0.1)
        assert mi.all_packets_accounted

    def test_incomplete_until_send_phase_over(self):
        mi = MonitorIntervalStats(0, 1e6, 0.0, 0.1)
        mi.record_send(1500)
        mi.record_ack(1500, 0.03)
        assert not mi.all_packets_accounted  # send phase still open

    def test_force_account_missing_as_lost(self):
        mi = MonitorIntervalStats(0, 1e6, 0.0, 0.1)
        for _ in range(10):
            mi.record_send(1500)
        for _ in range(6):
            mi.record_ack(1500, 0.03)
        mi.send_phase_over = True
        mi.force_account_missing_as_lost()
        assert mi.packets_lost == 4
        assert mi.all_packets_accounted

    def test_mean_rtt(self):
        mi = MonitorIntervalStats(0, 1e6, 0.0, 0.1)
        mi.record_send(1500)
        mi.record_send(1500)
        mi.record_ack(1500, 0.030)
        mi.record_ack(1500, 0.050)
        assert mi.mean_rtt == pytest.approx(0.040)

    def test_empty_interval(self):
        mi = MonitorIntervalStats(0, 1e6, 0.0, 0.1)
        assert mi.is_empty()
        assert mi.loss_rate == 0.0
        assert mi.mean_rtt == 0.0


class TestSafeUtility:
    def test_no_loss_utility_equals_throughput(self):
        utility = SafeUtility()
        mi = make_mi(rate_mbps=10.0, loss_fraction=0.0)
        assert utility(mi) == pytest.approx(10.0, rel=0.05)

    def test_higher_rate_higher_utility_when_lossless(self):
        utility = SafeUtility()
        assert utility(make_mi(rate_mbps=20.0)) > utility(make_mi(rate_mbps=10.0))

    def test_loss_above_threshold_destroys_utility(self):
        utility = SafeUtility()
        clean = utility(make_mi(rate_mbps=10.0, loss_fraction=0.0))
        lossy = utility(make_mi(rate_mbps=10.0, loss_fraction=0.15))
        assert lossy < 0.3 * clean

    def test_severe_loss_gives_negative_utility(self):
        utility = SafeUtility()
        assert utility(make_mi(rate_mbps=10.0, loss_fraction=0.5)) < 0.0

    def test_congestion_prefers_lower_rate(self):
        """Sending 10% above a 10 Mbps 'capacity' (so ~9% loss) must score below
        sending at capacity with no loss — the core congestion incentive."""
        utility = SafeUtility()
        at_capacity = make_mi(rate_mbps=10.0, loss_fraction=0.0)
        overshoot = make_mi(rate_mbps=11.0, loss_fraction=0.09)
        assert utility(at_capacity) > utility(overshoot)

    def test_random_loss_prefers_higher_rate(self):
        """With loss-rate independent of rate (random loss), higher rate wins —
        the §2.1 example of a 100 vs 105 Mbps decision under random loss."""
        utility = SafeUtility()
        low = make_mi(rate_mbps=100.0, loss_fraction=0.01)
        high = make_mi(rate_mbps=105.0, loss_fraction=0.01)
        assert utility(high) > utility(low)


class TestOtherUtilities:
    def test_simple_utility_formula(self):
        utility = SimpleUtility()
        mi = make_mi(rate_mbps=10.0, loss_fraction=0.1)
        expected = mi.throughput_bps / 1e6 - (mi.sending_rate_bps / 1e6) * mi.loss_rate
        assert utility(mi) == pytest.approx(expected)

    def test_loss_resilient_positive_under_extreme_loss(self):
        utility = LossResilientUtility()
        mi = make_mi(rate_mbps=50.0, loss_fraction=0.5)
        assert utility(mi) > 0.0

    def test_loss_resilient_prefers_higher_rate_under_uniform_loss(self):
        utility = LossResilientUtility()
        low = make_mi(rate_mbps=40.0, loss_fraction=0.3)
        high = make_mi(rate_mbps=50.0, loss_fraction=0.3)
        assert utility(high) > utility(low)

    def test_latency_utility_penalises_rtt_growth(self):
        utility = LatencyUtility()
        previous = make_mi(rate_mbps=10.0, rtt=0.020, mi_id=0)
        stable = make_mi(rate_mbps=10.0, rtt=0.020, mi_id=1)
        inflated = make_mi(rate_mbps=10.0, rtt=0.040, mi_id=1)
        assert utility(stable, previous) > utility(inflated, previous)

    def test_latency_utility_prefers_lower_rtt_at_same_rate(self):
        utility = LatencyUtility()
        fast = make_mi(rate_mbps=10.0, rtt=0.020)
        slow = make_mi(rate_mbps=10.0, rtt=0.080)
        assert utility(fast) > utility(slow)

    def test_latency_utility_zero_without_rtt(self):
        utility = LatencyUtility()
        mi = MonitorIntervalStats(0, 1e6, 0.0, 0.1)
        assert utility(mi) == 0.0
