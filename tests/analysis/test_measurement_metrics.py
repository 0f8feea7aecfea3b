"""Tests for fairness and measurement-analysis helpers."""

import pytest

from repro.analysis import (
    convergence_time,
    flow_completion_times,
    jain_index,
    jain_index_over_timescales,
    percentile,
    power,
    rate_std_dev,
    throughput_ratio,
)


class TestJainIndex:
    def test_equal_allocation_is_one(self):
        assert jain_index([10.0, 10.0, 10.0]) == pytest.approx(1.0)

    def test_single_hog_is_one_over_n(self):
        assert jain_index([100.0, 0.0, 0.0, 0.0]) == pytest.approx(0.25)

    def test_scale_invariant(self):
        assert jain_index([1, 2, 3]) == pytest.approx(jain_index([10, 20, 30]))

    def test_all_zero_is_fair(self):
        assert jain_index([0.0, 0.0]) == 1.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            jain_index([])

    def test_over_timescales_larger_window_smooths(self):
        # Two flows alternating 10/0 and 0/10 per second: unfair at 1 s,
        # perfectly fair at 2 s.
        flow_a = [10.0, 0.0] * 10
        flow_b = [0.0, 10.0] * 10
        fine = jain_index_over_timescales([flow_a, flow_b], 1.0, 1.0)
        coarse = jain_index_over_timescales([flow_a, flow_b], 1.0, 2.0)
        assert fine == pytest.approx(0.5)
        assert coarse == pytest.approx(1.0)

    def test_over_timescales_validation(self):
        with pytest.raises(ValueError):
            jain_index_over_timescales([[1.0]], 1.0, 0.5)
        with pytest.raises(ValueError):
            jain_index_over_timescales([], 1.0, 1.0)

    def test_throughput_ratio_zero_denominator(self):
        assert throughput_ratio(5.0, 0.0) == 0.0
        assert throughput_ratio(5.0, 2.0) == 2.5


class TestConvergenceTime:
    def test_detects_first_stable_window(self):
        series = [1.0, 2.0, 30.0, 52.0, 48.0, 50.0, 49.0, 51.0, 50.0]
        t = convergence_time(series, ideal_rate=50.0, window=5.0)
        assert t == 3.0

    def test_none_when_never_stable(self):
        series = [10.0, 90.0] * 10
        assert convergence_time(series, ideal_rate=50.0, window=5.0) is None

    def test_start_offset_added(self):
        series = [50.0] * 10
        assert convergence_time(series, 50.0, window=5.0, start_offset=20.0) == 20.0

    def test_invalid_ideal_rate(self):
        with pytest.raises(ValueError):
            convergence_time([1.0], 0.0)


class TestRateStdDevAndPower:
    def test_constant_series_zero_stddev(self):
        assert rate_std_dev([5.0] * 20) == 0.0

    def test_known_variance(self):
        assert rate_std_dev([1.0, 3.0]) == pytest.approx(2.0 ** 0.5)

    def test_from_time_skips_prefix(self):
        series = [100.0, 100.0, 5.0, 5.0, 5.0]
        assert rate_std_dev(series, from_time=2.0) == 0.0

    def test_power_metric(self):
        assert power(40e6, 0.020) == pytest.approx(2e9)
        assert power(40e6, 0.0) == 0.0


class TestFCTAndPercentiles:
    def test_percentile_interpolation(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 4.0
        assert percentile(values, 0.5) == pytest.approx(2.5)

    def test_percentile_validation(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)

    def test_flow_completion_times_ignores_incomplete(self):
        summary = flow_completion_times([0.5, None, 1.5, 1.0, None])
        assert summary["count"] == 3
        assert summary["median"] == pytest.approx(1.0)
        assert summary["mean"] == pytest.approx(1.0)

    def test_flow_completion_times_empty(self):
        summary = flow_completion_times([None, None])
        assert summary["count"] == 0
        assert summary["median"] is None
