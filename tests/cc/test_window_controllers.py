"""Unit tests for the TCP-family window controllers."""

import pytest

from repro.cc import (
    CubicController,
    HyblaController,
    IllinoisController,
    NewRenoController,
    PacedRenoController,
    VegasController,
    WestwoodController,
)

ALL_WINDOW_CONTROLLERS = [
    NewRenoController, CubicController, IllinoisController, HyblaController,
    VegasController, WestwoodController, PacedRenoController,
]


def started(controller_cls, cwnd, ssthresh):
    """A controller part-way into a flow, at window ``cwnd`` and threshold
    ``ssthresh`` (every controller starts at 2 packets in slow start)."""
    controller = controller_cls()
    controller.cwnd = float(cwnd)
    controller.ssthresh = float(ssthresh)
    return controller


def drive_acks(controller, count, rtt=0.03, start=0.0, spacing=0.001):
    now = start
    for _ in range(count):
        controller.on_ack(rtt, now)
        now += spacing
    return now


class TestSharedBehaviour:
    @pytest.mark.parametrize("controller_cls", ALL_WINDOW_CONTROLLERS)
    def test_window_grows_with_acks(self, controller_cls):
        controller = controller_cls()
        initial = controller.cwnd
        drive_acks(controller, 50)
        assert controller.cwnd > initial

    @pytest.mark.parametrize("controller_cls", ALL_WINDOW_CONTROLLERS)
    def test_loss_never_increases_window(self, controller_cls):
        controller = controller_cls()
        drive_acks(controller, 200)
        before = controller.cwnd
        controller.on_loss(1.0)
        assert controller.cwnd <= before

    @pytest.mark.parametrize("controller_cls", ALL_WINDOW_CONTROLLERS)
    def test_timeout_collapses_window(self, controller_cls):
        controller = controller_cls()
        drive_acks(controller, 200)
        controller.on_timeout(1.0)
        assert controller.cwnd <= 2.0

    @pytest.mark.parametrize("controller_cls", ALL_WINDOW_CONTROLLERS)
    def test_window_never_below_one(self, controller_cls):
        controller = controller_cls()
        for _ in range(10):
            controller.on_loss(1.0)
            controller.on_timeout(2.0)
        assert controller.cwnd >= 1.0

    @pytest.mark.parametrize("controller_cls", ALL_WINDOW_CONTROLLERS)
    def test_slow_start_property_reflects_ssthresh(self, controller_cls):
        controller = started(controller_cls, 2.0, 100.0)
        assert controller.in_slow_start
        controller.cwnd = 200.0
        assert not controller.in_slow_start


class TestNewReno:
    def test_slow_start_doubles_per_rtt(self):
        controller = started(NewRenoController, 2, 1000)
        # One ACK per outstanding packet: 2 -> 4 after one round.
        drive_acks(controller, 2)
        assert controller.cwnd == pytest.approx(4.0)

    def test_congestion_avoidance_adds_one_per_rtt(self):
        controller = started(NewRenoController, 10, 5)
        drive_acks(controller, 10)
        assert controller.cwnd == pytest.approx(11.0, rel=0.02)

    def test_loss_halves_window(self):
        controller = started(NewRenoController, 100, 5)
        controller.on_loss(0.0)
        assert controller.cwnd == pytest.approx(50.0)
        assert controller.ssthresh == pytest.approx(50.0)

    def test_timeout_resets_to_one(self):
        controller = started(NewRenoController, 64, 5)
        controller.on_timeout(0.0)
        assert controller.cwnd == 1.0
        assert controller.ssthresh == pytest.approx(32.0)


class TestCubic:
    def test_beta_reduction_on_loss(self):
        controller = started(CubicController, 100, 5)
        controller.on_loss(0.0)
        assert controller.cwnd == pytest.approx(70.0)

    def test_window_recovers_toward_w_max(self):
        controller = started(CubicController, 100, 5)
        controller.on_loss(0.0)
        # Drive ACKs over several seconds of simulated time.
        now = 0.0
        for _ in range(3000):
            controller.on_ack(0.03, now)
            now += 0.005
        assert controller.cwnd >= 95.0

    def test_cubic_growth_is_slow_near_w_max_fast_far_away(self):
        controller = started(CubicController, 200, 5)
        controller.on_loss(0.0)
        # Near the loss event (plateau region) growth per ACK is small compared
        # with Reno-style slow start.
        before = controller.cwnd
        controller.on_ack(0.03, 0.1)
        near_growth = controller.cwnd - before
        assert near_growth < 1.0

    def test_fast_convergence_lowers_w_max_on_consecutive_losses(self):
        controller = started(CubicController, 100, 5)
        controller.on_loss(0.0)
        w_max_first = controller.w_max
        controller.on_loss(1.0)
        assert controller.w_max < w_max_first

    def test_timeout_resets_window_to_one(self):
        controller = started(CubicController, 100, 5)
        controller.on_timeout(0.0)
        assert controller.cwnd == 1.0


class TestIllinois:
    def test_alpha_high_when_delay_low(self):
        controller = started(IllinoisController, 50, 5)
        # All samples at base RTT: queueing delay ~ 0 -> alpha should go high.
        now = 0.0
        controller.max_rtt = 0.1
        controller.base_rtt = 0.03
        for _ in range(200):
            controller.on_ack(0.03, now)
            now += 0.01
        assert controller.alpha > 5.0

    def test_alpha_low_and_beta_high_when_delay_high(self):
        controller = started(IllinoisController, 50, 5)
        now = 0.0
        # Establish the delay range first.
        controller.on_ack(0.03, now)
        for _ in range(300):
            controller.on_ack(0.100, now)
            now += 0.01
        assert controller.alpha <= 1.0
        assert controller.beta >= 0.4

    def test_loss_reduces_by_current_beta(self):
        controller = started(IllinoisController, 100, 5)
        controller._beta = 0.5
        controller.on_loss(0.0)
        assert controller.cwnd == pytest.approx(50.0)

    def test_growth_faster_than_reno_with_empty_queue(self):
        illinois = started(IllinoisController, 20, 5)
        reno = started(NewRenoController, 20, 5)
        illinois.max_rtt = 0.1
        illinois.base_rtt = 0.03
        now = 0.0
        for _ in range(400):
            illinois.on_ack(0.03, now)
            reno.on_ack(0.03, now)
            now += 0.005
        assert illinois.cwnd > reno.cwnd


class TestHybla:
    def test_rho_scales_with_rtt(self):
        controller = HyblaController()
        controller.on_ack(0.8, 0.0)
        assert controller.rho == pytest.approx(0.8 / 0.025, rel=0.01)

    def test_rho_floor_at_one(self):
        controller = HyblaController()
        controller.on_ack(0.010, 0.0)
        assert controller.rho == 1.0

    def test_long_rtt_flow_grows_much_faster_per_ack(self):
        short = started(HyblaController, 50, 5)
        long = started(HyblaController, 50, 5)
        for _ in range(100):
            short.on_ack(0.025, 0.0)
            long.on_ack(0.5, 0.0)
        assert (long.cwnd - 50) > 10 * (short.cwnd - 50)

    def test_loss_still_halves(self):
        controller = started(HyblaController, 80, 5)
        controller.on_loss(0.0)
        assert controller.cwnd == pytest.approx(40.0)


class TestVegas:
    def test_stays_stable_when_queue_in_target_band(self):
        controller = started(VegasController, 30, 5)
        controller.base_rtt = 0.030
        # RTT corresponding to ~3 queued packets (between alpha=2 and beta=4).
        rtt = 0.030 * 30 / (30 - 3)
        now = 0.0
        cwnds = []
        for _ in range(600):
            controller.on_ack(rtt, now)
            now += rtt / 30
            cwnds.append(controller.cwnd)
        assert max(cwnds[100:]) - min(cwnds[100:]) <= 2.0

    def test_decreases_when_queue_estimate_high(self):
        controller = started(VegasController, 40, 5)
        controller.base_rtt = 0.030
        now = 0.0
        for _ in range(400):
            controller.on_ack(0.060, now)  # 20 packets queued: way above beta
            now += 0.002
        assert controller.cwnd < 40

    def test_increases_when_no_queue(self):
        controller = started(VegasController, 10, 5)
        controller.base_rtt = 0.030
        now = 0.0
        for _ in range(300):
            controller.on_ack(0.030, now)
            now += 0.003
        assert controller.cwnd > 10


class TestWestwood:
    def test_bandwidth_estimate_converges_to_ack_rate(self):
        controller = started(WestwoodController, 50, 5)
        now = 0.0
        # 1000 ACKs per second.
        for _ in range(3000):
            controller.on_ack(0.05, now)
            now += 0.001
        assert controller.bandwidth_estimate_pps == pytest.approx(1000, rel=0.15)

    def test_loss_sets_ssthresh_to_bdp_not_half(self):
        controller = started(WestwoodController, 100, 5)
        now = 0.0
        for _ in range(2000):
            controller.on_ack(0.05, now)
            now += 0.001
        controller.on_loss(now)
        expected_bdp = controller.bandwidth_estimate_pps * controller.min_rtt
        assert controller.ssthresh == pytest.approx(expected_bdp, rel=0.2)

    def test_random_loss_resilience_vs_reno(self):
        """Westwood should keep a larger window than Reno under random loss."""
        westwood = started(WestwoodController, 50, 5)
        reno = started(NewRenoController, 50, 5)
        now = 0.0
        for i in range(5000):
            westwood.on_ack(0.05, now)
            reno.on_ack(0.05, now)
            now += 0.001
            if i % 500 == 499:  # periodic random loss
                westwood.on_loss(now)
                reno.on_loss(now)
        assert westwood.cwnd > reno.cwnd


class TestPacedReno:
    def test_requires_pacing_marker(self):
        assert PacedRenoController.requires_pacing is True

    def test_window_dynamics_identical_to_reno(self):
        paced = started(PacedRenoController, 10, 100)
        reno = started(NewRenoController, 10, 100)
        drive_acks(paced, 50)
        drive_acks(reno, 50)
        assert paced.cwnd == pytest.approx(reno.cwnd)
