"""Unit tests for the rate-based baselines (SABUL/UDT, PCP) and bundles."""

import pytest

from repro.cc import MIN_RATE_BPS, ParallelTcpBundle, PcpController, SabulController
from repro.core import PCCScheme
from repro.core.monitor import PerformanceMonitor
from repro.netsim import (
    FlowStats,
    Packet,
    Path,
    RateBasedSender,
    Receiver,
    Simulator,
    connect,
    single_bottleneck,
)


def record(packet_id=0, is_probe=False):
    return Packet(0, packet_id, packet_id, 1500, 0.0, is_probe=is_probe)


def at_rate(controller_cls, rate_bps):
    """A controller whose rate is ``rate_bps`` (SABUL and PCP start at 1 Mbps)."""
    controller = controller_cls()
    controller._rate_bps = rate_bps
    return controller


class TestSabulUnit:
    def test_rate_increases_without_loss(self):
        controller = SabulController()
        controller.on_flow_start(None, 0.0)
        now = 0.0
        for i in range(500):
            now += 0.002
            controller.on_ack(record(i), 0.02, now)
        assert controller.rate_bps > 1e6

    def test_first_loss_exits_slow_start(self):
        controller = at_rate(SabulController, 10e6)
        assert controller.in_slow_start
        controller.on_loss(record(), 1.0)
        assert not controller.in_slow_start

    def test_loss_decreases_rate_multiplicatively(self):
        controller = at_rate(SabulController, 10e6)
        controller.in_slow_start = False
        before = controller.rate_bps
        loss = record()
        loss.sent_time = 1.0
        controller.on_loss(loss, 1.5)
        assert controller.rate_bps == pytest.approx(before / 1.125)

    def test_one_decrease_per_congestion_event(self):
        controller = at_rate(SabulController, 10e6)
        controller.in_slow_start = False
        first = record(0)
        first.sent_time = 1.0
        controller.on_loss(first, 1.5)
        after_first = controller.rate_bps
        # A second loss of a packet sent *before* the cut belongs to the same
        # congestion event and must not cut the rate again.
        second = record(1)
        second.sent_time = 1.2
        controller.on_loss(second, 1.6)
        assert controller.rate_bps == pytest.approx(after_first)

    def test_increase_frozen_right_after_loss(self):
        controller = at_rate(SabulController, 10e6)
        controller.on_flow_start(None, 0.0)
        controller.in_slow_start = False
        loss = record()
        loss.sent_time = 0.4
        controller.on_loss(loss, 0.5)
        after_loss = controller.rate_bps
        # Within the freeze window, SYN ticks must not raise the rate.
        controller.on_ack(record(1), 0.02, 0.505)
        assert controller.rate_bps <= after_loss

    def test_rate_never_below_floor(self):
        controller = at_rate(SabulController, 10_000)
        controller.in_slow_start = False
        for i in range(200):
            loss = record(i)
            loss.sent_time = float(i)
            controller.on_loss(loss, float(i) + 0.5)
        assert controller.rate_bps >= 8_000.0


class TestSabulEndToEnd:
    def test_fills_clean_link_but_sustains_loss(self):
        """SABUL overshoots the bottleneck: high utilization, persistent loss."""
        sim = Simulator(seed=1)
        topo = single_bottleneck(sim, 20e6, 0.03, buffer_bytes=75_000)
        stats = FlowStats(1)
        controller = SabulController()
        receiver = Receiver(sim, 1, stats)
        sender = RateBasedSender(sim, 1, topo.path, controller, stats)
        connect(sender, receiver, topo.path)
        sender.start()
        sim.run(20.0)
        assert stats.goodput_bps(20.0) > 0.6 * 20e6
        assert stats.loss_rate > 0.001


class TestPcpUnit:
    def test_probe_trains_scheduled_after_start(self):
        sim = Simulator(seed=1)
        topo = single_bottleneck(sim, 20e6, 0.03, buffer_bytes=200_000)
        stats = FlowStats(1)
        controller = PcpController()
        receiver = Receiver(sim, 1, stats)
        sender = RateBasedSender(sim, 1, topo.path, controller, stats)
        connect(sender, receiver, topo.path)
        sender.start()
        sim.run(1.0)
        assert stats.packets_sent > 0
        assert controller._min_rtt < float("inf")

    def test_lost_probe_backs_off(self):
        controller = at_rate(PcpController, 10e6)
        controller._collecting = True
        controller.on_loss(record(is_probe=True), 1.0)
        assert controller._collecting is False

    def test_data_loss_small_backoff(self):
        controller = at_rate(PcpController, 10e6)
        controller.on_loss(record(), 1.0)
        assert controller.rate_bps == pytest.approx(9.5e6)

    def test_delay_growth_causes_backoff(self):
        controller = at_rate(PcpController, 10e6)
        controller._collecting = True
        controller._train_acks = []
        # A train of eight probe ACKs whose RTT climbs 14 ms (queue building).
        for i in range(8):
            controller.on_ack(record(i, is_probe=True), 0.03 + 0.002 * i,
                              1.0 + 0.001 * i)
        assert controller.rate_bps < 10e6

    def test_clean_train_moves_toward_dispersion_estimate(self):
        controller = PcpController()
        controller._collecting = True
        controller._train_acks = []
        # Probe ACKs arrive 1 ms apart with flat RTT -> estimate 12 Mbps.
        for i in range(8):
            controller.on_ack(record(i, is_probe=True), 0.03, 1.0 + 0.001 * i)
        # Half way from 1 Mbps to the estimate, capped at 4x: 2.5 Mbps.
        assert controller.rate_bps == pytest.approx(2.5e6, rel=0.01)


class TestPcpEndToEnd:
    def test_underutilises_noisy_link(self):
        """PCP's probe-based estimates collapse once the path is at all noisy
        (the paper reports severe underestimation and abnormal slowdowns)."""
        sim = Simulator(seed=2)
        topo = single_bottleneck(sim, 100e6, 0.03, buffer_bytes=75_000,
                                 loss_rate=0.003)
        stats = FlowStats(1)
        controller = PcpController()
        receiver = Receiver(sim, 1, stats)
        sender = RateBasedSender(sim, 1, topo.path, controller, stats)
        connect(sender, receiver, topo.path)
        sender.start()
        sim.run(20.0)
        goodput = stats.goodput_bps(20.0)
        assert goodput < 0.85 * 100e6


class TestPublishedRate:
    """``rate_bps`` is an attribute the sender reads once per packet:
    whatever a controller publishes there must be what the old ``rate_bps()``
    call would have computed at that moment."""

    def test_pcc_publishes_the_current_interval_rate_at_every_read(self, monkeypatch):
        """Four lossy PCC flows; at the sender's one read per packet and on
        both sides of every ACK the published rate equals the pull it replaced
        — across the window before the first MI, re-aligned MIs and
        deadline-completed MIs."""
        realigned, forced = [], []
        realign, force_complete = (PerformanceMonitor.realign,
                                   PerformanceMonitor._force_complete)

        def counting_realign(monitor, now, rtt_estimate):
            realigned.append(now)
            return realign(monitor, now, rtt_estimate)

        def counting_force_complete(monitor, mi_id):
            if mi_id in monitor._active:
                forced.append(mi_id)
            force_complete(monitor, mi_id)

        monkeypatch.setattr(PerformanceMonitor, "realign", counting_realign)
        monkeypatch.setattr(PerformanceMonitor, "_force_complete",
                            counting_force_complete)
        reads = {"before_first_mi": 0, "total": 0}

        class CheckedSender(RateBasedSender):
            def check(self):
                scheme = self.controller
                current = scheme.monitor.current_interval
                if current is None:
                    reads["before_first_mi"] += 1
                    pulled = scheme.controller.rate_bps
                else:
                    pulled = current.target_rate_bps
                reads["total"] += 1
                assert scheme.rate_bps == pulled

            # The rate is read last in both: nothing runs between the read
            # and the check.
            def _on_start(self):
                super()._on_start()
                self.check()    # the read that sets the first tick's interval

            def _tick(self):
                super()._tick()
                self.check()    # the read that sets the next tick's interval

            def receive_ack(self, ack):
                self.check()    # an ACK may complete an MI and move the policy
                super().receive_ack(ack)
                self.check()

        sim = Simulator(seed=2)
        topo = single_bottleneck(sim, 100e6, 0.03, 375_000, loss_rate=0.01,
                                 reverse_loss_rate=0.01)
        schemes = []
        for flow_id in range(1, 5):
            path = Path(topo.path.forward_links, topo.path.reverse_links)
            stats = FlowStats(flow_id)
            schemes.append(PCCScheme())
            sender = CheckedSender(sim, flow_id, path, schemes[-1], stats)
            connect(sender, Receiver(sim, flow_id, stats), path)
            sender.start()
        sim.run(2.0)
        assert reads["before_first_mi"] == 4  # each flow arming its first tick
        assert reads["total"] > 35_000  # 37 999: per packet, a tick and an ACK twice
        assert realigned and forced
        assert all(len(scheme.completed_intervals) > 10 for scheme in schemes)

    def test_pcc_rate_is_readable_before_the_flow_starts(self):
        scheme = PCCScheme(initial_rate_bps=3e6)
        assert scheme.rate_bps == scheme.controller.rate_bps == 3e6

    @staticmethod
    def published(controller):
        """Assert the property is the floored ``_rate_bps``; return the raw one."""
        assert controller.rate_bps == max(controller._rate_bps, MIN_RATE_BPS)
        return controller._rate_bps

    def test_sabul_property_follows_every_rate_mutation(self):
        controller = at_rate(SabulController, 1_000.0)
        assert controller.rate_bps == MIN_RATE_BPS  # floored, never the raw 1 kbps
        controller = SabulController()
        controller.on_flow_start(None, 0.0)
        seen = [self.published(controller)]

        def mutated():
            seen.append(self.published(controller))
            return seen[-1] != seen[-2]

        now = 0.0
        for i in range(100):        # slow-start rounds: rate *= gain
            now += 0.002
            controller.on_ack(record(i), 0.02, now)
        assert mutated() and controller.in_slow_start
        controller.on_loss(record(), now)       # slow-start exit: measured rate
        assert mutated() and not controller.in_slow_start
        for i in range(100):        # DAIMD increase once the freeze is over
            now += 0.002
            controller.on_packet_sent(record(i), now)
        assert mutated() and seen[-1] > seen[-2]
        late = record()
        late.sent_time = now
        controller.on_loss(late, now + 0.01)    # congestion event: rate /= 1.125
        assert mutated() and seen[-1] == pytest.approx(seen[-2] / 1.125)
        with pytest.raises(AttributeError):
            controller.rate_bps = 5e6           # read-only: mutate _rate_bps

    def test_pcp_property_follows_every_rate_mutation(self):
        controller = at_rate(PcpController, 1_000.0)
        assert controller.rate_bps == MIN_RATE_BPS
        controller = at_rate(PcpController, 10e6)
        seen = [self.published(controller)]

        def train(rtts):
            controller._collecting = True
            controller._train_acks = []
            for i, rtt in enumerate(rtts):
                controller.on_ack(record(i, is_probe=True), rtt, 1.0 + 0.001 * i)
            seen.append(self.published(controller))

        controller.on_loss(record(), 1.0)           # data loss: * 0.95
        seen.append(self.published(controller))
        assert seen[-1] == pytest.approx(seen[-2] * 0.95)
        train([0.03 + 0.002 * i for i in range(8)])  # delay growth: * 0.9
        assert seen[-1] == pytest.approx(seen[-2] * 0.9)
        train([0.03] * 8)                           # clean train: toward 12 Mbps
        assert seen[-1] > seen[-2]
        controller._train_acks = [(1.0, 0.03)]      # a one-ACK train: probes lost
        controller._evaluate_train()
        seen.append(self.published(controller))
        assert seen[-1] == pytest.approx(seen[-2] * 0.8)
        with pytest.raises(AttributeError):
            controller.rate_bps = 5e6


class TestParallelBundle:
    def test_split_bytes_even(self):
        bundle = ParallelTcpBundle(bundle_size=10)
        shares = bundle.split_bytes(1_000_000)
        assert len(shares) == 10
        assert all(share == pytest.approx(100_000) for share in shares)

    def test_split_unlimited(self):
        bundle = ParallelTcpBundle(bundle_size=4)
        assert bundle.split_bytes(None) == [None, None, None, None]

    def test_default_size_is_ten(self):
        assert ParallelTcpBundle().bundle_size == 10
