"""Integration-ish unit tests for senders and receivers on small topologies."""

import gc
import math
import weakref
from collections import Counter

import pytest

from repro.cc import NewRenoController
from repro.core import PCCScheme
from repro.netsim import (
    ACK_SIZE_BYTES,
    DEFAULT_MSS,
    FlowStats,
    Path,
    Receiver,
    Simulator,
    WindowedSender,
    RateBasedSender,
    connect,
    single_bottleneck,
)


class FixedRateController:
    """Minimal rate controller used to exercise RateBasedSender in isolation."""

    def __init__(self, rate_bps):
        self.rate_bps = rate_bps
        self.acked = 0
        self.lost = 0

    def on_ack(self, record, rtt, now):
        self.acked += 1

    def on_loss(self, record, now):
        self.lost += 1


def build_windowed(sim, topo, total_bytes=None, controller=None, start_time=0.0,
                   flow_id=1, pacing=False):
    stats = FlowStats(flow_id, bin_width=0.5)
    receiver = Receiver(sim, flow_id, stats)
    sender = WindowedSender(
        sim, flow_id, topo.path, controller or NewRenoController(), stats,
        total_bytes=total_bytes, start_time=start_time, pacing=pacing,
    )
    connect(sender, receiver, topo.path)
    sender.start()
    return sender, receiver, stats


class TestReliableDelivery:
    def test_finite_flow_completes_and_delivers_every_segment(self):
        sim = Simulator(seed=1)
        topo = single_bottleneck(sim, 10e6, 0.02, buffer_bytes=50_000)
        sender, receiver, stats = build_windowed(sim, topo, total_bytes=300_000)
        sim.run(10.0)
        assert sender.completed
        assert receiver.delivered.count == sender.total_segments
        assert stats.flow_completion_time is not None
        assert stats.flow_completion_time < 10.0

    def test_finite_flow_completes_despite_random_loss(self):
        sim = Simulator(seed=2)
        topo = single_bottleneck(sim, 10e6, 0.02, buffer_bytes=50_000, loss_rate=0.05)
        sender, receiver, stats = build_windowed(sim, topo, total_bytes=150_000)
        sim.run(20.0)
        assert sender.completed
        assert receiver.delivered.count == sender.total_segments
        assert stats.retransmissions > 0

    def test_flow_start_time_respected(self):
        sim = Simulator(seed=1)
        topo = single_bottleneck(sim, 10e6, 0.02, buffer_bytes=50_000)
        sender, receiver, stats = build_windowed(sim, topo, total_bytes=15_000,
                                                 start_time=3.0)
        sim.run(10.0)
        assert stats.start_time == pytest.approx(3.0)
        assert stats.first_send_time >= 3.0

    def test_rtt_samples_close_to_base_rtt_on_idle_link(self):
        sim = Simulator(seed=1)
        topo = single_bottleneck(sim, 100e6, 0.05, buffer_bytes=500_000)
        sender, receiver, stats = build_windowed(sim, topo, total_bytes=30_000)
        sim.run(5.0)
        assert stats.rtt_min >= 0.05
        assert stats.rtt_min < 0.06


class TestLossDetectionAndRecovery:
    def test_lost_packets_are_retransmitted(self):
        sim = Simulator(seed=3)
        topo = single_bottleneck(sim, 20e6, 0.02, buffer_bytes=10_000)
        sender, receiver, stats = build_windowed(sim, topo, total_bytes=1_500_000)
        sim.run(5.0)
        assert stats.packets_lost > 0
        assert stats.retransmissions >= stats.packets_lost * 0.5

    def test_loss_rate_reflects_queue_drops(self):
        sim = Simulator(seed=4)
        topo = single_bottleneck(sim, 20e6, 0.02, buffer_bytes=10_000)
        sender, receiver, stats = build_windowed(sim, topo)
        sim.run(5.0)
        drops = topo.forward.stats.packets_queue_dropped
        assert drops > 0
        # Every queue drop is eventually detected by the sender (within slack
        # for packets still in flight at the end of the run).
        assert stats.packets_lost >= drops * 0.8

    def test_timeout_recovers_from_total_blackout(self):
        sim = Simulator(seed=5)
        topo = single_bottleneck(sim, 10e6, 0.02, buffer_bytes=50_000)
        sender, receiver, stats = build_windowed(sim, topo, total_bytes=75_000)
        # Blackout: forward link loses everything for a while.
        topo.forward.set_loss_rate(0.97)
        sim.run(1.0)
        topo.forward.set_loss_rate(0.0)
        sim.run(30.0)
        assert sender.completed
        assert stats.timeouts >= 1


class TestWindowedSenderBehaviour:
    def test_inflight_never_exceeds_cwnd_plus_one(self):
        sim = Simulator(seed=1)
        topo = single_bottleneck(sim, 10e6, 0.04, buffer_bytes=100_000)
        controller = NewRenoController(initial_cwnd=4, initial_ssthresh=8)
        sender, receiver, stats = build_windowed(sim, topo, controller=controller)

        violations = []

        def check():
            if sender.inflight_packets > int(controller.cwnd) + 1:
                violations.append((sim.now, sender.inflight_packets, controller.cwnd))
            if sim.now < 2.0:
                sim.schedule(0.01, check)

        sim.schedule(0.05, check)
        sim.run(2.5)
        assert violations == []

    def test_goodput_tracks_bottleneck_on_clean_link(self):
        sim = Simulator(seed=1)
        topo = single_bottleneck(sim, 20e6, 0.03, buffer_bytes=75_000)
        sender, receiver, stats = build_windowed(sim, topo)
        sim.run(10.0)
        assert stats.goodput_bps(10.0) > 0.85 * 20e6

    def test_paced_sender_also_fills_link(self):
        sim = Simulator(seed=1)
        topo = single_bottleneck(sim, 20e6, 0.03, buffer_bytes=75_000)
        sender, receiver, stats = build_windowed(sim, topo, pacing=True)
        sim.run(10.0)
        assert stats.goodput_bps(10.0) > 0.7 * 20e6

    def test_paced_sender_smoother_queue_than_bursty(self):
        def max_queue(pacing):
            sim = Simulator(seed=1)
            topo = single_bottleneck(sim, 20e6, 0.03, buffer_bytes=300_000)
            peak = [0]
            build_windowed(sim, topo, pacing=pacing)

            def sample():
                peak[0] = max(peak[0], topo.forward.queue.bytes_queued)
                if sim.now < 3.0:
                    sim.schedule(0.005, sample)

            sim.schedule(0.0, sample)
            sim.run(3.0)
            return peak[0]

        assert max_queue(pacing=True) <= max_queue(pacing=False)


class TestRateBasedSender:
    def test_sends_at_configured_rate(self):
        sim = Simulator(seed=1)
        topo = single_bottleneck(sim, 100e6, 0.02, buffer_bytes=500_000)
        stats = FlowStats(1)
        controller = FixedRateController(10e6)
        receiver = Receiver(sim, 1, stats)
        sender = RateBasedSender(sim, 1, topo.path, controller, stats)
        connect(sender, receiver, topo.path)
        sender.start()
        sim.run(10.0)
        assert stats.throughput_bps(10.0) == pytest.approx(10e6, rel=0.05)
        assert controller.acked > 0

    def test_rate_above_capacity_saturates_and_reports_loss(self):
        sim = Simulator(seed=2)
        topo = single_bottleneck(sim, 10e6, 0.02, buffer_bytes=30_000)
        stats = FlowStats(1)
        controller = FixedRateController(20e6)
        receiver = Receiver(sim, 1, stats)
        sender = RateBasedSender(sim, 1, topo.path, controller, stats)
        connect(sender, receiver, topo.path)
        sender.start()
        sim.run(10.0)
        assert stats.goodput_bps(10.0) == pytest.approx(10e6, rel=0.1)
        assert controller.lost > 0
        # Roughly half the packets exceed capacity.
        assert 0.3 < stats.loss_rate < 0.6

    def test_finite_rate_flow_completes(self):
        sim = Simulator(seed=3)
        topo = single_bottleneck(sim, 10e6, 0.02, buffer_bytes=100_000)
        stats = FlowStats(1)
        receiver = Receiver(sim, 1, stats)
        sender = RateBasedSender(sim, 1, topo.path, FixedRateController(5e6), stats,
                                 total_bytes=100_000)
        connect(sender, receiver, topo.path)
        sender.start()
        sim.run(10.0)
        assert sender.completed
        assert receiver.delivered.count == sender.total_segments

    def test_probe_train_sends_back_to_back_probes(self):
        sim = Simulator(seed=4)
        topo = single_bottleneck(sim, 10e6, 0.02, buffer_bytes=100_000)
        stats = FlowStats(1)
        receiver = Receiver(sim, 1, stats)
        sender = RateBasedSender(sim, 1, topo.path, FixedRateController(1e6), stats)
        connect(sender, receiver, topo.path)
        sender.start()
        sim.run(0.5)
        before = stats.packets_sent
        packets = sender.send_probe_train(5)
        assert len(packets) == 5
        assert all(p.is_probe for p in packets)
        assert stats.packets_sent == before + 5


class SpySender(WindowedSender):
    """Counts entries into the three methods ``receive_ack`` short-cuts and
    keeps the timer state ``_restart_rto_timer`` leaves behind."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.entered = Counter()
        self.left_by_restart = None

    def _detect_losses(self):
        self.entered["_detect_losses"] += 1
        return super()._detect_losses()

    def _restart_rto_timer(self):
        self.entered["_restart_rto_timer"] += 1
        super()._restart_rto_timer()
        self.left_by_restart = (self._rto_event, self._rto_deadline)

    def _check_completion(self):
        self.entered["_check_completion"] += 1
        super()._check_completion()


class TestReceiveAckShortCuts:
    """The usual ACK is handled inside ``receive_ack``; the three methods it
    short-cuts must still run, and agree with it, wherever they are needed."""

    @staticmethod
    def in_flight(total_bytes=None):
        """A sender whose first window is on a 1 s path, so the test is the
        only source of ACKs; returns it with the packets it sent."""
        sim = Simulator(seed=1)
        topo = single_bottleneck(sim, 100e6, 1.0, buffer_bytes=500_000)
        stats = FlowStats(1)
        sender = SpySender(sim, 1, topo.path, NewRenoController(initial_cwnd=8),
                           stats, total_bytes=total_bytes)
        connect(sender, Receiver(sim, 1, stats), topo.path)
        sender.start()
        sim.run(0.01)
        return sim, sender, list(sender._outstanding.values())

    @staticmethod
    def ack(sim, sender, packet):
        sender.receive_ack(packet.make_ack(packet.packet_id, ACK_SIZE_BYTES, sim.now))

    def test_usual_ack_leaves_what_the_methods_would(self):
        sim, sender, sent = self.in_flight()
        assert len(sent) == 8
        for packet in sent[1:4]:    # packet 0 is at most DUPACK_THRESHOLD behind
            self.ack(sim, sender, packet)
            assert not sender.entered
            armed, deadline = sender._rto_event, sender._rto_deadline
            assert armed is not None and not armed.cancelled
            assert deadline == sim.now + sender.rtt.rto
            # Running the short-cut methods now finds nothing left to do.
            assert sender._detect_losses() == []
            sender._restart_rto_timer()
            assert sender.left_by_restart == (armed, deadline)
            sender.entered.clear()
        assert sender.stats.packets_lost == 0

    def test_ack_that_exposes_a_loss_retransmits_and_rearms(self):
        sim, sender, sent = self.in_flight()
        for packet in sent[1:4]:
            self.ack(sim, sender, packet)
        assert not sender.entered and sender.stats.retransmissions == 0
        self.ack(sim, sender, sent[4])      # packet 0 is now 4 behind: lost
        assert sender.entered == {"_detect_losses": 1, "_restart_rto_timer": 1}
        assert sender.stats.packets_lost == 1
        assert list(sender._retransmit_queue) == [sent[0].data_seq]
        armed, deadline = sender.left_by_restart
        assert armed is sender._rto_event and not armed.cancelled
        assert deadline == sender._rto_deadline == sim.now + sender.rtt.rto
        # The loss halved the window; once ACKs reopen it, the after-ACK fill
        # sends the lost segment before any new data.
        newest = sender._next_packet_id
        while not sender.stats.retransmissions:
            self.ack(sim, sender, next(iter(sender._outstanding.values())))
        resent = sender._outstanding[newest]
        assert resent.is_retransmission and resent.data_seq == sent[0].data_seq
        assert sender.entered == {"_detect_losses": 1, "_restart_rto_timer": 1}

    def test_ack_that_empties_a_finished_flow_cancels_the_timer(self):
        sim, sender, sent = self.in_flight(total_bytes=3 * DEFAULT_MSS)
        assert len(sent) == 3
        armed = sender._rto_event
        for packet in sent[:2]:
            self.ack(sim, sender, packet)
        assert "_restart_rto_timer" not in sender.entered
        assert sender._rto_event is armed and not armed.cancelled
        self.ack(sim, sender, sent[2])
        assert sender.entered["_restart_rto_timer"] == 1
        assert sender.left_by_restart == (None, math.inf)   # before completion ran
        assert armed.cancelled
        assert sender._rto_event is None and sender._rto_deadline == math.inf

    def test_only_a_finite_flow_checks_completion_and_completes_once(self):
        sim, unbounded, sent = self.in_flight()
        for packet in sent:
            self.ack(sim, unbounded, packet)
        assert unbounded.entered["_check_completion"] == 0
        assert not unbounded.completed and unbounded.stats.packets_sent > 8

        sim, finite, sent = self.in_flight(total_bytes=3 * DEFAULT_MSS)
        finished = []
        finite.on_complete = finished.append
        for packet in sent:
            assert not finite.completed
            self.ack(sim, finite, packet)
        assert finite.entered["_check_completion"] == 3
        assert finished == [finite] and finite.completed
        assert finite.stats.completion_time == sim.now
        self.ack(sim, finite, sent[2])      # a duplicate after completion
        assert finished == [finite] and finite.entered["_check_completion"] == 3
        assert finite.stats.packets_sent == 3   # completion stopped the fill


CONTROLLER_HOOKS = ("_controller_mi_id", "_controller_packet_sent",
                    "_controller_ecn", "_controller_timeout",
                    "_controller_flow_start")


def build_flow(sim, topo, kind, total_bytes=None):
    """One unstarted flow of its own ``Path`` over ``topo``'s links, the way
    ``run_flows`` builds it: ``kind`` is ``"windowed"`` (New Reno) or
    ``"rate"`` (PCC, whose scheme binds back to the sender at flow start)."""
    path = Path(topo.path.forward_links, topo.path.reverse_links)
    stats = FlowStats(1)
    if kind == "windowed":
        sender = WindowedSender(sim, 1, path, NewRenoController(), stats,
                                total_bytes=total_bytes)
    else:
        sender = RateBasedSender(sim, 1, path, PCCScheme(), stats,
                                 total_bytes=total_bytes)
    receiver = Receiver(sim, 1, stats)
    connect(sender, receiver, path)
    return sender, receiver, stats


@pytest.mark.parametrize("kind", ["windowed", "rate"])
class TestFinishedFlowLetsGo:
    """At its last ACK a finite flow drops what only a running flow needs, so
    its endpoints are freed by reference count, not by a collector pass."""

    def test_completed_sender_holds_no_path_or_controller(self, kind):
        sim = Simulator(seed=1)
        topo = single_bottleneck(sim, 10e6, 0.02, buffer_bytes=50_000)
        sender, receiver, stats = build_flow(sim, topo, kind, total_bytes=60_000)
        sender.start()
        sim.run(0.01)
        assert sender.path is not None and sender.controller is not None
        sim.run(30.0)
        assert sender.completed and stats.completion_time is not None
        assert sender.path is None and sender.controller is None
        for hook in CONTROLLER_HOOKS:
            assert getattr(sender, hook, None) is None

    def test_endpoints_are_freed_without_the_collector(self, kind):
        sim = Simulator(seed=1)
        topo = single_bottleneck(sim, 10e6, 0.02, buffer_bytes=50_000)
        gc.collect()
        gc.disable()
        try:
            sender, receiver, stats = build_flow(sim, topo, kind,
                                                 total_bytes=60_000)
            alive = [weakref.ref(sender), weakref.ref(receiver),
                     weakref.ref(sender.controller), weakref.ref(sender.path)]
            sender.start()
            sim.run_until_idle()    # late packets and cancelled timers drain
            assert sender.completed
            del sender, receiver
            assert [ref() for ref in alive] == [None] * 4
        finally:
            gc.enable()
        assert stats.flow_completion_time is not None   # the record stays

    def test_unfinished_flow_keeps_its_endpoints(self, kind):
        sim = Simulator(seed=1)
        topo = single_bottleneck(sim, 10e6, 0.02, buffer_bytes=50_000)
        sender, receiver, stats = build_flow(sim, topo, kind)
        sender.start()
        sim.run(2.0)
        assert not sender.completed
        assert sender.path is not None and sender.controller is not None

    def test_late_packets_reach_a_finished_flow_and_are_ignored(self, kind):
        """A duplicate data packet that arrives after completion still finds
        the receiver through the route it carries, is counted as a duplicate
        and ACKed; the ACK finds the sender, which ignores it."""
        sim = Simulator(seed=1)
        topo = single_bottleneck(sim, 10e6, 0.02, buffer_bytes=50_000)
        sender, receiver, stats = build_flow(sim, topo, kind, total_bytes=60_000)
        sender.start()
        while not sender._outstanding:
            sim.run(sim.now + 0.001)
        first = next(iter(sender._outstanding.values()))
        sim.run_until_idle()
        assert sender.completed and sim.pending_events == 0
        before = dict(vars(stats))
        acks_sent = receiver._ack_packet_id
        seen = []
        ack_route = receiver._reverse_route
        deliver_ack = ack_route.destination

        def spy(ack):
            seen.append(ack)
            deliver_ack(ack)
        ack_route.destination = spy

        first.route.send(first)
        sim.run_until_idle()
        assert receiver._ack_packet_id == acks_sent + 1
        assert [ack.acked_packet_id for ack in seen] == [first.packet_id]
        moved = {name for name, value in vars(stats).items()
                 if value != before[name]}
        assert moved == {"packets_delivered", "bytes_delivered",
                         "duplicate_packets"}
        assert stats.duplicate_packets == before["duplicate_packets"] + 1
        assert sender.completed and not sender._outstanding
        assert sender._rto_event is None and sim.pending_events == 0

    def test_constructing_a_flow_draws_no_randomness_and_schedules_nothing(
            self, kind):
        """``run_flows`` builds a flow at its start time instead of before the
        run; that moves no simulated statistic only because construction
        touches neither the simulator's RNG nor its heap."""
        sim = Simulator(seed=5)
        topo = single_bottleneck(sim, 10e6, 0.02, buffer_bytes=50_000,
                                 loss_rate=0.01)
        state, pending = sim.rng.getstate(), sim.pending_events
        build_flow(sim, topo, kind, total_bytes=60_000)
        assert sim.rng.getstate() == state
        assert sim.pending_events == pending
