"""Unit tests for the performance monitor (MI lifecycle)."""

import random

import pytest

from repro.core.controller import MIN_RATE_BPS
from repro.core import make_pcc_sender
from repro.core import monitor as monitor_module
from repro.core.metrics import MonitorIntervalStats
from repro.core.monitor import PerformanceMonitor
from repro.core.utility import SafeUtility
from repro.netsim import Packet, Simulator, single_bottleneck


class RecordingProvider:
    """Rate provider stub that records how often it is asked for a rate."""

    def __init__(self, rate_bps=10e6):
        self.rate_bps = rate_bps
        self.calls = 0

    def __call__(self, now):
        self.calls += 1
        return self.rate_bps, ("purpose", self.calls)


def make_monitor(sim, rate_bps=10e6, **kwargs):
    provider = RecordingProvider(rate_bps)
    completed = []
    monitor = PerformanceMonitor(
        sim=sim,
        rate_provider=provider,
        on_mi_complete=completed.append,
        utility_function=SafeUtility(),
        **kwargs,
    )
    return monitor, provider, completed


class TestMILifecycle:
    def test_first_call_opens_interval(self):
        sim = Simulator()
        monitor, provider, _ = make_monitor(sim)
        mi_id = monitor.current_mi_id(0.0, rtt_estimate=0.03)
        assert mi_id == 0
        assert provider.calls == 1
        assert monitor.current_interval.target_rate_bps == 10e6

    def test_same_interval_reused_within_duration(self):
        sim = Simulator()
        monitor, provider, _ = make_monitor(sim)
        first = monitor.current_mi_id(0.0, 0.03)
        second = monitor.current_mi_id(0.01, 0.03)
        assert first == second
        assert provider.calls == 1

    def test_new_interval_after_duration(self):
        sim = Simulator()
        monitor, provider, _ = make_monitor(sim)
        monitor.current_mi_id(0.0, 0.03)
        end = monitor.current_interval.send_end_time
        sim.run(end + 0.001)
        new_id = monitor.current_mi_id(sim.now, 0.03)
        assert new_id == 1
        assert provider.calls == 2

    def test_duration_respects_rtt_randomisation_range(self):
        sim = Simulator(seed=3)
        monitor, _, _ = make_monitor(sim, rate_bps=100e6)
        assert monitor_module.DEFAULT_MI_RTT_RANGE == (1.7, 2.2)
        durations = []
        now = 0.0
        for _ in range(50):
            monitor.current_mi_id(now, 0.05)
            mi = monitor.current_interval
            durations.append(mi.send_end_time - mi.start_time)
            now = mi.send_end_time + 1e-6
            sim.now = now  # advance manually; no events needed for this check
        assert min(durations) >= 1.7 * 0.05 - 1e-9
        assert max(durations) <= 2.2 * 0.05 + 1e-9

    def test_duration_extends_to_fit_minimum_packets(self):
        sim = Simulator()
        # At 1 Mbps, 10 packets of 1500 B take 0.12 s > 2.2 * RTT(0.03) = 0.066 s.
        monitor, _, _ = make_monitor(sim, rate_bps=1e6)
        monitor.current_mi_id(0.0, 0.03)
        mi = monitor.current_interval
        assert mi.send_end_time - mi.start_time >= 10 * 1500 * 8 / 1e6 - 1e-9

    def test_rate_floor_defaults_to_controller_floor(self):
        """The MI-sizing floor is the controller's MIN_RATE_BPS, not a second
        magic number: a provider asking for an absurdly low rate yields an MI
        sized as if sending at exactly the shared floor."""
        sim = Simulator()
        monitor, _, _ = make_monitor(sim, rate_bps=1.0)
        assert monitor_module.MIN_RATE_BPS is MIN_RATE_BPS
        monitor.current_mi_id(0.0, 0.03)
        mi = monitor.current_interval
        expected = (monitor_module.DEFAULT_MIN_PACKETS_PER_MI * monitor.mss * 8.0
                    / MIN_RATE_BPS)
        assert mi.send_end_time - mi.start_time == pytest.approx(expected)

    def test_mi_sizing_reads_the_constants_when_an_mi_opens(self, monkeypatch):
        monkeypatch.setattr(monitor_module, "MIN_RATE_BPS", 64_000.0)
        monkeypatch.setattr(monitor_module, "DEFAULT_MIN_PACKETS_PER_MI", 10)
        sim = Simulator()
        monitor, _, _ = make_monitor(sim, rate_bps=1.0)
        monitor.current_mi_id(0.0, 0.03)
        mi = monitor.current_interval
        expected = 10 * monitor.mss * 8.0 / 64_000.0
        assert mi.send_end_time - mi.start_time == pytest.approx(expected)


class TestFeedbackAccounting:
    def test_ack_and_loss_attributed_to_right_interval(self):
        sim = Simulator()
        monitor, _, _ = make_monitor(sim)
        mi_id = monitor.current_mi_id(0.0, 0.03)
        monitor.record_send(mi_id, 1500)
        monitor.record_send(mi_id, 1500)
        monitor.record_ack(mi_id, 1500, 0.03)
        monitor.record_loss(mi_id)
        mi = monitor.current_interval
        assert mi.packets_sent == 2
        assert mi.packets_acked == 1
        assert mi.packets_lost == 1

    def test_unknown_or_none_mi_ignored(self):
        sim = Simulator()
        monitor, _, _ = make_monitor(sim)
        monitor.record_ack(None, 1500, 0.03)
        monitor.record_ack(999, 1500, 0.03)
        monitor.record_loss(None)
        monitor.record_send(None, 1500)
        assert not monitor._active

    def test_completion_when_all_packets_accounted(self):
        sim = Simulator()
        monitor, _, completed = make_monitor(sim)
        mi_id = monitor.current_mi_id(0.0, 0.03)
        for _ in range(5):
            monitor.record_send(mi_id, 1500)
        # Close the send phase by advancing past the MI and opening the next.
        end = monitor.current_interval.send_end_time
        sim.run(end + 0.001)
        monitor.current_mi_id(sim.now, 0.03)
        for _ in range(5):
            monitor.record_ack(mi_id, 1500, 0.03)
        assert len(completed) == 1
        assert completed[0].mi_id == mi_id
        assert completed[0].utility is not None

    @pytest.mark.parametrize("last", ["ack", "loss"])
    def test_interval_completes_inside_the_call_that_accounts_its_last_packet(self, last):
        sim = Simulator()
        monitor, _, completed = make_monitor(sim)
        mi_id = monitor.current_mi_id(0.0, 0.03)
        for _ in range(5):
            monitor.record_send(mi_id, 1500)
        sim.run(monitor.current_interval.send_end_time + 0.001)
        monitor.current_mi_id(sim.now, 0.03)
        for _ in range(4):
            monitor.record_ack(mi_id, 1500, 0.03)
        assert completed == []
        if last == "ack":
            monitor.record_ack(mi_id, 1500, 0.03)
        else:
            monitor.record_loss(mi_id)
        assert [mi.mi_id for mi in completed] == [mi_id]
        assert completed[0].completed and completed[0].complete_time == sim.now
        sim.run(sim.now + 1.0)  # the cancelled deadline must not complete it again
        assert len(completed) == 1

    @pytest.mark.parametrize("close", ["boundary", "realign"])
    def test_closing_a_fully_accounted_interval_completes_it_once(self, close):
        sim = Simulator()
        monitor, _, completed = make_monitor(sim)
        mi_id = monitor.current_mi_id(0.0, 0.03)
        for _ in range(3):
            monitor.record_send(mi_id, 1500)
        monitor.record_ack(mi_id, 1500, 0.03)
        monitor.record_ack(mi_id, 1500, 0.03)
        monitor.record_loss(mi_id)
        assert completed == []  # everything accounted, but the send phase is open
        if close == "boundary":
            sim.run(monitor.current_interval.send_end_time + 0.001)
            next_id = monitor.current_mi_id(sim.now, 0.03)
        else:
            next_id = monitor.realign(sim.now, 0.03)
        assert next_id == mi_id + 1
        assert [mi.mi_id for mi in completed] == [mi_id]
        assert not monitor._deadline_events
        sim.run(sim.now + 1.0)
        assert len(completed) == 1

    @pytest.mark.parametrize("target", [None, 999, "completed"])
    def test_feedback_for_an_inactive_id_changes_nothing(self, target):
        sim = Simulator()
        monitor, _, completed = make_monitor(sim)
        done_id = monitor.current_mi_id(0.0, 0.03)
        monitor.record_send(done_id, 1500)
        sim.run(monitor.current_interval.send_end_time + 0.001)
        live_id = monitor.current_mi_id(sim.now, 0.03)
        monitor.record_ack(done_id, 1500, 0.03)
        assert len(completed) == 1
        monitor.record_send(live_id, 1500)
        mi_id = done_id if target == "completed" else target
        monitor.record_send(mi_id, 1500)
        monitor.record_ack(mi_id, 1500, 0.03)
        monitor.record_loss(mi_id)
        assert len(completed) == 1
        done, live = completed[0], monitor.current_interval
        assert (done.packets_sent, done.packets_acked,
                done.packets_lost) == (1, 1, 0)
        assert (live.packets_sent, live.packets_acked,
                live.packets_lost) == (1, 0, 0)
        assert list(monitor._active) == [live_id]

    def test_force_completion_after_deadline(self):
        sim = Simulator()
        monitor, _, completed = make_monitor(sim)
        mi_id = monitor.current_mi_id(0.0, 0.03)
        for _ in range(5):
            monitor.record_send(mi_id, 1500)
        end = monitor.current_interval.send_end_time
        sim.run(end + 0.001)
        monitor.current_mi_id(sim.now, 0.03)
        # Only 2 of 5 packets ever acknowledged; the deadline must force
        # completion with the remaining 3 counted as lost.
        monitor.record_ack(mi_id, 1500, 0.03)
        monitor.record_ack(mi_id, 1500, 0.03)
        sim.run(sim.now + 1.0)
        assert len(completed) == 1
        assert completed[0].packets_lost == 3

    def test_late_feedback_for_completed_interval_ignored(self):
        sim = Simulator()
        monitor, _, completed = make_monitor(sim)
        mi_id = monitor.current_mi_id(0.0, 0.03)
        monitor.record_send(mi_id, 1500)
        end = monitor.current_interval.send_end_time
        sim.run(end + 0.001)
        monitor.current_mi_id(sim.now, 0.03)
        monitor.record_ack(mi_id, 1500, 0.03)
        assert len(completed) == 1
        # A duplicate/late ACK must not crash or double-complete.
        monitor.record_ack(mi_id, 1500, 0.03)
        assert len(completed) == 1

    def test_normal_completion_cancels_deadline_timer(self):
        """A normally-completed MI must not leave its completion-deadline
        event live in the simulator heap (one stale timer per MI used to
        linger for four RTTs each)."""
        sim = Simulator()
        monitor, _, completed = make_monitor(sim)
        now = 0.0
        for _ in range(10):
            mi_id = monitor.current_mi_id(now, 0.03)
            monitor.record_send(mi_id, 1500)
            end = monitor.current_interval.send_end_time
            sim.run(end + 0.001)
            now = sim.now
            monitor.current_mi_id(now, 0.03)  # closes the previous MI
            monitor.record_ack(mi_id, 1500, 0.03)
        assert len(completed) == 10
        assert not monitor._deadline_events
        # Only lazily-cancelled events may remain; none of them fires.
        fired = sim.events_processed
        sim.run(sim.now + 10.0)
        assert sim.events_processed == fired

    def test_forced_completion_clears_deadline_handle(self):
        sim = Simulator()
        monitor, _, completed = make_monitor(sim)
        mi_id = monitor.current_mi_id(0.0, 0.03)
        monitor.record_send(mi_id, 1500)
        end = monitor.current_interval.send_end_time
        sim.run(end + 0.001)
        monitor.current_mi_id(sim.now, 0.03)
        sim.run(sim.now + 1.0)  # deadline fires, forcing completion
        assert len(completed) == 1
        assert not monitor._deadline_events

    def test_completed_history_retained_in_order(self):
        sim = Simulator()
        monitor, _, completed = make_monitor(sim)
        now = 0.0
        for _round_index in range(3):
            mi_id = monitor.current_mi_id(now, 0.03)
            monitor.record_send(mi_id, 1500)
            end = monitor.current_interval.send_end_time
            sim.run(end + 0.001)
            now = sim.now
            monitor.current_mi_id(now, 0.03)
            monitor.record_ack(mi_id, 1500, 0.03)
        assert [mi.mi_id for mi in monitor.completed_intervals] == [0, 1, 2]
        assert len(completed) == 3
        assert monitor.dropped_history == 0

    def test_completed_history_keeps_most_recent_when_capped(self, monkeypatch):
        """Past the cap the *oldest* MIs are evicted (and counted), so a long
        run's history is the most recent window, not a truncated prefix."""
        monkeypatch.setattr(monitor_module, "_MAX_COMPLETED_HISTORY", 3)
        sim = Simulator()
        monitor, _, completed = make_monitor(sim)
        now = 0.0
        for _round_index in range(5):
            mi_id = monitor.current_mi_id(now, 0.03)
            monitor.record_send(mi_id, 1500)
            end = monitor.current_interval.send_end_time
            sim.run(end + 0.001)
            now = sim.now
            monitor.current_mi_id(now, 0.03)
            monitor.record_ack(mi_id, 1500, 0.03)
        assert len(completed) == 5  # the controller still saw every MI
        assert [mi.mi_id for mi in monitor.completed_intervals] == [2, 3, 4]
        assert monitor.dropped_history == 2

    def test_history_cap_is_read_only(self):
        """The cap is the deque's fixed maxlen, equal to the module constant
        the dropped counter compares against; a rebindable cap would
        silently desynchronize retention from that counter."""
        sim = Simulator()
        monitor, _, _ = make_monitor(sim)
        history = monitor.completed_intervals
        assert history.maxlen == monitor_module._MAX_COMPLETED_HISTORY
        with pytest.raises(AttributeError):
            history.maxlen = 10


class TestSchemeHooksEqualTheirReference:
    """In a simulated flow the packet carries its MI and ``PCCScheme``'s
    ``record_ack`` / ``record_loss`` account it in one frame.  Driven with
    forged ACKs and losses, they must leave every MI, the completion order
    and the controller exactly where the monitor's id-keyed hooks —
    ``MonitorIntervalStats.record_ack`` / ``record_loss`` plus the
    completion test — leave them, bit for bit."""

    MI_FIELDS = tuple(MonitorIntervalStats.__slots__)

    @staticmethod
    def world(seed):
        """A PCC scheme bound to an unstarted sender on its own simulator."""
        sim = Simulator(seed=seed)
        topo = single_bottleneck(sim, 20e6, 0.03, 100_000)
        sender, _, scheme = make_pcc_sender(sim, 1, topo.path)
        scheme.on_flow_start(sender, 0.0)
        return sim, scheme

    @classmethod
    def state(cls, scheme):
        monitor = scheme.monitor
        intervals = list(monitor.completed_intervals) + sorted(
            monitor._active.values(), key=lambda mi: mi.mi_id)
        return ([tuple(getattr(mi, name) for name in cls.MI_FIELDS)
                 for mi in intervals],
                scheme.rate_bps, scheme.controller.rate_bps)

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_forged_feedback_matches_the_id_keyed_hooks(self, seed):
        rng = random.Random(seed)
        (sim, scheme), (ref_sim, reference) = self.world(seed), self.world(seed)
        sent = []       # (packet tagged with the MI, the reference MI id)
        unaccounted = 0     # sent[unaccounted:] have had no feedback yet
        seen = {"completed_before": 0, "completed_by_hook": 0, "rtt<=0": 0,
                "rtt>0": 0}
        now = 0.0
        for step in range(4_000):
            now += rng.choice((0.0, 0.0002, 0.001, 0.004))
            sim.run(now)
            ref_sim.run(now)
            action = rng.random()
            if action < 0.35 or unaccounted == len(sent):
                mi, ref_mi = scheme.current_mi(now), reference.current_mi(now)
                size = rng.choice((40, 1500))
                mi.record_send(size)            # the tick's count
                reference.monitor.record_send(ref_mi.mi_id, size)
                sent.append((Packet(1, step, step, size, now, False, mi),
                             ref_mi.mi_id))
                continue
            # Mostly the oldest packet without feedback, so MIs complete in
            # the hooks; else any packet, so repeats and feedback for
            # completed MIs happen too.
            if rng.random() < 0.8:
                packet, ref_id = sent[unaccounted]
                unaccounted += 1
            else:
                packet, ref_id = sent[rng.randrange(len(sent))]
            seen["completed_before"] += packet.mi.completed
            if action < 0.85:
                rtt = rng.choice((0.0, -0.01, 0.03, rng.uniform(0.001, 0.5)))
                seen["rtt>0" if rtt > 0 else "rtt<=0"] += 1
                scheme.record_ack(packet, rtt, now)
                reference.monitor.record_ack(ref_id, packet.size_bytes, rtt)
            else:
                scheme.record_loss(packet, now)
                reference.monitor.record_loss(ref_id)
            seen["completed_by_hook"] += packet.mi.completed
            assert self.state(scheme) == self.state(reference)
        seen["completed_by_hook"] -= seen["completed_before"]
        assert len(scheme.monitor.completed_intervals) > 10
        assert all(seen.values()), seen
