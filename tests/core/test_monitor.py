"""Unit tests for the performance monitor (MI lifecycle)."""

import pytest

from repro.core.controller import MIN_RATE_BPS
from repro.core import monitor as monitor_module
from repro.core.monitor import PerformanceMonitor
from repro.core.utility import SafeUtility
from repro.netsim import Simulator


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
        monitor, _, _ = make_monitor(sim, rate_bps=100e6,
                                     mi_rtt_range=(1.7, 2.2))
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
        assert monitor.min_rate_bps == MIN_RATE_BPS
        monitor.current_mi_id(0.0, 0.03)
        mi = monitor.current_interval
        expected = monitor.min_packets_per_mi * monitor.mss * 8.0 / MIN_RATE_BPS
        assert mi.send_end_time - mi.start_time == pytest.approx(expected)

    def test_rate_floor_configurable(self):
        sim = Simulator()
        monitor, _, _ = make_monitor(sim, rate_bps=1.0, min_rate_bps=64_000.0)
        monitor.current_mi_id(0.0, 0.03)
        mi = monitor.current_interval
        expected = monitor.min_packets_per_mi * monitor.mss * 8.0 / 64_000.0
        assert mi.send_end_time - mi.start_time == pytest.approx(expected)

    def test_nonpositive_rate_floor_rejected(self):
        """The floor divides the MI-duration computation; zero would crash it."""
        sim = Simulator()
        with pytest.raises(ValueError):
            make_monitor(sim, min_rate_bps=0.0)


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
