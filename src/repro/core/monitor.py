"""The PCC performance monitor (§3.1).

The monitor owns the monitor-interval (MI) lifecycle:

1. When the sender asks which MI a new packet belongs to, the monitor checks
   whether the current MI's sending phase is over; if so it closes it, asks the
   control algorithm for the next rate, and opens a new MI whose length is
   ``max(time to send min_packets packets, U[1.7, 2.2] * RTT)`` — the rule from
   §3.1 that guarantees enough samples per MI.
2. As SACKs arrive (or packets are declared lost), the per-MI counters are
   updated.
3. Once every packet of a closed MI is accounted for — or a completion deadline
   expires — the MI's utility is computed with the configured utility function
   and the result is handed to the control algorithm.

The monitor never pauses the sender: data keeps flowing at the current rate
while results for earlier MIs are still outstanding, exactly as the paper
emphasises.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, Optional, Tuple

from ..netsim.engine import Event, Simulator
from ..netsim.packet import DEFAULT_MSS
from ..units import BITS_PER_BYTE
from .controller import MIN_RATE_BPS
from .metrics import MonitorIntervalStats
from .utility import SafeUtility, UtilityFunction

__all__ = ["PerformanceMonitor"]

#: Default MI length randomisation range, in multiples of the RTT (§3.1).
DEFAULT_MI_RTT_RANGE = (1.7, 2.2)

#: Minimum number of packets an MI must be long enough to carry.  The paper
#: uses 10; we default to 25 so that a *single* random loss cannot push the
#: measured loss rate of a small MI past the safe utility's 5% sigmoid
#: threshold (with 10 packets one loss reads as 10% loss and flips the utility
#: sign, which makes low-rate decisions pure noise).  The deviation is recorded
#: in EXPERIMENTS.md; the paper's value is this one constant away.
DEFAULT_MIN_PACKETS_PER_MI = 25

#: A closed MI still missing feedback this many RTTs after its sending phase
#: ended is completed with the missing packets counted as lost.
_COMPLETION_TIMEOUT_RTTS = 4.0

#: Completed MIs kept in :attr:`PerformanceMonitor.completed_intervals`.
_MAX_COMPLETED_HISTORY = 100_000


class PerformanceMonitor:
    """Tracks monitor intervals and converts SACK feedback into utilities."""

    def __init__(
        self,
        sim: Simulator,
        rate_provider: Callable[[float], Tuple[float, object]],
        on_mi_complete: Callable[[MonitorIntervalStats], None],
        utility_function: Optional[UtilityFunction] = None,
    ):
        self.sim = sim
        self._rate_provider = rate_provider
        self._on_mi_complete = on_mi_complete
        self.utility_function = utility_function or SafeUtility()
        self._active: Dict[int, MonitorIntervalStats] = {}
        #: Completion-deadline timer per closed-but-unfinished MI, cancelled on
        #: normal completion so long runs do not accumulate one dead event per
        #: MI in the simulator heap.
        self._deadline_events: Dict[int, Event] = {}
        #: The MI currently being used to tag outgoing packets.  A plain
        #: attribute: :class:`~repro.core.sender.PCCScheme` reads it once per
        #: transmitted packet and tags the packet with it.  Only
        #: :meth:`current_mi_id` and :meth:`realign` replace it.
        self.current_interval: Optional[MonitorIntervalStats] = None
        self._next_id = 0
        self._last_completed: Optional[MonitorIntervalStats] = None
        #: Completed MIs in completion order (kept for analysis/plots).  Bounded:
        #: once the cap is hit the *oldest* MIs are evicted, so long-run analysis
        #: always sees the most recent window rather than a truncated prefix.
        self.completed_intervals: Deque[MonitorIntervalStats] = deque(
            maxlen=_MAX_COMPLETED_HISTORY
        )
        #: Number of completed MIs evicted from :attr:`completed_intervals`.
        self.dropped_history = 0

    # ------------------------------------------------------------------ #
    # MI lifecycle
    # ------------------------------------------------------------------ #
    def current_mi_id(self, now: float, rtt_estimate: float) -> int:
        """Return the MI id new packets should carry, opening a new MI if needed."""
        current = self.current_interval
        if current is None or now >= current.send_end_time:
            self._close_current(now, rtt_estimate)
            current = self._open_new(now, rtt_estimate)
        return current.mi_id

    def realign(self, now: float, rtt_estimate: float) -> int:
        """Abort the current MI and start a fresh one immediately (§3.1).

        Used when the control algorithm changes the target rate in the middle
        of an interval (e.g. on exiting the starting state): continuing to send
        at the stale rate until the interval's scheduled end would prolong an
        overshoot, so the MI is closed now and a new one begins at the new rate.
        """
        self._close_current(now, rtt_estimate)
        return self._open_new(now, rtt_estimate).mi_id

    def _open_new(self, now: float, rtt_estimate: float) -> MonitorIntervalStats:
        rate_bps, purpose = self._rate_provider(now)
        # Sized against the controller's own rate floor, so the two never
        # disagree about the slowest rate.
        rate_bps = max(rate_bps, MIN_RATE_BPS)
        min_duration = DEFAULT_MIN_PACKETS_PER_MI * DEFAULT_MSS * BITS_PER_BYTE / rate_bps
        rtt = max(rtt_estimate, 1e-4)
        random_duration = self.sim.rng.uniform(*DEFAULT_MI_RTT_RANGE) * rtt
        duration = max(min_duration, random_duration)
        mi = MonitorIntervalStats(
            mi_id=self._next_id,
            target_rate_bps=rate_bps,
            start_time=now,
            send_end_time=now + duration,
            purpose=purpose,
        )
        self._next_id += 1
        self._active[mi.mi_id] = mi
        self.current_interval = mi
        return mi

    def _close_current(self, now: float, rtt_estimate: float) -> None:
        mi = self.current_interval
        if mi is None:
            return
        mi.send_phase_over = True
        # Give feedback one RTT (plus slack) to arrive before forcing completion.
        deadline = _COMPLETION_TIMEOUT_RTTS * max(rtt_estimate, 1e-4)
        self._deadline_events[mi.mi_id] = self.sim.schedule(
            deadline, self._force_complete, mi.mi_id
        )
        if mi.all_packets_accounted:
            self._complete(mi)

    # ------------------------------------------------------------------ #
    # Feedback
    # ------------------------------------------------------------------ #
    # Feedback keyed by MI id.  In a simulated flow the packet carries its MI
    # and :class:`~repro.core.sender.PCCScheme`'s hooks account it directly
    # (calling :meth:`_complete`); these are the same accounting for a caller
    # that holds ids.  Each hook finds the MI (``None`` and the ids of
    # completed MIs are simply not in ``_active``), moves its counters and —
    # where the counters it moved can finish the MI — tests
    # ``MonitorIntervalStats.all_packets_accounted``'s condition in place.
    def record_send(self, mi_id: Optional[int], size_bytes: int) -> None:
        """Account a transmitted packet to its MI."""
        mi = self._active.get(mi_id)
        if mi is not None:
            mi.packets_sent += 1
            mi.bytes_sent += size_bytes

    def record_ack(self, mi_id: Optional[int], size_bytes: int, rtt: float) -> None:
        """Account an acknowledgement, arriving now, to its MI and check for
        completion."""
        mi = self._active.get(mi_id)
        if mi is None:
            return
        mi.record_ack(size_bytes, rtt, self.sim.now)
        if mi.send_phase_over and mi.packets_acked + mi.packets_lost >= mi.packets_sent:
            self._complete(mi)

    def record_loss(self, mi_id: Optional[int]) -> None:
        """Account a declared loss to its MI and check for completion."""
        mi = self._active.get(mi_id)
        if mi is None:
            return
        mi.packets_lost += 1
        if mi.send_phase_over and mi.packets_acked + mi.packets_lost >= mi.packets_sent:
            self._complete(mi)

    # ------------------------------------------------------------------ #
    # Completion
    # ------------------------------------------------------------------ #
    def _force_complete(self, mi_id: int) -> None:
        mi = self._active.get(mi_id)
        if mi is None:
            return
        # _complete pops this (currently firing) deadline event's handle and
        # cancel()s it — a safe no-op, because the engine detaches fired
        # events before invoking their callbacks.
        mi.force_account_missing_as_lost()
        self._complete(mi)

    def _complete(self, mi: MonitorIntervalStats) -> None:
        if mi.completed:
            return
        mi.completed = True
        mi.complete_time = self.sim.now
        del self._active[mi.mi_id]
        deadline_event = self._deadline_events.pop(mi.mi_id, None)
        if deadline_event is not None:
            deadline_event.cancel()
        mi.utility = self.utility_function(mi, self._last_completed)
        self._last_completed = mi
        if len(self.completed_intervals) == _MAX_COMPLETED_HISTORY:
            self.dropped_history += 1
        self.completed_intervals.append(mi)
        self._on_mi_complete(mi)
