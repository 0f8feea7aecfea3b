"""PCC wired into the network simulator.

:class:`PCCScheme` implements the :class:`repro.cc.base.RateController`
protocol expected by :class:`repro.netsim.endpoints.RateBasedSender`, gluing
together the three PCC components:

* the :class:`~repro.core.monitor.PerformanceMonitor` (MI lifecycle and SACK
  aggregation),
* a pluggable :mod:`utility function <repro.core.utility>`, and
* the paper's three-state learning control,
  :class:`~repro.core.controller.PCCController`.

:func:`make_pcc_sender` is the one-call convenience constructor used by the
examples and the experiment runner.
"""

from __future__ import annotations

from typing import Optional

from ..netsim.endpoints import RateBasedSender, Receiver, connect
from ..netsim.engine import Simulator
from ..netsim.packet import DEFAULT_MSS
from ..netsim.route import Path
from ..netsim.stats import FlowStats
from ..units import BITS_PER_BYTE
from .controller import PCCController
from .metrics import MonitorIntervalStats
from .monitor import PerformanceMonitor
from .utility import SafeUtility, UtilityFunction, make_utility

__all__ = ["PCCScheme", "make_pcc_sender"]


class PCCScheme:
    """The complete PCC endpoint logic, exposed as a rate controller.

    ``epsilon_min`` / ``epsilon_max`` / ``use_rct`` configure the
    :class:`~repro.core.controller.PCCController` the scheme builds
    (``scheme.controller``); its rate bounds and the monitor's interval
    sizing are module constants (``MIN_RATE_BPS`` / ``MAX_RATE_BPS``,
    ``DEFAULT_MI_RTT_RANGE`` / ``DEFAULT_MIN_PACKETS_PER_MI``).  ``utility`` selects a registered utility
    name (``"safe"``, ``"simple"``, ``"loss_resilient"``, ``"latency"``) —
    what the sweep layers ship across process boundaries — and
    ``utility_function`` passes a bespoke instance in single-process code.
    ``initial_rate_bps=None`` means §3.2's ``2 * MSS / RTT``, applied at flow
    start once the path RTT is known.
    """

    def __init__(
        self,
        utility_function: Optional[UtilityFunction] = None,
        epsilon_min: float = 0.01,
        epsilon_max: float = 0.05,
        use_rct: bool = True,
        initial_rate_bps: Optional[float] = None,
        mss: int = DEFAULT_MSS,
        utility: Optional[str] = None,
    ):
        if utility is not None and utility_function is not None:
            raise ValueError("pass either utility (a registered name) or "
                             "utility_function (an instance), not both")
        if utility is not None:
            self.utility_function: UtilityFunction = make_utility(utility)
        else:
            self.utility_function = utility_function or SafeUtility()
        self.controller = PCCController(
            initial_rate_bps=initial_rate_bps or 1_000_000.0,
            epsilon_min=epsilon_min,
            epsilon_max=epsilon_max,
            use_rct=use_rct,
        )
        self.initial_rate_bps = initial_rate_bps
        self.mss = mss
        #: The pacing rate (:class:`repro.cc.base.RateController`), published
        #: rather than computed: §3.1 fixes it for a whole monitor interval, so
        #: it is written at flow start and wherever an MI opens
        #: (:meth:`_open_mi`) and the sender reads it on every tick and ACK.
        self.rate_bps: float = self.controller.rate_bps
        self.monitor: Optional[PerformanceMonitor] = None
        self._sender: Optional[RateBasedSender] = None
        self._sim: Optional[Simulator] = None

    # ------------------------------------------------------------------ #
    # RateController protocol
    # ------------------------------------------------------------------ #
    def on_flow_start(self, sender: RateBasedSender, now: float) -> None:
        """Bind to the sender: pick the initial rate and build the monitor."""
        self._sender = sender
        self._sim = sender.sim
        base_rtt = max(sender.path.base_rtt, 1e-4)
        if self.initial_rate_bps is None:
            # §3.2: start at 2 * MSS / RTT, exactly like TCP's initial window.
            self.controller.reset_initial_rate(
                2.0 * sender.mss * BITS_PER_BYTE / base_rtt)
        self.controller.attach_rng(sender.sim.rng)
        self.monitor = PerformanceMonitor(
            sim=sender.sim,
            rate_provider=self.controller.next_rate,
            on_mi_complete=self.controller.on_mi_complete,
            utility_function=self.utility_function,
            mss=sender.mss,
        )
        # Until the first packet opens the first MI the flow paces at the
        # controller's (just reset) starting rate.
        self.rate_bps = self.controller.rate_bps

    def current_mi(self, now: float) -> Optional[MonitorIntervalStats]:
        """The MI a packet sent now belongs to (opens a new MI at interval
        boundaries); the sender tags the packet with it and counts the send
        on it.

        If the control algorithm moved its base rate substantially away from
        the in-flight MI's rate (it learned mid-interval that the rate was
        wrong, e.g. when exiting the starting state), the MI is re-aligned: the
        stale interval is closed and a new one starts at the new rate (§3.1).
        """
        monitor = self.monitor
        if monitor is None:
            return None
        # Both tests run here, once per packet, with compares (abs() is a
        # builtin call); the monitor is only entered when an MI actually opens.
        current = monitor.current_interval
        if current is None or now >= current.send_end_time:
            current = self._open_mi(monitor.current_mi_id, now)
        target = current.target_rate_bps
        if target > 0:
            moved = self.controller.rate_bps - target
            if moved < 0:
                moved = -moved
            if moved / target > 0.25:
                current = self._open_mi(monitor.realign, now)
        return current

    def _open_mi(self, open_mi, now: float) -> MonitorIntervalStats:
        """Open the next MI with ``open_mi``, sized against the smoothed RTT
        (the path's base RTT before the first sample), and publish its
        rate."""
        sender = self._sender
        rtt = sender.rtt.srtt
        if rtt is None:
            rtt = max(sender.path.base_rtt, 1e-4)
        open_mi(now, rtt)
        current = self.monitor.current_interval
        self.rate_bps = current.target_rate_bps
        return current

    # The per-packet hooks.  The packet carries its MI (``record.mi``); an
    # MI that has completed is no longer counted to.  Each hook moves the
    # MI's counters — ``MonitorIntervalStats.record_ack`` /
    # ``record_loss``'s arithmetic — and tests the monitor's completion
    # condition in its own frame.
    def record_ack(self, record, rtt: float, now: float) -> None:
        """Account the ACK of ``record``, arriving now, to its MI."""
        mi = record.mi
        if mi is None or mi.completed:
            return
        mi.packets_acked += 1
        mi.bytes_acked += record.size_bytes
        if rtt > 0:
            mi.rtt_sum += rtt
            mi.rtt_count += 1
        if mi.first_ack_time is None:
            mi.first_ack_time = now
        mi.last_ack_time = now
        if mi.send_phase_over and mi.packets_acked + mi.packets_lost >= mi.packets_sent:
            self.monitor._complete(mi)

    def record_loss(self, record, now: float) -> None:
        """Account the declared loss of ``record`` to its MI."""
        mi = record.mi
        if mi is None or mi.completed:
            return
        mi.packets_lost += 1
        if mi.send_phase_over and mi.packets_acked + mi.packets_lost >= mi.packets_sent:
            self.monitor._complete(mi)

    #: The :class:`repro.cc.base.RateController` names of the two hooks.
    on_ack = record_ack
    on_loss = record_loss

    def on_timeout(self, expired, now: float) -> None:
        for record in expired:
            self.record_loss(record, now)

    # ------------------------------------------------------------------ #
    # Helpers / introspection
    # ------------------------------------------------------------------ #
    @property
    def completed_intervals(self) -> list[MonitorIntervalStats]:
        """Completed MIs as a list (empty before the flow starts).

        The monitor keeps a bounded deque of the most recent MIs; see
        ``monitor.dropped_history`` for how many older ones were evicted.
        """
        if self.monitor is None:
            return []
        return list(self.monitor.completed_intervals)


def make_pcc_sender(
    sim: Simulator,
    flow_id: int,
    path: Path,
    stats: Optional[FlowStats] = None,
    total_bytes: Optional[float] = None,
    start_time: float = 0.0,
    mss: int = DEFAULT_MSS,
    receiver: Optional[Receiver] = None,
    **scheme_kwargs,
) -> tuple[RateBasedSender, Receiver, PCCScheme]:
    """Build a connected PCC sender/receiver pair on ``path``.

    Returns ``(sender, receiver, scheme)``; the caller still needs to invoke
    ``sender.start()`` (typically after creating all flows in a scenario).
    """
    stats = stats or FlowStats(flow_id)
    scheme = PCCScheme(mss=mss, **scheme_kwargs)
    sender = RateBasedSender(
        sim,
        flow_id,
        path,
        scheme,
        stats,
        total_bytes=total_bytes,
        mss=mss,
        start_time=start_time,
    )
    receiver = receiver or Receiver(sim, flow_id, stats)
    connect(sender, receiver, path)
    return sender, receiver, scheme
