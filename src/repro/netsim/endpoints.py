"""Flow endpoints: senders and receivers.

Two sender families cover every protocol in the paper's evaluation:

:class:`WindowedSender`
    Classic ack-clocked TCP machinery: a congestion window supplied by a
    pluggable *window controller* (New Reno, CUBIC, Illinois, Hybla, ...),
    duplicate-ACK loss detection, retransmission timeouts, slow start and
    optional packet pacing (the "TCP Pacing" baseline of Figure 9).

:class:`RateBasedSender`
    A paced, rate-controlled sender driven by a pluggable *rate controller*
    (PCC, SABUL/UDT, PCP).  Packets leave at the controller's current rate;
    ACK/loss feedback is forwarded to the controller, which may change the rate
    at any time.

Both share :class:`SenderBase`, which owns the reliability machinery: sequence
numbers, SACK-style per-packet acknowledgement, duplicate-ACK loss inference,
RTO handling, and the per-flow statistics described in
:mod:`repro.netsim.stats`.

Controllers are duck-typed: the abstract interfaces live in
:mod:`repro.cc.base` (so the substrate does not depend on the algorithms built
on top of it), and any object with the right methods works.
"""

from __future__ import annotations

import math

from collections import OrderedDict, deque
from typing import Callable, Deque, Optional, Sequence

from ..units import BITS_PER_BYTE
from .engine import Event, Simulator
from .packet import ACK_SIZE_BYTES, DEFAULT_MSS, Packet
from .route import Path
from .stats import FlowStats, RTTEstimator, SequenceTracker

__all__ = [
    "Receiver",
    "SenderBase",
    "WindowedSender",
    "RateBasedSender",
    "connect",
]

#: Number of later ACKs after which an unacknowledged packet is declared lost
#: (the classic triple-duplicate-ACK threshold).
DUPACK_THRESHOLD = 3


class Receiver:
    """Receives data packets, accounts goodput and returns one ACK per packet."""

    def __init__(self, sim: Simulator, flow_id: int, stats: FlowStats,
                 ack_size: int = ACK_SIZE_BYTES):
        self.sim = sim
        self.flow_id = flow_id
        self.stats = stats
        self.ack_size = ack_size
        self.delivered = SequenceTracker()
        self._ack_packet_id = 0
        self._reverse_route = None  # bound via connect()

    def bind_reverse_route(self, route) -> None:
        """Attach the route ACKs travel on (receiver -> sender)."""
        self._reverse_route = route

    def receive(self, packet: Packet) -> None:
        """Handle one arriving data packet: account it and echo an ACK."""
        if packet.is_ack:
            raise RuntimeError("receiver got an ACK packet on the data path")
        if packet.is_probe:
            is_new = False
        else:
            is_new = self.delivered.add(packet.data_seq)
        now = self.sim.now
        self.stats.record_delivery(now, packet.size_bytes, is_new)
        route = self._reverse_route
        if route is None:
            return
        self._ack_packet_id += 1
        route.send(packet.make_ack(self._ack_packet_id, self.ack_size, now))


class SenderBase:
    """Shared sender machinery: sequencing, loss detection, RTO, statistics."""

    def __init__(
        self,
        sim: Simulator,
        flow_id: int,
        path: Path,
        stats: FlowStats,
        total_bytes: Optional[float] = None,
        mss: int = DEFAULT_MSS,
        start_time: float = 0.0,
        min_rto: float = 0.2,
        initial_rto: float = 1.0,
    ):
        self.sim = sim
        self.flow_id = flow_id
        self.path = path
        self.stats = stats
        self.mss = mss
        self.start_time = start_time
        self.total_segments: Optional[int] = (
            None if total_bytes is None else max(1, int(-(-total_bytes // mss)))
        )
        self.rtt = RTTEstimator(min_rto=min_rto, initial_rto=initial_rto)
        # Transmission state.
        self._next_packet_id = 0
        self._next_new_seq = 0
        #: Transmitted-but-unacknowledged packets by ``packet_id``.  The
        #: :class:`Packet` is its own sent-record: the fields the sender and
        #: the controllers read back (``packet_id``, ``data_seq``,
        #: ``size_bytes``, ``sent_time``, ``mi_id``, ``is_retransmission``,
        #: ``is_probe``) are never written after construction.
        self._outstanding: "OrderedDict[int, Packet]" = OrderedDict()
        self._retransmit_queue: Deque[int] = deque()
        self._retransmit_pending: set[int] = set()
        self._acked_segments = SequenceTracker()
        self._highest_acked_packet_id = -1
        self._rto_event: Optional[Event] = None
        self._rto_deadline = math.inf
        self._started = False
        self.completed = False
        #: Called once when a finite flow finishes (all segments acknowledged),
        #: after the sender has let go of its path and controller;
        #: ``run_flows`` sets it so the flow's record drops the endpoints too.
        self.on_complete: Optional[Callable[["SenderBase"], None]] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Schedule the flow to begin at its start time."""
        self.sim.schedule_at(max(self.start_time, self.sim.now), self._begin)

    def _begin(self) -> None:
        if self._started:
            return
        self._started = True
        self.stats.start_time = self.sim.now
        self._on_start()

    def _on_start(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Data availability
    # ------------------------------------------------------------------ #
    def has_data_to_send(self) -> bool:
        """Whether there is anything (new data or retransmission) to transmit."""
        if self.completed:
            return False
        if self._retransmit_queue:
            return True
        if self.total_segments is None:
            return True
        return self._next_new_seq < self.total_segments

    @property
    def inflight_packets(self) -> int:
        """Number of transmitted-but-unacknowledged packets."""
        return len(self._outstanding)

    # ------------------------------------------------------------------ #
    # Transmission
    # ------------------------------------------------------------------ #
    def _next_data_seq(self) -> Optional[tuple[int, bool]]:
        """Pick the next segment to transmit: retransmissions take priority."""
        while self._retransmit_queue:
            seq = self._retransmit_queue.popleft()
            self._retransmit_pending.discard(seq)
            if seq not in self._acked_segments:
                return seq, True
        if self.total_segments is None or self._next_new_seq < self.total_segments:
            seq = self._next_new_seq
            self._next_new_seq += 1
            return seq, False
        return None

    def _transmit(self, mi_id: Optional[int] = None,
                  is_probe: bool = False) -> Optional[Packet]:
        """Send one packet (retransmission first, then new data)."""
        if self.completed:
            return None
        if is_probe:
            seq, retransmission = -1, False
        else:
            choice = self._next_data_seq()
            if choice is None:
                return None
            seq, retransmission = choice
        packet_id = self._next_packet_id
        self._next_packet_id += 1
        sim = self.sim
        now = sim.now
        mss = self.mss
        packet = Packet(
            self.flow_id, packet_id, seq, mss, now,
            mi_id=mi_id, is_retransmission=retransmission, is_probe=is_probe,
        )
        self._outstanding[packet_id] = packet
        self.stats.record_send(now, mss, retransmission)
        # Push the RTO deadline out; arm the timer only if none is pending.
        self._rto_deadline = deadline = now + self.rtt.rto
        if self._rto_event is None:
            self._rto_event = sim.schedule_at(deadline, self._handle_rto)
        self.path.forward_route.send(packet)
        self._on_packet_sent(packet)
        return packet

    def _on_packet_sent(self, record: Packet) -> None:
        """Hook for subclasses (e.g. notify the rate controller)."""

    # ------------------------------------------------------------------ #
    # Acknowledgement handling
    # ------------------------------------------------------------------ #
    def receive_ack(self, ack: Packet) -> None:
        """Entry point for ACK packets arriving over the reverse route."""
        if not ack.is_ack:
            raise RuntimeError("sender got a data packet on the ACK path")
        if self.completed:
            return
        outstanding = self._outstanding
        record = outstanding.pop(ack.acked_packet_id, None)
        sim = self.sim
        now = sim.now
        rtt_sample = now - ack.ack_sent_time
        self.rtt.update(rtt_sample)
        newly_acked = False
        if record is not None:
            self.stats.record_ack(record.size_bytes, rtt_sample)
            if not record.is_probe:
                newly_acked = self._acked_segments.add(record.data_seq)
            if record.packet_id > self._highest_acked_packet_id:
                self._highest_acked_packet_id = record.packet_id
        # Loss inference: everything sent DUPACK_THRESHOLD packet-ids before the
        # highest acknowledged transmission is declared lost.  The usual ACK
        # leaves packets in flight and exposes no loss, so it builds no list
        # and pushes the RTO deadline out right here — what _detect_losses()
        # and _restart_rto_timer() would have come to, without their frames.
        lost: Sequence[Packet] = ()
        if outstanding and (next(iter(outstanding))
                            >= self._highest_acked_packet_id - DUPACK_THRESHOLD):
            self._rto_deadline = deadline = now + self.rtt.rto
            if self._rto_event is None:
                self._rto_event = sim.schedule_at(deadline, self._handle_rto)
        else:
            lost = self._detect_losses()
            self._restart_rto_timer()
        self._on_ack(record, rtt_sample, newly_acked)
        if ack.ecn_echo and record is not None:
            # The acked packet crossed a congested AQM that marked it
            # instead of dropping it; surface the congestion signal to
            # the scheme's response hook.  Delivery accounting already
            # happened above — an ECN mark is never a loss.
            self._on_ecn(record)
        for lost_record in lost:
            self._on_loss(lost_record)
        if self.total_segments is not None:
            self._check_completion()
            if self.completed:
                return
        self._after_ack_processing()

    def _detect_losses(self) -> list[Packet]:
        outstanding = self._outstanding
        threshold = self._highest_acked_packet_id - DUPACK_THRESHOLD
        lost: list[Packet] = []
        while outstanding:
            first_id = next(iter(outstanding))
            if first_id >= threshold:
                break
            record = outstanding.pop(first_id)
            lost.append(record)
            self.stats.record_loss()
            self._queue_retransmission(record)
        return lost

    def _queue_retransmission(self, record: Packet) -> None:
        if record.is_probe:
            return
        seq = record.data_seq
        if seq in self._acked_segments or seq in self._retransmit_pending:
            return
        self._retransmit_queue.append(seq)
        self._retransmit_pending.add(seq)

    def _check_completion(self) -> None:
        if self.completed or self.total_segments is None:
            return
        if self._acked_segments.count >= self.total_segments:
            self.completed = True
            self.stats.completion_time = self.sim.now
            self._cancel_rto_timer()
            self._on_flow_complete()
            # A finished flow sends nothing more.  Late packets still find
            # both endpoints through the routes they carry; letting go of the
            # path here breaks the sender -> path -> route -> sender cycle, so
            # the endpoints are freed by reference count once those packets
            # and the cancelled timers have left the heap.
            self.path = None
            if self.on_complete is not None:
                self.on_complete(self)

    def _on_flow_complete(self) -> None:
        """Hook for subclasses to stop timers and drop their controller when
        the flow finishes."""

    # ------------------------------------------------------------------ #
    # Retransmission timeout
    # ------------------------------------------------------------------ #
    # The deadline is tracked separately from the scheduled event so that the
    # common case (an ACK pushing the deadline out) costs one attribute write
    # instead of a cancel + reschedule per ACK: the timer fires, notices the
    # deadline moved, and re-arms itself for the remaining interval.
    def _restart_rto_timer(self) -> None:
        if self._outstanding or self.has_data_to_send():
            sim = self.sim
            self._rto_deadline = deadline = sim.now + self.rtt.rto
            if self._rto_event is None:
                self._rto_event = sim.schedule_at(deadline, self._handle_rto)
        else:
            self._cancel_rto_timer()

    def _cancel_rto_timer(self) -> None:
        if self._rto_event is not None:
            self._rto_event.cancel()
            self._rto_event = None
        self._rto_deadline = math.inf

    def _handle_rto(self) -> None:
        self._rto_event = None
        if self.completed:
            return
        if self.sim.now < self._rto_deadline:
            # The deadline moved forward since this event was scheduled; re-arm
            # for the remainder instead of treating it as a timeout.
            self._rto_event = self.sim.schedule(
                self._rto_deadline - self.sim.now, self._handle_rto
            )
            return
        if not self._outstanding:
            # Nothing in flight; the timer only needs to tick again if the
            # subclass is waiting for a transmission opportunity.
            self._after_timeout(had_outstanding=False)
            return
        self.stats.timeouts += 1
        expired = list(self._outstanding.values())
        self._outstanding.clear()
        for record in expired:
            self.stats.record_loss()
            self._queue_retransmission(record)
        self._restart_rto_timer()
        self._on_timeout(expired)
        self._after_timeout(had_outstanding=True)

    # ------------------------------------------------------------------ #
    # Subclass hooks
    # ------------------------------------------------------------------ #
    def _on_ack(self, record: Optional[Packet], rtt_sample: float,
                newly_acked: bool) -> None:
        raise NotImplementedError

    def _on_loss(self, record: Packet) -> None:
        raise NotImplementedError

    def _on_timeout(self, expired: list[Packet]) -> None:
        raise NotImplementedError

    def _on_ecn(self, record: Packet) -> None:
        """Congestion signal: the acked packet was ECN-marked by an AQM.

        Default is to ignore the signal (schemes predating ECN keep their
        exact behavior); ECN-aware senders override.
        """

    def _after_ack_processing(self) -> None:
        """Called after every ACK once controller state is updated."""

    def _after_timeout(self, had_outstanding: bool) -> None:
        """Called after RTO processing."""


class WindowedSender(SenderBase):
    """Ack-clocked sender driven by a window controller (the TCP family).

    The window controller exposes ``cwnd`` (in packets) and reacts to
    ``on_ack(rtt, now)``, ``on_loss(now)`` and ``on_timeout(now)``; see
    :class:`repro.cc.base.WindowController`.  Loss events within one round trip
    collapse into a single ``on_loss`` call, mirroring TCP's once-per-window
    multiplicative decrease.

    Setting ``pacing=True`` spreads transmissions at ``cwnd / srtt`` instead of
    sending in bursts, which is the "TCP Pacing" baseline in Figure 9.
    """

    def __init__(
        self,
        sim: Simulator,
        flow_id: int,
        path: Path,
        controller,
        stats: FlowStats,
        total_bytes: Optional[float] = None,
        mss: int = DEFAULT_MSS,
        start_time: float = 0.0,
        pacing: bool = False,
    ):
        super().__init__(sim, flow_id, path, stats, total_bytes, mss, start_time)
        self.controller = controller
        self.pacing = pacing
        self._recovery_exit_packet_id = -1
        self._pacing_timer: Optional[Event] = None

    # -- lifecycle ----------------------------------------------------------
    def _on_start(self) -> None:
        self._fill_window()

    def _on_flow_complete(self) -> None:
        if self._pacing_timer is not None:
            self._pacing_timer.cancel()
            self._pacing_timer = None
        self.controller = None

    # -- window filling -------------------------------------------------------
    def _cwnd_packets(self) -> int:
        return max(1, int(self.controller.cwnd))

    def _pacing_rate_bps(self) -> float:
        srtt = self.rtt.srtt or self.path.base_rtt or 0.05
        return self.controller.cwnd * self.mss * BITS_PER_BYTE / max(srtt, 1e-6)

    def _fill_window(self) -> None:
        if self.completed:
            return
        if self.pacing:
            self._schedule_paced_send()
            return
        # Nothing inside the loop moves cwnd (the controller only hears ACKs,
        # losses and timeouts), and _transmit() returns None exactly when
        # has_data_to_send() would be false.
        cwnd = int(self.controller.cwnd)
        if cwnd < 1:
            cwnd = 1
        outstanding = self._outstanding
        while len(outstanding) < cwnd:
            if self._transmit() is None:
                break

    def _schedule_paced_send(self) -> None:
        if self._pacing_timer is not None or self.completed:
            return
        if self.inflight_packets >= self._cwnd_packets() or not self.has_data_to_send():
            return
        rate = max(self._pacing_rate_bps(), 1e3)
        interval = self.mss * BITS_PER_BYTE / rate
        self._pacing_timer = self.sim.schedule(interval, self._paced_send)

    def _paced_send(self) -> None:
        self._pacing_timer = None
        if self.completed:
            return
        if self.inflight_packets < self._cwnd_packets() and self.has_data_to_send():
            self._transmit()
        self._schedule_paced_send()

    # -- controller callbacks -------------------------------------------------
    def _on_ack(self, record, rtt_sample: float, newly_acked: bool) -> None:
        if record is None:
            return
        self.controller.on_ack(rtt_sample, self.sim.now)
        if record.packet_id >= self._recovery_exit_packet_id:
            self._recovery_exit_packet_id = -1

    def _on_loss(self, record) -> None:
        # One congestion response per window of data: further losses detected
        # before the recovery point is acknowledged do not shrink cwnd again.
        if self._recovery_exit_packet_id < 0:
            self._recovery_exit_packet_id = self._next_packet_id
            self.controller.on_loss(self.sim.now)

    def _on_timeout(self, expired) -> None:
        self._recovery_exit_packet_id = self._next_packet_id
        self.controller.on_timeout(self.sim.now)

    def _on_ecn(self, record) -> None:
        # RFC 3168: an ECN echo triggers the same multiplicative decrease as
        # a loss — once per window of data — but the marked packet was
        # delivered, so nothing is retransmitted.
        if self._recovery_exit_packet_id < 0:
            self._recovery_exit_packet_id = self._next_packet_id
            self.controller.on_loss(self.sim.now)

    #: An ACK may have opened the window: filling it is the whole after-ACK step.
    _after_ack_processing = _fill_window

    def _after_timeout(self, had_outstanding: bool) -> None:
        self._fill_window()


class RateBasedSender(SenderBase):
    """Paced sender driven by a rate controller (PCC, SABUL, PCP).

    The controller exposes ``rate_bps`` plus feedback hooks; see
    :class:`repro.cc.base.RateController`.  The sender keeps a self-rescheduling
    pacing timer: each tick transmits one MSS-sized packet and re-arms the timer
    using the controller's *current* rate, so rate changes take effect within
    one packet time.  ``rate_bps`` is read as an attribute — the rate-paced
    counterpart of the windowed sender's ``controller.cwnd`` — once per packet,
    after the tick's transmission: the controller publishes its rate when it
    changes it, the per-packet path never asks for it to be worked out.
    """

    def __init__(
        self,
        sim: Simulator,
        flow_id: int,
        path: Path,
        controller,
        stats: FlowStats,
        total_bytes: Optional[float] = None,
        mss: int = DEFAULT_MSS,
        start_time: float = 0.0,
        max_inflight_packets: int = 100_000,
        min_rto: float = 0.01,
        initial_rto: float = 0.1,
    ):
        # User-space rate-based transports (PCC's UDT skeleton, SABUL, PCP) run
        # their own fine-grained timers instead of the kernel's 200 ms floor and
        # 1 s initial RTO, which is what lets PCC recover tail losses quickly
        # under incast (the kernel defaults stay in place for the TCP family).
        super().__init__(sim, flow_id, path, stats, total_bytes, mss, start_time,
                         min_rto=min_rto, initial_rto=initial_rto)
        self.controller = controller
        # Optional controller hooks, resolved once: a bound method or None.
        self._controller_mi_id = getattr(controller, "current_mi_id", None)
        self._controller_packet_sent = getattr(controller, "on_packet_sent", None)
        self._controller_ecn = getattr(controller, "on_ecn", None)
        self._controller_timeout = getattr(controller, "on_timeout", None)
        self._controller_flow_start = getattr(controller, "on_flow_start", None)
        self.max_inflight_packets = max_inflight_packets
        self._pacing_timer: Optional[Event] = None

    # -- lifecycle ----------------------------------------------------------
    def _on_start(self) -> None:
        if self._controller_flow_start is not None:
            self._controller_flow_start(self, self.sim.now)
        self._schedule_tick()

    def _on_flow_complete(self) -> None:
        if self._pacing_timer is not None:
            self._pacing_timer.cancel()
            self._pacing_timer = None
        # The controller holds this sender (PCC binds to it at flow start).
        self.controller = None
        self._controller_mi_id = self._controller_packet_sent = None
        self._controller_ecn = self._controller_timeout = None
        self._controller_flow_start = None

    # -- pacing ---------------------------------------------------------------
    # The controller's rate is floored at 1 kbps so the tick interval stays
    # finite.  It is read once per packet, after the tick's transmission, with
    # a compare, not ``max(float(...), 1e3)``: two builtin calls cost as much
    # as five frames.
    def _schedule_tick(self) -> None:
        """Arm the pacing timer one packet time ahead at the controller's rate.

        Only a starting flow and a tick that just fired call this, so no tick
        is ever pending here; from then on the timer is re-armed by every tick
        until completion cancels it, and ACKs and timeouts need not look at it.
        """
        rate = self.controller.rate_bps
        if rate < 1e3:
            rate = 1e3
        sim = self.sim
        interval = self.mss * BITS_PER_BYTE / rate
        self._pacing_timer = sim.schedule_at(sim.now + interval, self._tick)

    def _tick(self) -> None:
        self._pacing_timer = None
        if self.completed:
            return
        if (
            self.has_data_to_send()
            and len(self._outstanding) < self.max_inflight_packets
        ):
            mi_id = None
            if self._controller_mi_id is not None:
                mi_id = self._controller_mi_id(self.sim.now)
            self._transmit(mi_id=mi_id)
        # _schedule_tick() reads the rate only now: _transmit() can open a new
        # monitor interval and change it.
        self._schedule_tick()

    def send_probe_train(self, count: int) -> list[Packet]:
        """Send ``count`` back-to-back probe packets (used by PCP-style probing)."""
        packets = []
        for _ in range(count):
            packet = self._transmit(is_probe=True)
            if packet is None:
                break
            packets.append(packet)
        return packets

    # -- controller callbacks -------------------------------------------------
    def _on_packet_sent(self, record: Packet) -> None:
        if self._controller_packet_sent is not None:
            self._controller_packet_sent(record, record.sent_time)

    def _on_ack(self, record, rtt_sample: float, newly_acked: bool) -> None:
        if record is None:
            return
        self.controller.on_ack(record, rtt_sample, self.sim.now)

    def _on_loss(self, record) -> None:
        self.controller.on_loss(record, self.sim.now)

    def _on_ecn(self, record) -> None:
        # Rate-based schemes see ECN only if their controller opts in (PCC
        # folds marks into its monitor-interval loss term); schemes without
        # an on_ecn hook keep their exact pre-ECN behavior.
        if self._controller_ecn is not None:
            self._controller_ecn(record, self.sim.now)

    def _on_timeout(self, expired) -> None:
        if self._controller_timeout is not None:
            self._controller_timeout(expired, self.sim.now)
        else:
            for record in expired:
                self.controller.on_loss(record, self.sim.now)


def connect(sender: SenderBase, receiver: Receiver, path: Path) -> None:
    """Bind a sender/receiver pair to a path (data forward, ACKs reverse)."""
    path.bind(receiver.receive, sender.receive_ack)
    receiver.bind_reverse_route(path.reverse_route)
