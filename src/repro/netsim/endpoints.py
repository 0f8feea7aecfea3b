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
from .engine import Event, SimulationError, Simulator
from .packet import ACK_SIZE_BYTES, DEFAULT_MSS, Packet
from .route import Path
from .stats import _MAX_RTO, BIN_WIDTH, FlowStats, RTTEstimator, SequenceTracker

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

#: User-space rate-based transports (PCC's UDT skeleton, SABUL, PCP) run
#: their own fine-grained timers instead of the kernel's 200 ms floor and 1 s
#: initial RTO, which is what lets PCC recover tail losses quickly under
#: incast (the kernel defaults stay in place for the TCP family).
_RATE_MIN_RTO = 0.01
_RATE_INITIAL_RTO = 0.1

#: A rate-based sender stops pacing new packets out while this many are in
#: flight.
_RATE_INFLIGHT_CAP = 100_000


class Receiver:
    """Receives data packets, accounts goodput and returns one ACK per packet."""

    def __init__(self, sim: Simulator, flow_id: int, stats: FlowStats):
        self.sim = sim
        self.flow_id = flow_id
        self.stats = stats
        self.delivered = SequenceTracker()
        self._ack_packet_id = 0
        self._reverse_route = None  # bound via connect()

    def bind_reverse_route(self, route) -> None:
        """Attach the route ACKs travel on (receiver -> sender)."""
        self._reverse_route = route

    def receive(self, packet: Packet) -> None:
        """Handle one arriving data packet: account it and echo an ACK.

        The ACK echoes the data packet's ``packet_id``, ``data_seq`` and send
        timestamp, so the sender takes an exact RTT sample from it.
        """
        if packet.is_ack:
            raise RuntimeError("receiver got an ACK packet on the data path")
        now = self.sim.now
        size = packet.size_bytes
        stats = self.stats
        stats.packets_delivered += 1
        stats.bytes_delivered += size
        is_new = False
        if not packet.is_probe:
            delivered = self.delivered
            seq = packet.data_seq
            frontier = delivered.next_expected
            if seq == frontier and not delivered._above:
                delivered.next_expected = seq + 1
                delivered.count += 1
                is_new = True
            elif seq > frontier and seq not in delivered._above:
                delivered._above.add(seq)
                delivered.count += 1
                is_new = True
            else:
                is_new = delivered.add(seq)
        if is_new:
            stats.unique_bytes_delivered += size
            bins = stats.delivered_bins._bins
            index = int(now / BIN_WIDTH)
            bins[index] = bins.get(index, 0.0) + size
        else:
            stats.duplicate_packets += 1
        route = self._reverse_route
        if route is None:
            return
        self._ack_packet_id = ack_id = self._ack_packet_id + 1
        ack = Packet(packet.flow_id, ack_id, packet.data_seq, ACK_SIZE_BYTES, now,
                     True, None, False, packet.is_probe)
        ack.acked_packet_id = packet.packet_id
        ack.ack_sent_time = packet.sent_time
        ack.route = route
        route.links[0].enqueue(ack)


class SenderBase:
    """Shared sender machinery: sequencing, loss detection, RTO, statistics."""

    def __init__(
        self,
        sim: Simulator,
        flow_id: int,
        path: Path,
        stats: FlowStats,
        total_bytes: Optional[float] = None,
        start_time: float = 0.0,
        min_rto: float = 0.2,
        initial_rto: float = 1.0,
    ):
        self.sim = sim
        self.flow_id = flow_id
        self.path = path
        self.stats = stats
        self.start_time = start_time
        self.total_segments: Optional[int] = (
            None if total_bytes is None
            else max(1, int(-(-total_bytes // DEFAULT_MSS)))
        )
        self.rtt = RTTEstimator(min_rto=min_rto, initial_rto=initial_rto)
        # Transmission state.
        self._next_packet_id = 0
        self._next_new_seq = 0
        #: Transmitted-but-unacknowledged packets by ``packet_id``.  The
        #: :class:`Packet` is its own sent-record: the fields the sender and
        #: the controllers read back (``packet_id``, ``data_seq``,
        #: ``size_bytes``, ``sent_time``, ``mi``, ``is_retransmission``,
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
        #: Called with every packet sent and its send time, or ``None``: a
        #: rate controller's ``on_packet_sent`` where it has one (SABUL);
        #: window controllers hear nothing per packet sent.
        self._packet_sent_hook: Optional[Callable[[Packet, float], None]] = None
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
        """Pick the next segment to transmit: retransmissions take priority
        (``_transmit`` takes new data itself when none is queued)."""
        acked = self._acked_segments
        while self._retransmit_queue:
            seq = self._retransmit_queue.popleft()
            self._retransmit_pending.discard(seq)
            if seq >= acked.next_expected and seq not in acked._above:
                return seq, True
        if self.total_segments is None or self._next_new_seq < self.total_segments:
            seq = self._next_new_seq
            self._next_new_seq += 1
            return seq, False
        return None

    def _transmit(self, is_probe: bool = False) -> Optional[Packet]:
        """Send one packet (retransmission first, then new data); a rate
        sender's tick sends its packets itself."""
        if self.completed:
            return None
        if is_probe:
            seq, retransmission = -1, False
        elif self._retransmit_queue:
            choice = self._next_data_seq()
            if choice is None:
                return None
            seq, retransmission = choice
        else:
            seq = self._next_new_seq
            if self.total_segments is not None and seq >= self.total_segments:
                return None
            self._next_new_seq = seq + 1
            retransmission = False
        packet_id = self._next_packet_id
        self._next_packet_id += 1
        sim = self.sim
        now = sim.now
        packet = Packet(self.flow_id, packet_id, seq, DEFAULT_MSS, now, False,
                        None, retransmission, is_probe)
        self._outstanding[packet_id] = packet
        stats = self.stats
        if stats.first_send_time is None:
            stats.first_send_time = now
        stats.packets_sent += 1
        stats.bytes_sent += DEFAULT_MSS
        if retransmission:
            stats.retransmissions += 1
        # Push the RTO deadline out; arm the timer only if none is pending.
        self._rto_deadline = deadline = now + self.rtt.rto
        if self._rto_event is None:
            self._rto_event = sim.schedule_at(deadline, self._handle_rto)
        route = self.path.forward_route
        packet.route = route
        route.links[0].enqueue(packet)
        if self._packet_sent_hook is not None:
            self._packet_sent_hook(packet, now)
        return packet

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
        rtt = self.rtt
        if rtt_sample > 0:
            # RFC 6298 (2.2)-(2.3): the first sample sets SRTT and RTTVAR =
            # R/2, later ones fold in with alpha = 1/8 and beta = 1/4; RTO is
            # SRTT + max(4 RTTVAR, 1 ms) clamped to [min_rto, _MAX_RTO], by
            # compares (a builtin call costs as much as a frame).
            srtt = rtt.srtt
            if srtt is None:
                srtt = rtt_sample
                rttvar = rtt_sample / 2.0
            else:
                deviation = srtt - rtt_sample
                if deviation < 0:
                    deviation = -deviation
                rttvar = 0.75 * rtt.rttvar + 0.25 * deviation
                srtt = 0.875 * srtt + 0.125 * rtt_sample
            rtt.srtt = srtt
            rtt.rttvar = rttvar
            variance_term = 4.0 * rttvar
            rto = srtt + (variance_term if variance_term > 0.001 else 0.001)
            if rto < rtt.min_rto:
                rto = rtt.min_rto
            rtt.rto = rto if rto < _MAX_RTO else _MAX_RTO
        if record is not None:
            stats = self.stats
            stats.packets_acked += 1
            stats.bytes_acked += record.size_bytes
            if rtt_sample > 0:
                stats.rtt_sum += rtt_sample
                stats.rtt_count += 1
            if not record.is_probe:
                # SequenceTracker.add(seq) for a new sequence number, in this
                # frame: the in-order one, or one above the frontier.
                acked = self._acked_segments
                seq = record.data_seq
                frontier = acked.next_expected
                if seq == frontier and not acked._above:
                    acked.next_expected = seq + 1
                    acked.count += 1
                elif seq > frontier and seq not in acked._above:
                    acked._above.add(seq)
                    acked.count += 1
                else:
                    acked.add(seq)
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
            self._rto_deadline = deadline = now + rtt.rto
            if self._rto_event is None:
                self._rto_event = sim.schedule_at(deadline, self._handle_rto)
        else:
            lost = self._detect_losses()
            self._restart_rto_timer()
        if record is not None:
            self._on_ack(record, rtt_sample, now)
        for lost_record in lost:
            self._on_loss(lost_record, now)
        if self.total_segments is not None:
            self._check_completion()
            if self.completed:
                return
        after = self._after_ack_processing
        if after is not None:
            after()

    def _detect_losses(self) -> list[Packet]:
        outstanding = self._outstanding
        threshold = self._highest_acked_packet_id - DUPACK_THRESHOLD
        stats = self.stats
        lost: list[Packet] = []
        while outstanding:
            first_id = next(iter(outstanding))
            if first_id >= threshold:
                break
            record = outstanding.pop(first_id)
            lost.append(record)
            stats.packets_lost += 1
            self._queue_retransmission(record)
        return lost

    def _queue_retransmission(self, record: Packet) -> None:
        if record.is_probe:
            return
        seq = record.data_seq
        acked = self._acked_segments
        if (seq < acked.next_expected or seq in acked._above
                or seq in self._retransmit_pending):
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
        stats = self.stats
        stats.timeouts += 1
        expired = list(self._outstanding.values())
        self._outstanding.clear()
        for record in expired:
            stats.packets_lost += 1
            self._queue_retransmission(record)
        self._restart_rto_timer()
        self._on_timeout(expired)
        self._after_timeout(had_outstanding=True)

    # ------------------------------------------------------------------ #
    # Subclass hooks
    # ------------------------------------------------------------------ #
    def _on_ack(self, record: Packet, rtt_sample: float, now: float) -> None:
        """Called for every ACK of a packet still outstanding."""
        raise NotImplementedError

    def _on_loss(self, record: Packet, now: float) -> None:
        raise NotImplementedError

    def _on_timeout(self, expired: list[Packet]) -> None:
        raise NotImplementedError

    #: Called after every ACK once controller state is updated, or ``None``
    #: where there is nothing to do (a rate sender's next packet waits for
    #: its tick).
    _after_ack_processing: Optional[Callable[[], None]] = None

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
        start_time: float = 0.0,
        pacing: bool = False,
    ):
        super().__init__(sim, flow_id, path, stats, total_bytes, start_time)
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
        return self.controller.cwnd * DEFAULT_MSS * BITS_PER_BYTE / max(srtt, 1e-6)

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
        interval = DEFAULT_MSS * BITS_PER_BYTE / rate
        self._pacing_timer = self.sim.schedule(interval, self._paced_send)

    def _paced_send(self) -> None:
        self._pacing_timer = None
        if self.completed:
            return
        if self.inflight_packets < self._cwnd_packets() and self.has_data_to_send():
            self._transmit()
        self._schedule_paced_send()

    # -- controller callbacks -------------------------------------------------
    def _on_ack(self, record, rtt_sample: float, now: float) -> None:
        self.controller.on_ack(rtt_sample, now)
        if record.packet_id >= self._recovery_exit_packet_id:
            self._recovery_exit_packet_id = -1

    def _on_loss(self, record, now: float) -> None:
        # One congestion response per window of data: further losses detected
        # before the recovery point is acknowledged do not shrink cwnd again.
        if self._recovery_exit_packet_id < 0:
            self._recovery_exit_packet_id = self._next_packet_id
            self.controller.on_loss(now)

    def _on_timeout(self, expired) -> None:
        self._recovery_exit_packet_id = self._next_packet_id
        self.controller.on_timeout(self.sim.now)

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

    The controller's ``on_ack`` / ``on_loss`` are bound as the sender's
    ``_on_ack(record, rtt, now)`` / ``_on_loss(record, now)``, so feedback
    reaches the controller with no sender frame in between.  A controller with
    ``current_mi(now)`` (PCC) tags every packet with the monitor interval it
    returns, and the tick counts the send on that interval; optional hooks a
    controller does not implement resolve to ``None`` and cost nothing.
    """

    def __init__(
        self,
        sim: Simulator,
        flow_id: int,
        path: Path,
        controller,
        stats: FlowStats,
        total_bytes: Optional[float] = None,
        start_time: float = 0.0,
    ):
        super().__init__(sim, flow_id, path, stats, total_bytes, start_time,
                         min_rto=_RATE_MIN_RTO, initial_rto=_RATE_INITIAL_RTO)
        self.controller = controller
        self._on_ack = controller.on_ack
        self._on_loss = controller.on_loss
        # Optional controller hooks, resolved once: a bound method or None.
        self._current_mi = getattr(controller, "current_mi", None)
        self._packet_sent_hook = getattr(controller, "on_packet_sent", None)
        self._controller_timeout = getattr(controller, "on_timeout", None)
        self._controller_flow_start = getattr(controller, "on_flow_start", None)
        #: The pending tick's heap entry ``[time, seq, _tick, ()]``.
        self._pacing_timer: Optional[list] = None

    # -- lifecycle ----------------------------------------------------------
    def _on_start(self) -> None:
        if self._controller_flow_start is not None:
            self._controller_flow_start(self, self.sim.now)
        # The first tick one packet time ahead at the starting rate; from then
        # on every tick re-arms itself until completion cancels it, so ACKs
        # and timeouts never look at the timer.
        rate = self.controller.rate_bps
        if rate < 1e3:
            rate = 1e3
        sim = self.sim
        interval = DEFAULT_MSS * BITS_PER_BYTE / rate
        self._pacing_timer = sim.schedule_at(sim.now + interval, self._tick)

    def _on_flow_complete(self) -> None:
        if self._pacing_timer is not None:
            Event.cancel(self._pacing_timer, self.sim)
            self._pacing_timer = None
        # The controller holds this sender (PCC binds to it at flow start).
        self.controller = None
        self._on_ack = self._on_loss = None
        self._current_mi = self._packet_sent_hook = None
        self._controller_timeout = self._controller_flow_start = None

    # -- pacing ---------------------------------------------------------------
    def _tick(self) -> None:
        """Send one packet if there is one to send, then re-arm one packet
        time ahead at the controller's rate.

        A finished flow has no tick (completion cancels it), so the test of
        ``has_data_to_send()`` left here is the data test, and the
        transmission is ``_transmit()`` written out, the packet tagged with
        the monitor interval ``current_mi`` returns.  The rate is read only
        after the transmission, which can open a new monitor interval and
        change it; it is floored at 1 kbps, with a compare, so the interval
        stays finite.
        """
        sim = self.sim
        now = sim.now
        total = self.total_segments
        if ((self._retransmit_queue or total is None or self._next_new_seq < total)
                and len(self._outstanding) < _RATE_INFLIGHT_CAP):
            current_mi = self._current_mi
            mi = None if current_mi is None else current_mi(now)
            seq = -1
            retransmission = False
            if not self._retransmit_queue:
                seq = self._next_new_seq
                self._next_new_seq = seq + 1
            else:
                choice = self._next_data_seq()
                if choice is not None:
                    seq, retransmission = choice
            if seq >= 0:
                packet_id = self._next_packet_id
                self._next_packet_id = packet_id + 1
                packet = Packet(self.flow_id, packet_id, seq, DEFAULT_MSS, now,
                                False, mi, retransmission, False)
                self._outstanding[packet_id] = packet
                stats = self.stats
                if stats.first_send_time is None:
                    stats.first_send_time = now
                stats.packets_sent += 1
                stats.bytes_sent += DEFAULT_MSS
                if retransmission:
                    stats.retransmissions += 1
                self._rto_deadline = deadline = now + self.rtt.rto
                if self._rto_event is None:
                    self._rto_event = sim.schedule_at(deadline, self._handle_rto)
                route = self.path.forward_route
                packet.route = route
                route.links[0].enqueue(packet)
                if self._packet_sent_hook is not None:
                    self._packet_sent_hook(packet, now)
                if mi is not None:
                    mi.packets_sent += 1
                    mi.bytes_sent += DEFAULT_MSS
        rate = self.controller.rate_bps
        if rate < 1e3:
            rate = 1e3
        elif rate != rate:
            raise SimulationError("event time must be finite")
        # schedule_at's push and heap-compaction test, without its checks
        # (the time is now plus a finite, positive interval) or an Event.
        self._pacing_timer = entry = [
            now + DEFAULT_MSS * BITS_PER_BYTE / rate, next(sim.seq), self._tick, ()]
        sim.push(entry)
        if sim._cancelled_pending > 256 and sim._cancelled_pending * 2 > len(sim._queue):
            sim._compact()

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
    # _on_ack and _on_loss are the controller's own bound methods (__init__).
    def _on_timeout(self, expired) -> None:
        now = self.sim.now
        if self._controller_timeout is not None:
            self._controller_timeout(expired, now)
        else:
            for record in expired:
                self._on_loss(record, now)


def connect(sender: SenderBase, receiver: Receiver, path: Path) -> None:
    """Bind a sender/receiver pair to a path (data forward, ACKs reverse)."""
    path.bind(receiver.receive, sender.receive_ack)
    receiver.bind_reverse_route(path.reverse_route)
