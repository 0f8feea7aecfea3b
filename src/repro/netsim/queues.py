"""Queue disciplines attached to simulated links.

The paper's evaluation exercises four queueing regimes:

* plain drop-tail FIFO with a configurable (often very shallow) buffer
  (Figures 6, 7, 9, 12, ...);
* an effectively unbounded buffer, i.e. "bufferbloat" (Figure 17);
* CoDel active queue management (Figure 17);
* per-flow fair queueing, optionally combined with CoDel or bufferbloat
  (Section 4.4 / Figure 17).

Each discipline implements the small :class:`QueueDiscipline` interface used by
:class:`repro.netsim.link.Link`: ``enqueue`` may accept or drop a packet, and
``dequeue`` returns the next packet to serialize (or ``None`` when empty).
Byte/packet occupancy book-keeping is shared in the base class so that the
capacity invariants hold for every discipline.  Each discipline counts what it
admits, releases and drops in its own :class:`QueueStats`, once, and calls
nothing back: a link reads ``queue.stats``, and :class:`FairQueue` reads its
children's occupancy.

The canonical AQM baselines the reproduction's Figure 17 matrix extends to —
RED (Floyd & Jacobson), PIE (RFC 8033, simplified) and FQ-CoDel (DRR fair
queueing composed over CoDel children) — live here too, each tuned by
constants next to its algorithm.  Every discipline sits behind a
:class:`~repro.registry.KwargRegistry` table (``_QDISCS``) — the same
pluggable-by-JSON-name pattern schemes and topologies use — so sweep cells,
report specs and the CLIs select queueing behavior by a ``qdisc`` name;
``fq``'s ``child`` is the one built-in option (``_QDISCS`` states the
contract).

A discipline signals congestion by dropping: PCC needs no router support, so
packets carry no congestion mark.  Disciplines whose drop decisions are
randomized (RED, PIE) are constructed *without* an RNG and receive one via
:meth:`QueueDiscipline.attach_rng` afterwards — links attach ``sim.rng``
automatically.  Factories must never draw from the simulator RNG at
construction time (``TestConstructionDrawsNoRandomness`` in
``tests/netsim/test_queues.py`` builds every discipline in ``_QDISCS``), so
building a queue never perturbs the deterministic event stream.
"""

from __future__ import annotations

import math
import random
from collections import OrderedDict, deque
from typing import Any, Callable, Deque, Dict, List, Optional

from ..registry import KwargRegistry
from ..units import Bytes, Seconds
from .packet import DEFAULT_MSS, Packet

__all__ = [
    "QueueDiscipline",
    "DropTailQueue",
    "CoDelQueue",
    "FairQueue",
    "QueueStats",
    "DEFAULT_QDISC",
    "PIEQueue",
    "REDQueue",
    "make_qdisc",
    "qdisc_names",
    "resolve_qdisc_kwargs",
]

class QueueStats:
    """Counters shared by all queue disciplines.

    ``enqueued`` counts admitted packets, ``dequeued`` the packets handed to
    the link and ``dropped`` every other exit: arrivals rejected and packets
    dropped after admission.  So packets offered = ``dequeued + dropped +
    packets_queued``.
    """

    __slots__ = ("enqueued", "dequeued", "dropped")

    def __init__(self) -> None:
        self.enqueued = 0
        self.dequeued = 0
        self.dropped = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QueueStats(enq={self.enqueued}, deq={self.dequeued}, drop={self.dropped})"
        )


class QueueDiscipline:
    """Interface every queue discipline implements.

    Subclasses must update ``bytes_queued`` / ``packets_queued`` when they admit
    or release packets so that shared invariants (occupancy never negative,
    never above capacity for bounded queues) can be asserted in tests.
    """

    def __init__(self) -> None:
        self.stats = QueueStats()
        self.bytes_queued = 0
        self.packets_queued = 0
        #: Seeded RNG for randomized drop decisions; ``None`` until
        #: :meth:`attach_rng` is called (links attach ``sim.rng``).
        self.rng: Optional[random.Random] = None

    def attach_rng(self, rng: random.Random) -> None:
        """Attach the seeded RNG randomized disciplines draw from.

        Construction must never consume simulator randomness (the attach-rng
        pattern, pinned by ``TestConstructionDrawsNoRandomness`` in
        ``tests/netsim/test_queues.py``); the link attaches ``sim.rng``
        right after wiring the queue, so drop decisions share the simulator's
        deterministic stream.
        """
        self.rng = rng

    # -- required interface ------------------------------------------------
    def enqueue(self, packet: Packet, now: float) -> bool:
        """Try to admit ``packet``; return ``True`` if accepted, ``False`` if dropped."""
        raise NotImplementedError

    def dequeue(self, now: float) -> Optional[Packet]:
        """Return the next packet to transmit, or ``None`` if the queue is empty."""
        raise NotImplementedError

    def __len__(self) -> int:
        return self.packets_queued

    # -- shared helpers ------------------------------------------------------
    def _admit(self, packet: Packet, now: float) -> None:
        packet.enqueue_time = now
        self.bytes_queued += packet.size_bytes
        self.packets_queued += 1
        self.stats.enqueued += 1

    def _release(self, packet: Packet) -> Packet:
        self.bytes_queued -= packet.size_bytes
        self.packets_queued -= 1
        self.stats.dequeued += 1
        return packet

    def _drop(self, packet: Packet) -> bool:
        self.stats.dropped += 1
        return False


class DropTailQueue(QueueDiscipline):
    """Classic FIFO with a byte-capacity limit; arrivals that do not fit are dropped.

    ``capacity_bytes`` models the router buffer size that the paper sweeps from a
    single packet (1.5 KB) up to one bandwidth-delay product or 1 MB;
    ``math.inf`` is the unbounded "bufferbloat" FIFO of Fig 17 (the
    ``infinite`` qdisc).  A :class:`~repro.netsim.link.Link` whose queue is
    exactly this class does this bookkeeping in its own frames.
    """

    def __init__(self, capacity_bytes: Bytes):
        super().__init__()
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = capacity_bytes
        self._fifo: Deque[Packet] = deque()

    # Every ACK of every cell crosses a drop-tail reverse link, so these two
    # do _admit()'s and _release()'s bookkeeping in their own frame.
    def enqueue(self, packet: Packet, now: float) -> bool:
        size = packet.size_bytes
        if self.bytes_queued + size > self.capacity_bytes:
            return self._drop(packet)
        packet.enqueue_time = now
        self.bytes_queued += size
        self.packets_queued += 1
        self.stats.enqueued += 1
        self._fifo.append(packet)
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        if not self._fifo:
            return None
        packet = self._fifo.popleft()
        self.bytes_queued -= packet.size_bytes
        self.packets_queued -= 1
        self.stats.dequeued += 1
        return packet


#: CoDel's sojourn-time target and control interval (RFC 8289's 5 ms / 100 ms).
_CODEL_TARGET: Seconds = 0.005
_CODEL_INTERVAL: Seconds = 0.100


class CoDelQueue(QueueDiscipline):
    """CoDel (Controlled Delay) active queue management.

    Implementation follows the ACM Queue pseudo-code by Nichols & Jacobson:
    packets carry their enqueue timestamp; at dequeue time, if sojourn time has
    stayed above the target for at least one interval, CoDel enters the
    dropping state and drops packets at increasing frequency
    (``interval / sqrt(drop_count)``) until sojourn time falls below target.

    A byte capacity is still enforced (real CoDel runs over a finite buffer).
    """

    def __init__(self, capacity_bytes: Bytes):
        super().__init__()
        self.capacity_bytes = capacity_bytes
        self._fifo: Deque[Packet] = deque()
        # CoDel state machine.
        self._first_above_time = 0.0
        self._dropping = False
        self._drop_next = 0.0
        self._drop_count = 0
        self._last_drop_count = 0

    def _control_law(self, t: float) -> float:
        return t + _CODEL_INTERVAL / (self._drop_count ** 0.5)

    # Both do the base class's admit / release bookkeeping and the sojourn
    # test in their own frame, as DropTailQueue does.
    def enqueue(self, packet: Packet, now: float) -> bool:
        size = packet.size_bytes
        if self.bytes_queued + size > self.capacity_bytes:
            return self._drop(packet)
        packet.enqueue_time = now
        self.bytes_queued += size
        self.packets_queued += 1
        self.stats.enqueued += 1
        self._fifo.append(packet)
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        fifo = self._fifo
        while fifo:
            packet = fifo.popleft()
            self.bytes_queued -= packet.size_bytes
            self.packets_queued -= 1
            # Sojourn above target, with more than two packets' worth left,
            # for a whole interval makes the packet a drop candidate.
            if (now - packet.enqueue_time < _CODEL_TARGET
                    or self.bytes_queued <= 2 * DEFAULT_MSS):
                self._first_above_time = 0.0
                ok_to_drop = False
            elif self._first_above_time == 0.0:
                self._first_above_time = now + _CODEL_INTERVAL
                ok_to_drop = False
            else:
                ok_to_drop = now >= self._first_above_time
            if self._dropping:
                if not ok_to_drop:
                    self._dropping = False
                elif now >= self._drop_next:
                    self._drop_count += 1
                    self._drop_next = self._control_law(self._drop_next)
                    self._drop(packet)
                    continue
            elif ok_to_drop:
                self._dropping = True
                delta = self._drop_count - self._last_drop_count
                if delta > 1 and now - self._drop_next < 16 * _CODEL_INTERVAL:
                    self._drop_count = delta
                else:
                    self._drop_count = 1
                self._drop_next = self._control_law(now)
                self._last_drop_count = self._drop_count
                self._drop(packet)
                continue
            # A head drop is counted as a drop only: dequeued is what the
            # link is handed.
            self.stats.dequeued += 1
            return packet
        return None


#: RED's thresholds as fractions of the byte capacity, its drop probability
#: at the upper threshold and the weight of its occupancy EWMA.
_RED_MIN_THRESHOLD_FRACTION = 0.2
_RED_MAX_THRESHOLD_FRACTION = 0.6
_RED_MAX_DROP_PROBABILITY = 0.1
_RED_WEIGHT = 0.002


class REDQueue(QueueDiscipline):
    """Random Early Detection (Floyd & Jacobson 1993).

    An EWMA of the queue's byte occupancy is updated at every arrival.  Below
    the lower threshold arrivals are admitted; above the upper one they are
    dropped; in between they are dropped with probability growing linearly
    up to ``_RED_MAX_DROP_PROBABILITY``.  Thresholds are fractions of the
    byte capacity, so one configuration scales across buffer sizes in a
    sweep.

    The probabilistic decision draws from the attached RNG
    (:meth:`~QueueDiscipline.attach_rng`); construction consumes no
    randomness.
    """

    def __init__(self, capacity_bytes: Bytes):
        super().__init__()
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = capacity_bytes
        self.min_threshold_bytes = _RED_MIN_THRESHOLD_FRACTION * capacity_bytes
        self.max_threshold_bytes = _RED_MAX_THRESHOLD_FRACTION * capacity_bytes
        self._avg_bytes = 0.0
        self._fifo: Deque[Packet] = deque()

    def _require_rng(self):
        if self.rng is None:
            raise RuntimeError(
                "RED draws its early-drop decisions from an attached RNG; "
                "call attach_rng(rng) after construction (links attach "
                "sim.rng automatically)"
            )
        return self.rng

    def enqueue(self, packet: Packet, now: float) -> bool:
        # EWMA over the instantaneous occupancy seen by each arrival.
        self._avg_bytes += _RED_WEIGHT * (self.bytes_queued - self._avg_bytes)
        if self.bytes_queued + packet.size_bytes > self.capacity_bytes:
            return self._drop(packet)
        if self._avg_bytes >= self.max_threshold_bytes:
            return self._drop(packet)
        if self._avg_bytes > self.min_threshold_bytes:
            probability = _RED_MAX_DROP_PROBABILITY * (
                (self._avg_bytes - self.min_threshold_bytes)
                / (self.max_threshold_bytes - self.min_threshold_bytes)
            )
            if self._require_rng().random() < probability:
                return self._drop(packet)
        self._admit(packet, now)
        self._fifo.append(packet)
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        if not self._fifo:
            return None
        return self._release(self._fifo.popleft())


#: PIE's target queueing delay, probability-update period and the gains of
#: its proportional (alpha) and integral (beta) terms (RFC 8033's values).
_PIE_TARGET_DELAY: Seconds = 0.015
_PIE_UPDATE_INTERVAL: Seconds = 0.015
_PIE_ALPHA = 0.125
_PIE_BETA = 1.25


class PIEQueue(QueueDiscipline):
    """PIE — Proportional Integral controller Enhanced (RFC 8033, simplified).

    The controlled variable is queueing *delay*, estimated as the sojourn
    time of the packet at the head of the queue (the RFC's "latency sample"
    alternative to the departure-rate estimator).  Every update interval
    the drop probability moves by
    ``alpha * (qdelay - target_delay) + beta * (qdelay - qdelay_old)``,
    clamped to ``[0, 1]``; arrivals are then dropped with that probability
    while more than two packets' worth of bytes are queued.  Draining the
    queue resets the delay estimate, so the controller re-enters cleanly
    after an idle period.
    """

    def __init__(self, capacity_bytes: Bytes):
        super().__init__()
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        self.capacity_bytes = capacity_bytes
        self._fifo: Deque[Packet] = deque()
        self._probability = 0.0
        self._qdelay = 0.0
        self._qdelay_old = 0.0
        self._next_update = 0.0

    def _update_probability(self, now: float) -> None:
        if now < self._next_update:
            return
        delta = (_PIE_ALPHA * (self._qdelay - _PIE_TARGET_DELAY)
                 + _PIE_BETA * (self._qdelay - self._qdelay_old))
        self._probability = min(1.0, max(0.0, self._probability + delta))
        self._qdelay_old = self._qdelay
        self._next_update = now + _PIE_UPDATE_INTERVAL

    def enqueue(self, packet: Packet, now: float) -> bool:
        if self.bytes_queued + packet.size_bytes > self.capacity_bytes:
            return self._drop(packet)
        self._update_probability(now)
        if self._probability > 0.0 and self.bytes_queued > 2 * DEFAULT_MSS:
            if self.rng is None:
                raise RuntimeError(
                    "PIE draws its drop decisions from an attached RNG; "
                    "call attach_rng(rng) after construction (links attach "
                    "sim.rng automatically)"
                )
            if self.rng.random() < self._probability:
                return self._drop(packet)
        self._admit(packet, now)
        self._fifo.append(packet)
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        if not self._fifo:
            return None
        packet = self._release(self._fifo.popleft())
        self._qdelay = now - packet.enqueue_time
        if not self._fifo:
            # Drain: the delay estimate describes an empty queue again, so
            # the controller's next update pushes the probability down and
            # the state machine re-enters cleanly.
            self._qdelay = 0.0
        return packet


#: Bytes a backlogged flow may send per deficit-round-robin round.
_DRR_QUANTUM_BYTES = DEFAULT_MSS

#: Capacity of each flow's default drop-tail child queue (bytes).
_FQ_CHILD_CAPACITY_BYTES = 10_000_000.0


class FairQueue(QueueDiscipline):
    """Per-flow fair queueing via deficit round robin (DRR).

    Each flow gets its own child discipline (drop-tail by default; CoDel for the
    "FQ + CoDel" configuration of Fig 17).  Service cycles round-robin over
    backlogged flows, giving each a quantum of one MSS per round, which yields
    long-term per-flow fairness independent of per-flow arrival rates — the
    isolation Section 4.4 relies on.

    The aggregate ``bytes_queued`` / ``packets_queued`` and ``stats.dropped``
    follow each child's own occupancy, read before and after every child
    ``enqueue`` and ``dequeue``: whatever a child lets go of without handing
    it out — a rejected arrival, a CoDel head drop — is a drop, so a child
    needs no hook and keeps no contract with its parent.  A drained flow's
    child is forgotten where a fresh one would behave the same (:meth:`dequeue`).
    """

    def __init__(self, child_factory: Optional[Callable[[], QueueDiscipline]] = None):
        super().__init__()
        if child_factory is None:
            child_factory = lambda: DropTailQueue(_FQ_CHILD_CAPACITY_BYTES)  # noqa: E731
        self._child_factory = child_factory
        self._flows: "OrderedDict[int, QueueDiscipline]" = OrderedDict()
        self._deficits: dict[int, float] = {}
        self._active: Deque[int] = deque()
        self._active_set: set[int] = set()
        #: Forgotten children, taken before one is built: at most as many as
        #: flows were ever queued at once.
        self._spares: List[QueueDiscipline] = []

    def attach_rng(self, rng: random.Random) -> None:
        """Attach the RNG and propagate it to every (current and future) child."""
        self.rng = rng
        for child in self._flows.values():  # repro-lint: disable=RPL003 attaching one shared reference; order cannot be observed
            child.attach_rng(rng)
        for child in self._spares:
            child.attach_rng(rng)

    def enqueue(self, packet: Packet, now: float) -> bool:
        child = self._flows.get(packet.flow_id)
        if child is None:
            spares = self._spares
            if spares:  # index and del: no call
                child = spares[-1]
                del spares[-1]
            else:
                child = self._child_factory()
                if self.rng is not None:
                    child.attach_rng(self.rng)
            self._flows[packet.flow_id] = child
            self._deficits[packet.flow_id] = 0.0
        bytes_before = child.bytes_queued
        packets_before = child.packets_queued
        accepted = child.enqueue(packet, now)
        packets_after = child.packets_queued
        self.bytes_queued += child.bytes_queued - bytes_before
        self.packets_queued += packets_after - packets_before
        # The arrival and every packet the child held are resident or dropped.
        self.stats.dropped += packets_before + 1 - packets_after
        if not accepted:
            return False
        self.stats.enqueued += 1
        if packet.flow_id not in self._active_set:
            self._active.append(packet.flow_id)
            self._active_set.add(packet.flow_id)
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        # Deficit round robin, one packet per call (the link serializes packets
        # one at a time).  Each iteration either returns a packet, removes an
        # emptied flow from the active list, or grants the head flow a quantum
        # and rotates it to the back — so the loop terminates whenever packets
        # remain and the quantum is positive.  Every child keeps its packets
        # in ``_fifo``, head first, so a backlogged child's head is read
        # there without a call.
        while self._active and self.packets_queued > 0:
            flow_id = self._active[0]
            child = self._flows[flow_id]
            packet = None
            if child.packets_queued:
                if self._deficits[flow_id] < child._fifo[0].size_bytes:
                    self._deficits[flow_id] += _DRR_QUANTUM_BYTES
                    self._active.rotate(-1)
                    continue
                bytes_before = child.bytes_queued
                packets_before = child.packets_queued
                packet = child.dequeue(now)
                packets_after = child.packets_queued
                self.bytes_queued += child.bytes_queued - bytes_before
                self.packets_queued += packets_after - packets_before
                if packet is None:
                    # CoDel may have dropped the whole backlog of this flow.
                    self.stats.dropped += packets_before - packets_after
                    continue
                # Every packet that left the child but this one was head-dropped.
                self.stats.dropped += packets_before - 1 - packets_after
                self._deficits[flow_id] -= packet.size_bytes
                self.stats.dequeued += 1
                if packets_after:
                    return packet
            # The flow is empty and leaves the round.  Its child goes to the
            # pool where a fresh one would behave the same: drop-tail always,
            # CoDel outside an episode unless RFC 8289's re-entry would reuse
            # the last one's count (``delta > 1``); RED and PIE keep averages.
            self._active.popleft()
            self._active_set.discard(flow_id)
            kind = type(child)
            if kind is DropTailQueue or (
                    kind is CoDelQueue and not child._dropping
                    and child._first_above_time == 0.0
                    and child._drop_count - child._last_drop_count <= 1):
                del self._flows[flow_id]
                del self._deficits[flow_id]
                self._spares += (child,)  # not append: no call
            else:
                self._deficits[flow_id] = 0.0
            if packet is not None:
                return packet
        return None


# --------------------------------------------------------------------------
# Disciplines by name.

#: The discipline every entry point uses unless told otherwise.  Cell
#: identities record ``qdisc`` only when it differs from this, so all golden
#: JSON artifacts produced before the registry existed stay byte-comparable.
DEFAULT_QDISC = "droptail"


def resolve_qdisc_kwargs(name: str, kwargs: Dict[str, Any]) -> Dict[str, Any]:
    """Merge ``kwargs`` over the qdisc's declared defaults, rejecting keys
    the factory never declared."""
    return _QDISCS.resolve(name, kwargs)


def make_qdisc(name: str, buffer_bytes: Bytes, **kwargs: Any) -> QueueDiscipline:
    """Build a fresh queue discipline by name.

    ``buffer_bytes`` is the link's configured buffer size; disciplines that
    bound occupancy use it as their byte capacity (the infinite queue
    ignores it).  Remaining kwargs are resolved against the factory's
    declared defaults, so unknown keys raise here rather than silently
    disappearing into a ``**kwargs`` sink.
    """
    return _QDISCS.build(name, float(buffer_bytes), **kwargs)


def qdisc_names() -> List[str]:
    """All queue-discipline names, sorted."""
    return _QDISCS.names()


def _make_infinite(buffer_bytes: Bytes) -> QueueDiscipline:
    """The unbounded FIFO: a drop-tail queue that never fills."""
    return DropTailQueue(math.inf)


def _make_fq(buffer_bytes: Bytes, child: str = "droptail") -> QueueDiscipline:
    """DRR fair queueing composed over children by name.

    Each flow's child is built via :func:`make_qdisc`, so ``child`` may be
    any non-composed discipline in ``_QDISCS``, and each child gets the
    full ``buffer_bytes`` as its per-flow capacity.  The name is checked
    here, not at a flow's first packet.
    """
    if child == "fq" or child == "fq_codel":
        raise ValueError("fq children must be non-composed disciplines")
    _QDISCS.get(child)
    return FairQueue(child_factory=lambda: make_qdisc(child, buffer_bytes))


def _make_fq_codel(buffer_bytes: Bytes) -> QueueDiscipline:
    return FairQueue(child_factory=lambda: CoDelQueue(buffer_bytes))


#: Every queue discipline a cell's ``qdisc`` may name.
#:
#: ``factory(buffer_bytes, **kwargs)`` must return a *fresh*
#: :class:`QueueDiscipline` on every call (links never share queues) and be
#: RNG-free (the module's attach-rng convention, pinned by
#: ``TestConstructionDrawsNoRandomness`` in ``tests/netsim/test_queues.py``).
#: The keyword parameters after ``buffer_bytes`` in the factory's signature
#: are the kwargs it accepts, each with its default (a discipline class whose
#: constructor takes the buffer alone is its own factory).  :func:`make_qdisc`
#: merges explicit kwargs over the defaults and rejects unknown keys, so
#: typos fail loudly and archived cell identities record fully-resolved
#: values.
_QDISCS = KwargRegistry("queue discipline", "qdisc_kwargs", ("buffer_bytes",), {
    "droptail": DropTailQueue,
    "infinite": _make_infinite,
    "codel": CoDelQueue,
    "red": REDQueue,
    "pie": PIEQueue,
    "fq": _make_fq,
    "fq_codel": _make_fq_codel,
})
