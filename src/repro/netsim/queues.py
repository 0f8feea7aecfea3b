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
capacity invariants hold for every discipline.

The canonical AQM baselines the reproduction's Figure 17 matrix extends to —
RED (Floyd & Jacobson), PIE (RFC 8033, simplified) and FQ-CoDel (DRR fair
queueing composed over CoDel children) — live here too, and every discipline
sits behind a :class:`~repro.registry.KwargRegistry` — the same
pluggable-by-JSON-name pattern schemes and topologies use — so sweep cells,
report specs and the CLIs select queueing behavior with a ``qdisc`` name plus
declarative kwargs (:func:`register_qdisc` states the contract).

Two cross-cutting conventions every discipline follows:

* **attach-rng**: disciplines whose drop decisions are randomized (RED, PIE,
  random drop policy) are constructed *without* an RNG and receive one via
  :meth:`QueueDiscipline.attach_rng` afterwards — links attach ``sim.rng``
  automatically.  Factories must never draw from the simulator RNG at
  construction time (lint rule RPL017), so building a queue never perturbs
  the deterministic event stream.
* **ECN**: disciplines built with ``ecn=True`` mark packets
  (:meth:`QueueDiscipline._mark`) instead of dropping them when the *AQM*
  decides to signal congestion; genuine buffer-overflow drops still drop.
  The mark travels to the receiver, is echoed on the ACK
  (``Packet.ecn_echo``), and senders react via their congestion-response
  hooks (see :mod:`repro.netsim.endpoints`).
"""

from __future__ import annotations

import random
from collections import OrderedDict, deque
from typing import Any, Callable, Deque, Dict, List, Optional

from ..registry import KwargRegistry
from ..units import Bytes, Seconds
from .packet import DEFAULT_MSS, Packet

__all__ = [
    "QueueDiscipline",
    "DropTailQueue",
    "InfiniteQueue",
    "CoDelQueue",
    "FairQueue",
    "QueueStats",
    "DEFAULT_QDISC",
    "PIEQueue",
    "REDQueue",
    "make_qdisc",
    "qdisc_names",
    "register_qdisc",
    "resolve_qdisc_kwargs",
]

#: Valid ``drop_policy`` values for :class:`DropTailQueue`.
DROP_POLICIES = ("tail", "head", "random")


class QueueStats:
    """Counters shared by all queue disciplines."""

    __slots__ = ("enqueued", "dequeued", "dropped", "dropped_bytes",
                 "enqueued_bytes", "marked")

    def __init__(self) -> None:
        self.enqueued = 0
        self.dequeued = 0
        self.dropped = 0
        self.dropped_bytes = 0
        self.enqueued_bytes = 0
        #: Packets ECN-marked instead of dropped (congestion signals that
        #: stayed in the queue and were eventually delivered).
        self.marked = 0

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
        #: Optional hook invoked with every dropped packet (used by per-flow stats).
        self.on_drop: Optional[Callable[[Packet], None]] = None
        #: Seeded RNG for randomized drop decisions; ``None`` until
        #: :meth:`attach_rng` is called (links attach ``sim.rng``).
        self.rng: Optional[random.Random] = None

    def attach_rng(self, rng: random.Random) -> None:
        """Attach the seeded RNG randomized disciplines draw from.

        Construction must never consume simulator randomness (the attach-rng
        pattern, pinned by lint rule RPL017); the link attaches ``sim.rng``
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
        self.stats.enqueued_bytes += packet.size_bytes

    def _release(self, packet: Packet) -> Packet:
        self.bytes_queued -= packet.size_bytes
        self.packets_queued -= 1
        self.stats.dequeued += 1
        return packet

    def _drop(self, packet: Packet) -> bool:
        self.stats.dropped += 1
        self.stats.dropped_bytes += packet.size_bytes
        if self.on_drop is not None:
            self.on_drop(packet)
        return False

    def _mark(self, packet: Packet) -> None:
        """ECN-mark ``packet`` instead of dropping it (congestion signal)."""
        packet.ecn_marked = True
        self.stats.marked += 1


class DropTailQueue(QueueDiscipline):
    """Classic FIFO with a byte-capacity limit; arrivals that do not fit are dropped.

    ``capacity_bytes`` models the router buffer size that the paper sweeps from a
    single packet (1.5 KB) up to one bandwidth-delay product or 1 MB.

    ``drop_policy`` selects who dies on overflow: ``"tail"`` (the classic —
    the arriving packet), ``"head"`` (oldest queued packets are evicted until
    the arrival fits, favouring fresh information), or ``"random"`` (uniform
    random victims, which de-synchronizes loss across flows; needs an
    attached RNG).  ``ecn_threshold_bytes`` optionally marks arrivals once
    occupancy exceeds the threshold (DCTCP-style mark-on-threshold) — drops
    above capacity still drop.
    """

    def __init__(self, capacity_bytes: Bytes, drop_policy: str = "tail",
                 ecn_threshold_bytes: Optional[Bytes] = None):
        super().__init__()
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if drop_policy not in DROP_POLICIES:
            raise ValueError(
                f"unknown drop_policy {drop_policy!r}; expected one of "
                f"{DROP_POLICIES}"
            )
        if ecn_threshold_bytes is not None and ecn_threshold_bytes <= 0:
            raise ValueError("ecn_threshold_bytes must be positive")
        self.capacity_bytes = capacity_bytes
        self.drop_policy = drop_policy
        self.ecn_threshold_bytes = ecn_threshold_bytes
        self._fifo: Deque[Packet] = deque()

    def _evict_victims(self, needed_bytes: float) -> bool:
        """Drop head/random victims until ``needed_bytes`` fit; ``False`` if
        the arrival could never fit even in an empty buffer."""
        if needed_bytes > self.capacity_bytes:
            return False
        while self.bytes_queued + needed_bytes > self.capacity_bytes:
            if self.drop_policy == "head":
                victim = self._fifo.popleft()
            else:
                if self.rng is None:
                    raise RuntimeError(
                        "drop_policy='random' draws victims from an attached "
                        "RNG; call attach_rng(rng) after construction (links "
                        "attach sim.rng automatically)"
                    )
                index = self.rng.randrange(len(self._fifo))
                victim = self._fifo[index]
                del self._fifo[index]
            self.bytes_queued -= victim.size_bytes
            self.packets_queued -= 1
            self._drop(victim)
        return True

    # Every ACK of every cell crosses a drop-tail reverse link, so these two
    # do _admit()'s and _release()'s bookkeeping in their own frame.
    def enqueue(self, packet: Packet, now: float) -> bool:
        size = packet.size_bytes
        if self.bytes_queued + size > self.capacity_bytes:
            if self.drop_policy == "tail" or not self._evict_victims(size):
                return self._drop(packet)
        packet.enqueue_time = now
        self.bytes_queued += size
        self.packets_queued += 1
        stats = self.stats
        stats.enqueued += 1
        stats.enqueued_bytes += size
        self._fifo.append(packet)
        if (self.ecn_threshold_bytes is not None
                and self.bytes_queued > self.ecn_threshold_bytes):
            self._mark(packet)
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        if not self._fifo:
            return None
        packet = self._fifo.popleft()
        self.bytes_queued -= packet.size_bytes
        self.packets_queued -= 1
        self.stats.dequeued += 1
        return packet


class InfiniteQueue(QueueDiscipline):
    """An (effectively) unbounded FIFO — the "bufferbloat" configuration of Fig 17."""

    def __init__(self) -> None:
        super().__init__()
        self._fifo: Deque[Packet] = deque()

    def enqueue(self, packet: Packet, now: float) -> bool:
        self._admit(packet, now)
        self._fifo.append(packet)
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        if not self._fifo:
            return None
        return self._release(self._fifo.popleft())


class CoDelQueue(QueueDiscipline):
    """CoDel (Controlled Delay) active queue management.

    Implementation follows the ACM Queue pseudo-code by Nichols & Jacobson:
    packets carry their enqueue timestamp; at dequeue time, if sojourn time has
    stayed above ``target`` for at least ``interval``, CoDel enters the dropping
    state and drops packets at increasing frequency
    (``interval / sqrt(drop_count)``) until sojourn time falls below target.

    A byte capacity is still enforced (real CoDel runs over a finite buffer).
    With ``ecn=True`` the control law runs unchanged but marks packets
    instead of dropping them (RFC 8289 §3): the marked packet is delivered,
    carrying the congestion signal to the sender via the ACK echo.
    """

    def __init__(
        self,
        capacity_bytes: Bytes = 10_000_000.0,
        target: Seconds = 0.005,
        interval: Seconds = 0.100,
        ecn: bool = False,
    ):
        super().__init__()
        self.capacity_bytes = capacity_bytes
        self.target = target
        self.interval = interval
        self.ecn = ecn
        self._fifo: Deque[Packet] = deque()
        # CoDel state machine.
        self._first_above_time = 0.0
        self._dropping = False
        self._drop_next = 0.0
        self._drop_count = 0
        self._last_drop_count = 0

    # -- CoDel helpers -------------------------------------------------------
    def _control_law(self, t: float) -> float:
        return t + self.interval / (self._drop_count ** 0.5)

    def _should_drop(self, packet: Packet, now: float) -> bool:
        sojourn = now - packet.enqueue_time
        if sojourn < self.target or self.bytes_queued <= 2 * DEFAULT_MSS:
            self._first_above_time = 0.0
            return False
        if self._first_above_time == 0.0:
            self._first_above_time = now + self.interval
            return False
        return now >= self._first_above_time

    def enqueue(self, packet: Packet, now: float) -> bool:
        if self.bytes_queued + packet.size_bytes > self.capacity_bytes:
            return self._drop(packet)
        self._admit(packet, now)
        self._fifo.append(packet)
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        while self._fifo:
            packet = self._release(self._fifo.popleft())
            ok_to_drop = self._should_drop(packet, now)
            if self._dropping:
                if not ok_to_drop:
                    self._dropping = False
                    return packet
                if now >= self._drop_next:
                    self._drop_count += 1
                    self._drop_next = self._control_law(self._drop_next)
                    if self.ecn:
                        self._mark(packet)
                        return packet
                    self._drop(packet)
                    continue
                return packet
            if ok_to_drop:
                self._dropping = True
                delta = self._drop_count - self._last_drop_count
                if delta > 1 and now - self._drop_next < 16 * self.interval:
                    self._drop_count = delta
                else:
                    self._drop_count = 1
                self._drop_next = self._control_law(now)
                self._last_drop_count = self._drop_count
                if self.ecn:
                    self._mark(packet)
                    return packet
                self._drop(packet)
                continue
            return packet
        return None


class REDQueue(QueueDiscipline):
    """Random Early Detection (Floyd & Jacobson 1993).

    An EWMA of the queue's byte occupancy is updated at every arrival.  Below
    ``min_threshold`` arrivals are admitted; above ``max_threshold`` they are
    dropped; in between they are dropped (or ECN-marked, RFC 3168 style) with
    probability growing linearly up to ``max_drop_probability``.  Thresholds
    are expressed as fractions of the byte capacity so one configuration
    scales across buffer sizes in a sweep.

    The probabilistic decision draws from the attached RNG
    (:meth:`~QueueDiscipline.attach_rng`); construction consumes no
    randomness.
    """

    def __init__(
        self,
        capacity_bytes: Bytes,
        min_threshold_fraction: float = 0.2,
        max_threshold_fraction: float = 0.6,
        max_drop_probability: float = 0.1,
        weight: float = 0.002,
        ecn: bool = False,
    ):
        super().__init__()
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if not 0.0 < min_threshold_fraction < max_threshold_fraction <= 1.0:
            raise ValueError(
                "need 0 < min_threshold_fraction < max_threshold_fraction <= 1"
            )
        if not 0.0 < max_drop_probability <= 1.0:
            raise ValueError("max_drop_probability must be in (0, 1]")
        if not 0.0 < weight <= 1.0:
            raise ValueError("weight must be in (0, 1]")
        self.capacity_bytes = capacity_bytes
        self.min_threshold_bytes = min_threshold_fraction * capacity_bytes
        self.max_threshold_bytes = max_threshold_fraction * capacity_bytes
        self.max_drop_probability = max_drop_probability
        self.weight = weight
        self.ecn = ecn
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
        self._avg_bytes += self.weight * (self.bytes_queued - self._avg_bytes)
        if self.bytes_queued + packet.size_bytes > self.capacity_bytes:
            return self._drop(packet)
        mark = False
        if self._avg_bytes >= self.max_threshold_bytes:
            return self._drop(packet)
        if self._avg_bytes > self.min_threshold_bytes:
            probability = self.max_drop_probability * (
                (self._avg_bytes - self.min_threshold_bytes)
                / (self.max_threshold_bytes - self.min_threshold_bytes)
            )
            if self._require_rng().random() < probability:
                if not self.ecn:
                    return self._drop(packet)
                mark = True
        self._admit(packet, now)
        self._fifo.append(packet)
        if mark:
            self._mark(packet)
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        if not self._fifo:
            return None
        return self._release(self._fifo.popleft())


class PIEQueue(QueueDiscipline):
    """PIE — Proportional Integral controller Enhanced (RFC 8033, simplified).

    The controlled variable is queueing *delay*, estimated as the sojourn
    time of the packet at the head of the queue (the RFC's "latency sample"
    alternative to the departure-rate estimator).  Every ``update_interval``
    the drop probability moves by
    ``alpha * (qdelay - target_delay) + beta * (qdelay - qdelay_old)``,
    clamped to ``[0, 1]``; arrivals are then dropped (or ECN-marked) with
    that probability while more than two packets' worth of bytes are queued.
    Draining the queue resets the delay estimate, so the controller re-enters
    cleanly after an idle period.
    """

    def __init__(
        self,
        capacity_bytes: Bytes,
        target_delay: Seconds = 0.015,
        update_interval: Seconds = 0.015,
        alpha: float = 0.125,
        beta: float = 1.25,
        ecn: bool = False,
    ):
        super().__init__()
        if capacity_bytes <= 0:
            raise ValueError("capacity_bytes must be positive")
        if target_delay <= 0 or update_interval <= 0:
            raise ValueError("target_delay and update_interval must be positive")
        self.capacity_bytes = capacity_bytes
        self.target_delay = target_delay
        self.update_interval = update_interval
        self.alpha = alpha
        self.beta = beta
        self.ecn = ecn
        self._fifo: Deque[Packet] = deque()
        self._probability = 0.0
        self._qdelay = 0.0
        self._qdelay_old = 0.0
        self._next_update = 0.0

    def _update_probability(self, now: float) -> None:
        if now < self._next_update:
            return
        delta = (self.alpha * (self._qdelay - self.target_delay)
                 + self.beta * (self._qdelay - self._qdelay_old))
        self._probability = min(1.0, max(0.0, self._probability + delta))
        self._qdelay_old = self._qdelay
        self._next_update = now + self.update_interval

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
                if not self.ecn:
                    return self._drop(packet)
                self._admit(packet, now)
                self._fifo.append(packet)
                self._mark(packet)
                return True
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


class FairQueue(QueueDiscipline):
    """Per-flow fair queueing via deficit round robin (DRR).

    Each flow gets its own child discipline (drop-tail by default; CoDel for the
    "FQ + CoDel" configuration of Fig 17).  Service cycles round-robin over
    backlogged flows, giving each a ``quantum`` of bytes per round, which yields
    long-term per-flow fairness independent of per-flow arrival rates — the
    isolation Section 4.4 relies on.
    """

    def __init__(
        self,
        child_factory: Optional[Callable[[], QueueDiscipline]] = None,
        quantum_bytes: int = DEFAULT_MSS,
        per_flow_capacity_bytes: float = 10_000_000.0,
    ):
        super().__init__()
        if child_factory is None:
            child_factory = lambda: DropTailQueue(per_flow_capacity_bytes)  # noqa: E731
        self._child_factory = child_factory
        self.quantum_bytes = quantum_bytes
        self._flows: "OrderedDict[int, QueueDiscipline]" = OrderedDict()
        self._deficits: dict[int, float] = {}
        self._active: Deque[int] = deque()
        self._active_set: set[int] = set()

    def attach_rng(self, rng: random.Random) -> None:
        """Attach the RNG and propagate it to every (current and future) child."""
        self.rng = rng
        for child in self._flows.values():  # repro-lint: disable=RPL003 attaching one shared reference; order cannot be observed
            child.attach_rng(rng)

    def _child(self, flow_id: int) -> QueueDiscipline:
        child = self._flows.get(flow_id)
        if child is None:
            child = self._child_factory()
            child.on_drop = self._child_drop
            if self.rng is not None:
                child.attach_rng(self.rng)
            self._flows[flow_id] = child
            self._deficits[flow_id] = 0.0
        return child

    def _child_drop(self, packet: Packet) -> None:
        # A drop inside a child discipline must be reflected in the aggregate
        # occupancy and surfaced through the parent's drop hook.
        self.bytes_queued -= packet.size_bytes
        self.packets_queued -= 1
        self.stats.dropped += 1
        self.stats.dropped_bytes += packet.size_bytes
        if self.on_drop is not None:
            self.on_drop(packet)

    def enqueue(self, packet: Packet, now: float) -> bool:
        child = self._child(packet.flow_id)
        # Admit into aggregate book-keeping first.  Child disciplines own
        # their drop accounting: every packet a child rejects or AQM-drops
        # must pass through the child's own ``_drop``, whose ``on_drop`` hook
        # (wired to ``_child_drop``) is the single path that rolls the
        # aggregate occupancy back and surfaces the drop to the parent's
        # hook.  The parent never accounts a child drop itself — that would
        # double-count — and a child that rejects without invoking its hook
        # violates the contract, which is enforced below rather than papered
        # over.
        expected = (self.bytes_queued, self.packets_queued)
        self.bytes_queued += packet.size_bytes
        self.packets_queued += 1
        accepted = child.enqueue(packet, now)
        if not accepted:
            if (self.bytes_queued, self.packets_queued) != expected:
                raise RuntimeError(
                    "child discipline rejected a packet without routing it "
                    "through its drop hook; child disciplines own their drop "
                    "accounting (call QueueDiscipline._drop for every "
                    "rejected packet)"
                )
            return False
        self.stats.enqueued += 1
        self.stats.enqueued_bytes += packet.size_bytes
        if packet.flow_id not in self._active_set:
            self._active.append(packet.flow_id)
            self._active_set.add(packet.flow_id)
        return True

    def dequeue(self, now: float) -> Optional[Packet]:
        # Deficit round robin, one packet per call (the link serializes packets
        # one at a time).  Each iteration either returns a packet, removes an
        # emptied flow from the active list, or grants the head flow a quantum
        # and rotates it to the back — so the loop terminates whenever packets
        # remain and the quantum is positive.
        while self._active and self.packets_queued > 0:
            flow_id = self._active[0]
            child = self._flows[flow_id]
            if len(child) == 0:
                self._active.popleft()
                self._active_set.discard(flow_id)
                self._deficits[flow_id] = 0.0
                continue
            head = self._peek_child(child)
            head_size = head.size_bytes if head is not None else self.quantum_bytes
            if self._deficits[flow_id] < head_size:
                self._deficits[flow_id] += self.quantum_bytes
                self._active.rotate(-1)
                continue
            packet = child.dequeue(now)
            if packet is None:
                # CoDel may have dropped the whole backlog of this flow.
                continue
            self._deficits[flow_id] -= packet.size_bytes
            self.bytes_queued -= packet.size_bytes
            self.packets_queued -= 1
            self.stats.dequeued += 1
            if len(child) == 0:
                self._active.popleft()
                self._active_set.discard(flow_id)
                self._deficits[flow_id] = 0.0
            return packet
        return None

    @staticmethod
    def _peek_child(child: QueueDiscipline) -> Optional[Packet]:
        fifo = getattr(child, "_fifo", None)
        if fifo:
            return fifo[0]
        return None


# --------------------------------------------------------------------------
# The registry.

#: The discipline every entry point uses unless told otherwise.  Cell
#: identities record ``qdisc`` only when it differs from this, so all golden
#: JSON artifacts produced before the registry existed stay byte-comparable.
DEFAULT_QDISC = "droptail"

_QDISCS = KwargRegistry("queue discipline", "qdisc_kwargs", ("buffer_bytes",))


def register_qdisc(name: str, factory: Callable[..., QueueDiscipline]) -> None:
    """Register ``factory`` under ``name`` for use as a cell's ``qdisc``.

    ``factory(buffer_bytes, **kwargs)`` must return a *fresh*
    :class:`QueueDiscipline` on every call (links never share queues),
    RNG-free (the module's attach-rng convention; lint rule RPL017), and —
    like every registry entry (:mod:`repro.registry`) — be registered at
    module import time, or multi-worker sweeps fail with "unknown queue
    discipline".

    The keyword parameters after ``buffer_bytes`` in the factory's signature
    are the kwargs it accepts, each with its default (a discipline class
    whose constructor has that shape registers as its own factory).
    :func:`make_qdisc` merges explicit kwargs over the defaults and rejects
    unknown keys, so typos fail loudly and archived cell identities record
    fully-resolved values.
    """
    _QDISCS.register(name, factory)


def resolve_qdisc_kwargs(name: str, kwargs: Dict[str, Any]) -> Dict[str, Any]:
    """Merge ``kwargs`` over the qdisc's declared defaults, rejecting keys
    the factory never declared."""
    return _QDISCS.resolve(name, kwargs)


def make_qdisc(name: str, buffer_bytes: Bytes, **kwargs: Any) -> QueueDiscipline:
    """Build a fresh queue discipline by registered name.

    ``buffer_bytes`` is the link's configured buffer size; disciplines that
    bound occupancy use it as their byte capacity (the infinite queue
    ignores it).  Remaining kwargs are resolved against the factory's
    declared defaults, so unknown keys raise here rather than silently
    disappearing into a ``**kwargs`` sink.
    """
    return _QDISCS.build(name, float(buffer_bytes), **kwargs)


def qdisc_names() -> List[str]:
    """All registered queue-discipline names, sorted."""
    return _QDISCS.names()


def _make_infinite(buffer_bytes: Bytes) -> QueueDiscipline:
    return InfiniteQueue()


def _make_fq(buffer_bytes: Bytes, child: str = "droptail",
             quantum_bytes: int = DEFAULT_MSS) -> QueueDiscipline:
    """DRR fair queueing composed over registered children by name.

    Each flow's child is built via :func:`make_qdisc`, so ``child`` may be
    any registered discipline — including third-party ones — and each child
    gets the full ``buffer_bytes`` as its per-flow capacity.
    """
    if child == "fq" or child == "fq_codel":
        raise ValueError("fq children must be non-composed disciplines")
    return FairQueue(
        child_factory=lambda: make_qdisc(child, buffer_bytes),
        quantum_bytes=quantum_bytes,
        per_flow_capacity_bytes=buffer_bytes,
    )


def _make_fq_codel(buffer_bytes: Bytes, target: Seconds = 0.005,
                   interval: Seconds = 0.100, quantum_bytes: int = DEFAULT_MSS,
                   ecn: bool = False) -> QueueDiscipline:
    return FairQueue(
        child_factory=lambda: CoDelQueue(capacity_bytes=buffer_bytes,
                                         target=target, interval=interval,
                                         ecn=ecn),
        quantum_bytes=quantum_bytes,
        per_flow_capacity_bytes=buffer_bytes,
    )


# The four classes' constructors take the buffer first and then exactly the
# options their names have always declared, so each is its own factory.
register_qdisc("droptail", DropTailQueue)
register_qdisc("infinite", _make_infinite)
register_qdisc("codel", CoDelQueue)
register_qdisc("red", REDQueue)
register_qdisc("pie", PIEQueue)
register_qdisc("fq", _make_fq)
register_qdisc("fq_codel", _make_fq_codel)
