"""Queue-discipline registry plus the RED / PIE / FQ-CoDel disciplines.

:mod:`repro.netsim.queues` defines the :class:`QueueDiscipline` interface and
the four disciplines the paper's figures exercise directly.  This module puts
every discipline behind a :class:`~repro.registry.NameRegistry` — the same
pluggable-by-JSON-name pattern schemes and topologies use —
so sweep cells, report specs and the CLIs select queueing behavior with a
``qdisc`` name plus declarative kwargs, and adds the canonical AQM baselines
the reproduction's Figure 17 matrix extends to: RED (Floyd & Jacobson), PIE
(RFC 8033, simplified), and FQ-CoDel (DRR fair queueing composed over CoDel
children).

Registry contract (shared with every other registry):

* **import time** — factories must be registered at module import time so
  ``spawn``-method sweep workers re-resolve names after re-importing
  (lint rule RPL017 pins this for qdisc factories);
* **attach-rng** — factories must construct disciplines *without* drawing
  from (or capturing) the simulator RNG; randomized disciplines receive
  ``sim.rng`` via :meth:`QueueDiscipline.attach_rng` after the link wires
  them up (also RPL017), so building a queue never perturbs the event
  stream;
* **declared kwargs** — ``kwarg_defaults`` names every key a factory
  accepts; :func:`resolve_qdisc_kwargs` merges explicit kwargs over the
  defaults and rejects unknown keys at grid-construction time, and the
  *resolved* values are what cell identities record.

``ecn=True`` (supported by CoDel, RED, PIE and the threshold variant of
drop-tail) switches the discipline's *AQM decision* from drop to
ECN-marking; buffer-overflow drops still drop.  See
:mod:`repro.netsim.queues` for how the mark echoes back to senders.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional

from ..registry import NameRegistry
from ..units import Bytes, Seconds
from .packet import DEFAULT_MSS, Packet
from .queues import (
    CoDelQueue,
    DropTailQueue,
    FairQueue,
    InfiniteQueue,
    QueueDiscipline,
)

__all__ = [
    "DEFAULT_QDISC",
    "PIEQueue",
    "REDQueue",
    "make_qdisc",
    "qdisc_names",
    "register_qdisc",
    "resolve_qdisc_kwargs",
]

#: The discipline every entry point uses unless told otherwise.  Cell
#: identities record ``qdisc`` only when it differs from this, so all golden
#: JSON artifacts produced before the registry existed stay byte-comparable.
DEFAULT_QDISC = "droptail"


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


# --------------------------------------------------------------------------
# The registry.


#: A registered factory: ``factory(buffer_bytes=..., **resolved_kwargs)``
#: returning a fresh :class:`QueueDiscipline`.
QdiscFactory = Callable[..., QueueDiscipline]


@dataclass(frozen=True)
class _Qdisc:
    factory: QdiscFactory
    kwarg_defaults: Dict[str, Any] = field(default_factory=dict)


_QDISCS: NameRegistry[_Qdisc] = NameRegistry("queue discipline")


def register_qdisc(
    name: str,
    factory: QdiscFactory,
    kwarg_defaults: Optional[Dict[str, Any]] = None,
) -> None:
    """Register ``factory`` under ``name`` for use as a cell's ``qdisc``.

    ``factory(buffer_bytes=..., **kwargs)`` must return a *fresh*
    :class:`QueueDiscipline` on every call (links never share queues) and
    must follow the attach-rng pattern: no simulator RNG access at
    construction time — randomized disciplines get ``sim.rng`` through
    :meth:`QueueDiscipline.attach_rng` once the link wires them up.  Lint
    rule RPL017 enforces both this and import-time registration.

    ``kwarg_defaults`` declares every kwarg the factory accepts together
    with its default.  :func:`make_qdisc` merges explicit kwargs over the
    defaults and rejects unknown keys, so typos fail loudly and archived
    cell identities record fully-resolved values.

    Cells cross the process boundary carrying only the qdisc *name*; each
    worker resolves it against its own registry, so custom disciplines must
    be registered at module import time (top level of an imported module) —
    otherwise multi-worker sweeps fail with "unknown queue discipline".
    """
    _QDISCS.register(name, _Qdisc(
        factory=factory,
        kwarg_defaults=dict(kwarg_defaults or {}),
    ))


def resolve_qdisc_kwargs(name: str, kwargs: Dict[str, Any]) -> Dict[str, Any]:
    """Merge ``kwargs`` over the qdisc's declared defaults, rejecting keys
    the factory never declared."""
    defaults = _QDISCS.get(name).kwarg_defaults
    unknown = set(kwargs) - set(defaults)
    if unknown:
        raise ValueError(
            f"unknown qdisc_kwargs for {name!r}: {sorted(unknown)}"
        )
    return {**defaults, **kwargs}


def make_qdisc(name: str, buffer_bytes: Bytes, **kwargs: Any) -> QueueDiscipline:
    """Build a fresh queue discipline by registered name.

    ``buffer_bytes`` is the link's configured buffer size; disciplines that
    bound occupancy use it as their byte capacity (the infinite queue
    ignores it).  Remaining kwargs are resolved against the factory's
    declared defaults, so unknown keys raise here rather than silently
    disappearing into a ``**kwargs`` sink.
    """
    entry = _QDISCS.get(name)
    resolved = resolve_qdisc_kwargs(name, dict(kwargs))
    return entry.factory(buffer_bytes=float(buffer_bytes), **resolved)


def qdisc_names() -> List[str]:
    """All registered queue-discipline names, sorted."""
    return _QDISCS.names()


# --------------------------------------------------------------------------
# Built-in disciplines.


def _make_droptail(buffer_bytes: Bytes, drop_policy: str = "tail",
                   ecn_threshold_bytes: Optional[Bytes] = None) -> QueueDiscipline:
    return DropTailQueue(buffer_bytes, drop_policy=drop_policy,
                         ecn_threshold_bytes=ecn_threshold_bytes)


def _make_infinite(buffer_bytes: Bytes) -> QueueDiscipline:
    return InfiniteQueue()


def _make_codel(buffer_bytes: Bytes, target: Seconds = 0.005,
                interval: Seconds = 0.100, ecn: bool = False) -> QueueDiscipline:
    return CoDelQueue(capacity_bytes=buffer_bytes, target=target,
                      interval=interval, ecn=ecn)


def _make_red(buffer_bytes: Bytes, min_threshold_fraction: float = 0.2,
              max_threshold_fraction: float = 0.6,
              max_drop_probability: float = 0.1, weight: float = 0.002,
              ecn: bool = False) -> QueueDiscipline:
    return REDQueue(buffer_bytes,
                    min_threshold_fraction=min_threshold_fraction,
                    max_threshold_fraction=max_threshold_fraction,
                    max_drop_probability=max_drop_probability,
                    weight=weight, ecn=ecn)


def _make_pie(buffer_bytes: Bytes, target_delay: Seconds = 0.015,
              update_interval: Seconds = 0.015, alpha: float = 0.125,
              beta: float = 1.25, ecn: bool = False) -> QueueDiscipline:
    return PIEQueue(buffer_bytes, target_delay=target_delay,
                    update_interval=update_interval, alpha=alpha, beta=beta,
                    ecn=ecn)


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


register_qdisc("droptail", _make_droptail,
               {"drop_policy": "tail", "ecn_threshold_bytes": None})
register_qdisc("infinite", _make_infinite)
register_qdisc("codel", _make_codel,
               {"target": 0.005, "interval": 0.100, "ecn": False})
register_qdisc("red", _make_red,
               {"min_threshold_fraction": 0.2, "max_threshold_fraction": 0.6,
                "max_drop_probability": 0.1, "weight": 0.002, "ecn": False})
register_qdisc("pie", _make_pie,
               {"target_delay": 0.015, "update_interval": 0.015,
                "alpha": 0.125, "beta": 1.25, "ecn": False})
register_qdisc("fq", _make_fq,
               {"child": "droptail", "quantum_bytes": DEFAULT_MSS})
register_qdisc("fq_codel", _make_fq_codel,
               {"target": 0.005, "interval": 0.100,
                "quantum_bytes": DEFAULT_MSS, "ecn": False})
