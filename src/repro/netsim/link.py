"""Simulated links.

A :class:`Link` is a unidirectional transmission resource with

* a finite bandwidth (the serialization rate),
* a fixed propagation delay,
* an optional Bernoulli per-packet random-loss probability, and
* a queue discipline holding packets that arrive while the link is busy.

This is the abstraction the paper's Emulab experiments configure directly
(bandwidth, RTT, random loss rate, buffer size), and — composed in series —
what the "wild Internet" paths of Figure 4/5 reduce to.

Bandwidth, delay and loss are mutable at runtime so that the rapidly-changing
network of Figure 11 and the bandwidth-reserving rate limiter of Table 1 can be
modelled by rescheduling parameter changes (see :mod:`repro.netsim.dynamics`).
"""

from __future__ import annotations

from typing import Callable, Optional

from ..units import BITS_PER_BYTE, BPS_PER_MBPS, MS_PER_S, Bps, Seconds
from .engine import Event, Simulator
from .packet import Packet
from .queues import DropTailQueue, QueueDiscipline

__all__ = ["Link", "LinkStats"]


class LinkStats:
    """Counters kept by every link."""

    __slots__ = (
        "packets_sent",
        "bytes_sent",
        "packets_randomly_lost",
        "packets_queue_dropped",
        "busy_time",
    )

    def __init__(self) -> None:
        self.packets_sent = 0
        self.bytes_sent = 0
        self.packets_randomly_lost = 0
        self.packets_queue_dropped = 0
        self.busy_time = 0.0

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` seconds the link spent serializing packets."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)


class Link:
    """A unidirectional link with serialization, propagation, loss and a queue.

    Parameters
    ----------
    sim:
        The owning simulator.
    bandwidth_bps:
        Serialization rate in bits per second.
    delay_s:
        One-way propagation delay in seconds.
    queue:
        Queue discipline holding packets while the link is busy.  Defaults to a
        drop-tail queue sized generously (1 MB).
    loss_rate:
        Bernoulli probability that a packet is corrupted/lost in transit (a
        transmitted-but-lost model, matching lossy radio/satellite links where
        the bits are sent but never arrive intact).  A lost packet still
        occupies the link for its full serialization time but is never
        delivered; the loss is decided — and counted in :attr:`stats` /
        reported via :attr:`on_loss` — when the packet begins serialization.
    name:
        Optional human-readable name used in reprs and traces.
    """

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: Bps,
        delay_s: Seconds,
        queue: Optional[QueueDiscipline] = None,
        loss_rate: float = 0.0,
        name: str = "",
    ):
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth_bps must be positive")
        if delay_s < 0:
            raise ValueError("delay_s must be non-negative")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        self.sim = sim
        self.bandwidth_bps = float(bandwidth_bps)
        self.delay_s = float(delay_s)
        self.loss_rate = float(loss_rate)
        self.queue = queue if queue is not None else DropTailQueue(1_000_000)
        self.queue.on_drop = self._record_queue_drop
        # Randomized disciplines (RED, PIE, random drop policy) draw from the
        # simulator RNG; attaching it here — never at construction — is what
        # keeps queue building free of RNG side effects (the attach-rng
        # pattern, lint rule RPL017).
        self.queue.attach_rng(sim.rng)
        self.name = name
        self.stats = LinkStats()
        #: Absolute simulated time at which the current serialization ends.
        self._busy_until = 0.0
        #: The single chained service-completion event, live only while a
        #: packet is being serialized *and* more packets are waiting (or one
        #: arrived mid-serialization).  Packets that find the link idle are
        #: served inline with no service event at all, so an uncongested link
        #: costs one event per packet (the delivery) instead of two.
        self._service_event: Optional[Event] = None
        #: Optional hook invoked for every packet lost on this link (random loss
        #: or queue drop); receives the packet.  Used by per-flow statistics.
        self.on_loss: Optional[Callable[[Packet], None]] = None

    # ------------------------------------------------------------------ #
    # Parameter mutation (Figure 11 dynamics, Table 1 rate limiting)
    # ------------------------------------------------------------------ #
    def set_bandwidth(self, bandwidth_bps: Bps) -> None:
        """Change the serialization rate; takes effect for the next packet."""
        if bandwidth_bps <= 0:
            raise ValueError("bandwidth_bps must be positive")
        self.bandwidth_bps = float(bandwidth_bps)

    def set_delay(self, delay_s: Seconds) -> None:
        """Change the propagation delay; packets already in flight are unaffected."""
        if delay_s < 0:
            raise ValueError("delay_s must be non-negative")
        self.delay_s = float(delay_s)

    def set_loss_rate(self, loss_rate: float) -> None:
        """Change the Bernoulli random-loss probability."""
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError("loss_rate must be in [0, 1)")
        self.loss_rate = float(loss_rate)

    # ------------------------------------------------------------------ #
    # Data path
    # ------------------------------------------------------------------ #
    def enqueue(self, packet: Packet) -> None:
        """Offer ``packet`` to the link: queue it and start serializing if idle."""
        now = self.sim.now
        accepted = self.queue.enqueue(packet, now)
        if not accepted:
            return
        if self._service_event is not None:
            return  # a chained service completion will pick the packet up
        if now >= self._busy_until:
            self._serve_next()
        else:
            # Arrived mid-serialization with no chain pending: wake the link
            # when the in-flight packet finishes.
            self._service_event = self.sim.schedule(
                self._busy_until - now, self._service_done
            )

    def _record_queue_drop(self, packet: Packet) -> None:
        self.stats.packets_queue_dropped += 1
        if self.on_loss is not None:
            self.on_loss(packet)

    def _service_done(self) -> None:
        self._service_event = None
        self._serve_next()

    def _serve_next(self) -> None:
        sim = self.sim
        now = sim.now
        packet = self.queue.dequeue(now)
        if packet is None:
            return
        route = packet.route
        if route is None:
            raise RuntimeError("packet has no route attached")
        size_bytes = packet.size_bytes
        serialization = size_bytes * BITS_PER_BYTE / self.bandwidth_bps
        stats = self.stats
        stats.busy_time += serialization
        self._busy_until = busy_until = now + serialization
        stats.packets_sent += 1
        stats.bytes_sent += size_bytes
        # Chain the next service completion BEFORE invoking the loss hook: a
        # re-entrant enqueue from on_loss must see either the chain event or a
        # consistent busy window, never overwrite the handle set below.
        if self.queue.packets_queued > 0:
            self._service_event = sim.schedule_at(busy_until, self._service_done)
        if self.loss_rate > 0.0 and sim.rng.random() < self.loss_rate:
            stats.packets_randomly_lost += 1
            if self.on_loss is not None:
                self.on_loss(packet)
        else:
            # ``now + delay`` is the addition ``schedule(delay, ...)`` performs,
            # so event times are bit-identical to going through it.
            sim.schedule_at(now + (serialization + self.delay_s), route.advance, packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or "link"
        return (
            f"Link({label}, {self.bandwidth_bps / BPS_PER_MBPS:.2f} Mbps, "
            f"{self.delay_s * MS_PER_S:.1f} ms, loss={self.loss_rate:.4f})"
        )
