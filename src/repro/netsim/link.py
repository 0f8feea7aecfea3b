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

Most links in every cell hold a plain drop-tail FIFO (every access and reverse
link, and the bottleneck unless a cell names an AQM).  ``Link(...)`` with a
queue that is exactly :class:`~repro.netsim.queues.DropTailQueue` builds a
:class:`Link` subclass that admits, serves and releases packets in its own
arrival and chained-service frames, keeping the queue's counters; every other
discipline is driven through its ``enqueue`` / ``dequeue``.  Both give the
same events, drops and counters, bit for bit.

Each event on a link is counted once, by the object that decides it: the
queue counts what it admits, releases and drops (``queue.stats``), and the
link counts the one thing no queue sees, a packet lost in transit
(:attr:`Link.packets_randomly_lost`).  Nothing is called back.
"""

from __future__ import annotations

import math
from typing import Optional

from ..units import BITS_PER_BYTE, BPS_PER_MBPS, MS_PER_S, Bps, Seconds
from .engine import Simulator
from .packet import Packet
from .queues import DropTailQueue, QueueDiscipline

__all__ = ["Link"]


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
        delivered; the loss is decided — and counted in
        :attr:`packets_randomly_lost` — when the packet begins serialization.
    name:
        Optional human-readable name used in reprs and traces.
    """

    def __new__(
        cls,
        sim: Simulator,
        bandwidth_bps: Bps,
        delay_s: Seconds,
        queue: Optional[QueueDiscipline] = None,
        loss_rate: float = 0.0,
        name: str = "",
    ) -> "Link":
        # The path is chosen once, here, from the queue's exact type: a
        # DropTailQueue subclass may change what enqueue / dequeue do.
        if cls is Link and (queue is None or type(queue) is DropTailQueue):
            cls = _DropTailLink
        return super().__new__(cls)

    def __init__(
        self,
        sim: Simulator,
        bandwidth_bps: Bps,
        delay_s: Seconds,
        queue: Optional[QueueDiscipline] = None,
        loss_rate: float = 0.0,
        name: str = "",
    ):
        self.sim = sim
        self.set_bandwidth(bandwidth_bps)
        self.set_delay(delay_s)
        self.set_loss_rate(loss_rate)
        self.queue = queue if queue is not None else DropTailQueue(1_000_000)
        # Randomized disciplines (RED, PIE) draw from the simulator RNG;
        # attaching it here — never at construction — is what keeps queue
        # building free of RNG side effects (the attach-rng pattern, pinned by
        # tests/netsim/test_queues.py::TestConstructionDrawsNoRandomness).
        self.queue.attach_rng(sim.rng)
        self.name = name
        #: Packets lost in transit (the Bernoulli ``loss_rate``); what the
        #: queue admits, releases and drops is counted in ``queue.stats``.
        self.packets_randomly_lost = 0
        #: Absolute simulated time at which the current serialization ends.
        self._busy_until = 0.0
        #: Whether the single chained service entry is in the heap: only
        #: while a packet is being serialized *and* more packets are waiting
        #: (or one arrived mid-serialization).  Packets that find the link
        #: idle are served inline with no service entry at all, so an
        #: uncongested link costs one event per packet (the delivery) instead
        #: of two.  The entry calls :meth:`_serve_next`, which clears this.
        self._service_pending = False
        # Every time this link schedules is now plus a finite, non-negative
        # amount (the parameters are checked on every write), so it pushes
        # its own heap entries, ``[time, seq, callback, args]``, without
        # the simulator's checks or an Event handle: nothing cancels them.
        self._push = sim.push
        self._seq = sim.seq

    # ------------------------------------------------------------------ #
    # Parameter mutation (Figure 11 dynamics, Table 1 rate limiting)
    # ------------------------------------------------------------------ #
    def set_bandwidth(self, bandwidth_bps: Bps) -> None:
        """Change the serialization rate; takes effect for the next packet."""
        if not 0.0 < bandwidth_bps < math.inf:
            raise ValueError("bandwidth_bps must be positive")
        self.bandwidth_bps = float(bandwidth_bps)

    def set_delay(self, delay_s: Seconds) -> None:
        """Change the propagation delay; packets already in flight are unaffected."""
        if not 0.0 <= delay_s < math.inf:
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
        if not self.queue.enqueue(packet, now):
            return
        if self._service_pending:
            return  # a chained service entry will pick the packet up
        if now >= self._busy_until:
            self._serve_next()
        else:
            # Arrived mid-serialization with no chain pending: wake the link
            # when the in-flight packet finishes.  The time is ``now + (busy -
            # now)``, not ``busy``: the two can differ in the last bit, and
            # every seeded result rests on these times bit for bit.
            self._service_pending = True
            self._push([now + (self._busy_until - now), next(self._seq),
                        self._serve_next, ()])

    def _serve_next(self) -> None:
        """Start serializing the next queued packet (the chained service
        entry's callback, or inline for a packet that found the link idle)."""
        self._service_pending = False
        now = self.sim.now
        packet = self.queue.dequeue(now)
        if packet is None:
            return
        route = packet.route
        if route is None:
            raise RuntimeError("packet has no route attached")
        serialization = packet.size_bytes * BITS_PER_BYTE / self.bandwidth_bps
        self._busy_until = busy_until = now + serialization
        # The chain entry is pushed before the delivery, so a same-instant
        # tie fires the service first.
        if self.queue.packets_queued > 0:
            self._service_pending = True
            self._push([busy_until, next(self._seq), self._serve_next, ()])
        if self.loss_rate > 0.0 and self.sim.rng.random() < self.loss_rate:
            self.packets_randomly_lost += 1
        else:
            # The delivery entry calls the next hop directly: the next link's
            # enqueue, or the destination after the last link.  The time is
            # ``now + (serialization + delay)`` in that grouping, for the
            # same bit-for-bit reason as in ``enqueue``.
            hop = packet.hop
            packet.hop = hop + 1
            self._push([now + (serialization + self.delay_s), next(self._seq),
                        route.hops[hop], (packet,)])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        label = self.name or "link"
        return (
            f"Link({label}, {self.bandwidth_bps / BPS_PER_MBPS:.2f} Mbps, "
            f"{self.delay_s * MS_PER_S:.1f} ms, loss={self.loss_rate:.4f})"
        )


class _DropTailLink(Link):
    """A link whose queue is exactly :class:`DropTailQueue`, built by
    ``Link(...)``.

    The queue's ``enqueue`` / ``dequeue`` are written out here, in the frame
    that holds the packet: the arrival admits it, or drops it and counts the
    drop in ``queue.stats`` as the queue's ``_drop`` does, and when the link
    is idle — so the queue is empty — releases and serializes it at once; the
    chained service entry releases the head and serializes it.  The queue's
    counters and FIFO are the ones ``DropTailQueue`` keeps, and the
    serialization block is :meth:`Link._serve_next`'s.
    """

    queue: DropTailQueue

    def enqueue(self, packet: Packet) -> None:
        """Offer ``packet`` to the link: queue it and start serializing if idle."""
        now = self.sim.now
        queue = self.queue
        size_bytes = packet.size_bytes
        if queue.bytes_queued + size_bytes > queue.capacity_bytes:
            queue.stats.dropped += 1  # the queue's _drop
            return
        packet.enqueue_time = now
        queue.stats.enqueued += 1
        if self._service_pending or now < self._busy_until:
            queue.bytes_queued += size_bytes
            queue.packets_queued += 1
            queue._fifo.append(packet)
            if not self._service_pending:
                # Same entry, same time expression, as Link.enqueue.
                self._service_pending = True
                self._push([now + (self._busy_until - now), next(self._seq),
                            self._serve_next, ()])
            return
        # Idle with nothing pending: the queue is empty, so the packet is
        # released as it is admitted and nothing is chained behind it.
        queue.stats.dequeued += 1
        route = packet.route
        if route is None:
            raise RuntimeError("packet has no route attached")
        serialization = size_bytes * BITS_PER_BYTE / self.bandwidth_bps
        self._busy_until = now + serialization
        if self.loss_rate > 0.0 and self.sim.rng.random() < self.loss_rate:
            self.packets_randomly_lost += 1
        else:
            hop = packet.hop
            packet.hop = hop + 1
            self._push([now + (serialization + self.delay_s), next(self._seq),
                        route.hops[hop], (packet,)])

    def _serve_next(self) -> None:
        """Release the head packet and start serializing it (the chained
        service entry's callback)."""
        self._service_pending = False
        queue = self.queue
        fifo = queue._fifo
        if not fifo:
            return
        packet = fifo.popleft()
        size_bytes = packet.size_bytes
        queue.bytes_queued -= size_bytes
        queue.packets_queued -= 1
        queue.stats.dequeued += 1
        now = self.sim.now
        route = packet.route
        if route is None:
            raise RuntimeError("packet has no route attached")
        serialization = size_bytes * BITS_PER_BYTE / self.bandwidth_bps
        self._busy_until = busy_until = now + serialization
        if fifo:
            self._service_pending = True
            self._push([busy_until, next(self._seq), self._serve_next, ()])
        if self.loss_rate > 0.0 and self.sim.rng.random() < self.loss_rate:
            self.packets_randomly_lost += 1
        else:
            hop = packet.hop
            packet.hop = hop + 1
            self._push([now + (serialization + self.delay_s), next(self._seq),
                        route.hops[hop], (packet,)])
