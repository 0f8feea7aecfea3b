"""Topology builders for the paper's evaluation scenarios.

Every scenario in Section 4 reduces to one of a few shapes:

* a **single bottleneck path** (satellite, lossy link, shallow buffer,
  inter-data-center, wild-Internet pairs);
* a **dumbbell**: several sender/receiver pairs whose access links feed one
  shared bottleneck (convergence, fairness, RTT-unfairness, friendliness);
* an **incast** fan-in: many senders, one receiver, one shared last-hop link;
* a **parking lot**: N bottleneck hops in series, one long flow traversing all
  of them plus per-hop cross traffic (multi-hop inter-DC paths and the
  RTT-diversity conditions of §4.3).

The builders here create the links and :class:`~repro.netsim.route.Path`
objects; attaching senders/receivers and congestion controllers is done by
:mod:`repro.experiments.runner`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from ..units import BITS_PER_BYTE, Bps, Bytes, Seconds
from .engine import Simulator
from .link import Link
from .queues import DropTailQueue, QueueDiscipline
from .route import Path

__all__ = [
    "LinkConfig",
    "single_bottleneck",
    "dumbbell",
    "incast",
    "parking_lot",
    "bdp_bytes",
]

#: Buffer of every link none of the paper's experiments congests: the ACK
#: direction and the access links (bytes).
_UNCONGESTED_BUFFER_BYTES = 3_000_000.0

#: Access links run this many times faster than the bottleneck they feed.
_ACCESS_SPEEDUP = 10.0

#: One-way delay of every parking-lot access link (seconds).
PARKING_LOT_ACCESS_DELAY = 0.0005


def bdp_bytes(bandwidth_bps: Bps, rtt: Seconds) -> Bytes:
    """Bandwidth-delay product in bytes."""
    return bandwidth_bps * rtt / BITS_PER_BYTE


@dataclass
class LinkConfig:
    """Parameters for one unidirectional link."""

    bandwidth_bps: Bps
    delay_s: Seconds
    loss_rate: float = 0.0
    buffer_bytes: Bytes = 1_000_000.0
    queue_factory: Optional[Callable[[], QueueDiscipline]] = None
    name: str = ""

    def build(self, sim: Simulator) -> Link:
        """Instantiate the link inside ``sim``."""
        if self.queue_factory is not None:
            queue = self.queue_factory()
        else:
            queue = DropTailQueue(self.buffer_bytes)
        return Link(
            sim,
            bandwidth_bps=self.bandwidth_bps,
            delay_s=self.delay_s,
            queue=queue,
            loss_rate=self.loss_rate,
            name=self.name,
        )


@dataclass
class SingleBottleneck:
    """A single bidirectional bottleneck path."""

    forward: Link
    reverse: Link
    path: Path


def single_bottleneck(
    sim: Simulator,
    bandwidth_bps: float,
    rtt: float,
    buffer_bytes: float,
    loss_rate: float = 0.0,
    reverse_loss_rate: Optional[float] = None,
    queue_factory: Optional[Callable[[], QueueDiscipline]] = None,
) -> SingleBottleneck:
    """Build one bottleneck link pair (forward data, reverse ACK).

    The one-way propagation delay is ``rtt / 2`` in each direction.  The
    reverse (ACK) direction gets the same bandwidth and a generous buffer,
    because none of the paper's experiments congest the ACK path; it is lossy
    only when ``reverse_loss_rate`` is given (Figure 7 uses loss on both
    directions).
    """
    forward_cfg = LinkConfig(
        bandwidth_bps=bandwidth_bps,
        delay_s=rtt / 2.0,
        loss_rate=loss_rate,
        buffer_bytes=buffer_bytes,
        queue_factory=queue_factory,
        name="bottleneck-fwd",
    )
    reverse_cfg = LinkConfig(
        bandwidth_bps=bandwidth_bps,
        delay_s=rtt / 2.0,
        loss_rate=reverse_loss_rate if reverse_loss_rate is not None else 0.0,
        buffer_bytes=max(buffer_bytes, _UNCONGESTED_BUFFER_BYTES),
        name="bottleneck-rev",
    )
    forward = forward_cfg.build(sim)
    reverse = reverse_cfg.build(sim)
    path = Path([forward], [reverse])
    return SingleBottleneck(forward=forward, reverse=reverse, path=path)


@dataclass
class Dumbbell:
    """A dumbbell: per-flow access links sharing one bottleneck in each direction."""

    bottleneck_forward: Link
    bottleneck_reverse: Link
    access_forward: List[Link] = field(default_factory=list)
    access_reverse: List[Link] = field(default_factory=list)
    paths: List[Path] = field(default_factory=list)


def dumbbell(
    sim: Simulator,
    bottleneck: LinkConfig,
    access_delays: Sequence[float],
) -> Dumbbell:
    """Build a dumbbell shared by ``len(access_delays)`` flows.

    Each flow ``i`` traverses its own access link (propagation delay
    ``access_delays[i]``, non-bottleneck bandwidth) followed by the shared
    bottleneck; ACKs return over a mirrored reverse topology.  Per-flow base
    RTT is ``2 * (access_delays[i] + bottleneck.delay_s)``.
    """
    access_bw = bottleneck.bandwidth_bps * _ACCESS_SPEEDUP
    bottleneck_forward = bottleneck.build(sim)
    reverse_cfg = LinkConfig(
        bandwidth_bps=bottleneck.bandwidth_bps,
        delay_s=bottleneck.delay_s,
        buffer_bytes=max(bottleneck.buffer_bytes, _UNCONGESTED_BUFFER_BYTES),
        name="bottleneck-rev",
    )
    bottleneck_reverse = reverse_cfg.build(sim)
    topo = Dumbbell(
        bottleneck_forward=bottleneck_forward, bottleneck_reverse=bottleneck_reverse
    )
    for i, delay_s in enumerate(access_delays):
        fwd = Link(
            sim,
            bandwidth_bps=access_bw,
            delay_s=delay_s,
            queue=DropTailQueue(_UNCONGESTED_BUFFER_BYTES),
            name=f"access-fwd-{i}",
        )
        rev = Link(
            sim,
            bandwidth_bps=access_bw,
            delay_s=delay_s,
            queue=DropTailQueue(_UNCONGESTED_BUFFER_BYTES),
            name=f"access-rev-{i}",
        )
        topo.access_forward.append(fwd)
        topo.access_reverse.append(rev)
        topo.paths.append(Path([fwd, bottleneck_forward], [bottleneck_reverse, rev]))
    return topo


@dataclass
class Incast:
    """An incast fan-in: many senders, one receiver behind a shared last hop."""

    shared_link: Link
    reverse_links: List[Link] = field(default_factory=list)
    paths: List[Path] = field(default_factory=list)


def incast(
    sim: Simulator,
    num_senders: int,
    bandwidth_bps: float = 1_000_000_000.0,
    rtt: float = 0.0004,
    buffer_bytes: float = 64_000.0,
) -> Incast:
    """Build the Figure 10 incast topology.

    ``num_senders`` senders each have a private access link into a switch whose
    single output port (the shared link, with a shallow ``buffer_bytes``
    buffer) leads to the receiver — the classic data-center incast bottleneck.
    Every link runs at ``bandwidth_bps``.
    """
    shared = Link(
        sim,
        bandwidth_bps=bandwidth_bps,
        delay_s=rtt / 4.0,
        queue=DropTailQueue(buffer_bytes),
        name="incast-shared",
    )
    topo = Incast(shared_link=shared)
    for i in range(num_senders):
        access = Link(
            sim,
            bandwidth_bps=bandwidth_bps,
            delay_s=rtt / 4.0,
            queue=DropTailQueue(1_000_000.0),
            name=f"incast-access-{i}",
        )
        reverse = Link(
            sim,
            bandwidth_bps=bandwidth_bps,
            delay_s=rtt / 2.0,
            queue=DropTailQueue(1_000_000.0),
            name=f"incast-rev-{i}",
        )
        topo.reverse_links.append(reverse)
        topo.paths.append(Path([access, shared], [reverse]))
    return topo


@dataclass
class ParkingLot:
    """A parking-lot chain: N bottleneck hops in series with per-hop cross traffic.

    ``paths[0]`` is the long flow's path (all hops); ``paths[1 + i]`` is the
    cross path that enters just before hop ``i`` and exits right after it.
    """

    hops: List[Link] = field(default_factory=list)
    reverse_hops: List[Link] = field(default_factory=list)
    access_forward: List[Link] = field(default_factory=list)
    access_reverse: List[Link] = field(default_factory=list)
    long_path: Optional[Path] = None
    cross_paths: List[Path] = field(default_factory=list)

    @property
    def paths(self) -> List[Path]:
        """All paths, long flow first — the order sweeps assign flows in."""
        return [self.long_path, *self.cross_paths]

    @property
    def num_hops(self) -> int:
        return len(self.hops)


def parking_lot(
    sim: Simulator,
    num_hops: int,
    bandwidth_bps: float,
    hop_delay: float,
    buffer_bytes: float,
    loss_rate: float = 0.0,
    queue_factory: Optional[Callable[[], QueueDiscipline]] = None,
) -> ParkingLot:
    """Build a multi-bottleneck parking-lot chain.

    ``num_hops`` bottleneck links (each ``bandwidth_bps`` / ``hop_delay`` /
    ``buffer_bytes``, optional random ``loss_rate``) are wired in series.  The
    long flow enters through its own access link, crosses every hop, and its
    ACKs return over a mirrored chain of reverse hops; cross flow ``i`` enters
    through a private access link, shares only hop ``i``, and returns over
    reverse hop ``i``.  Base RTTs are therefore RTT-diverse by construction:
    ``2 * (PARKING_LOT_ACCESS_DELAY + num_hops * hop_delay)`` for the long
    flow versus ``2 * (PARKING_LOT_ACCESS_DELAY + hop_delay)`` for each cross
    flow.
    """
    if num_hops < 1:
        raise ValueError("a parking lot needs at least one hop")
    access_bw = bandwidth_bps * _ACCESS_SPEEDUP
    topo = ParkingLot()
    for i in range(num_hops):
        forward_cfg = LinkConfig(
            bandwidth_bps=bandwidth_bps,
            delay_s=hop_delay,
            loss_rate=loss_rate,
            buffer_bytes=buffer_bytes,
            queue_factory=queue_factory,
            name=f"hop-fwd-{i}",
        )
        topo.hops.append(forward_cfg.build(sim))
        # Mirrored ACK hop: same rate/delay, generous clean buffer — none of
        # the paper's multi-hop experiments congest the reverse direction.
        topo.reverse_hops.append(
            Link(
                sim,
                bandwidth_bps=bandwidth_bps,
                delay_s=hop_delay,
                queue=DropTailQueue(max(buffer_bytes, _UNCONGESTED_BUFFER_BYTES)),
                name=f"hop-rev-{i}",
            )
        )

    def access_pair(label: str) -> Tuple[Link, Link]:
        fwd = Link(sim, bandwidth_bps=access_bw,
                   delay_s=PARKING_LOT_ACCESS_DELAY,
                   queue=DropTailQueue(_UNCONGESTED_BUFFER_BYTES),
                   name=f"access-fwd-{label}")
        rev = Link(sim, bandwidth_bps=access_bw,
                   delay_s=PARKING_LOT_ACCESS_DELAY,
                   queue=DropTailQueue(_UNCONGESTED_BUFFER_BYTES),
                   name=f"access-rev-{label}")
        topo.access_forward.append(fwd)
        topo.access_reverse.append(rev)
        return fwd, rev

    long_fwd, long_rev = access_pair("long")
    topo.long_path = Path(
        [long_fwd, *topo.hops],
        [*reversed(topo.reverse_hops), long_rev],
    )
    for i in range(num_hops):
        cross_fwd, cross_rev = access_pair(f"cross-{i}")
        topo.cross_paths.append(
            Path([cross_fwd, topo.hops[i]], [topo.reverse_hops[i], cross_rev])
        )
    return topo
