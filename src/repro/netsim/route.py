"""Static routes through the simulated network.

All experiments in the paper use static paths (an Emulab/GENI path does not
re-route during a run), so instead of modelling routers and forwarding tables
we attach a :class:`Route` to every packet: an ordered list of links ending at
a destination callback.  ``Route.hops[i]`` is what a packet leaving link ``i``
reaches: the next link's ``enqueue``, or the destination after the last link.
A link's delivery event calls that entry directly, so no frame of the route's
sits between two hops.

The same mechanism is used for the forward (data) and reverse (ACK) direction;
a :class:`Path` bundles the two for convenience.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..units import BPS_PER_MBPS, MS_PER_S, Seconds
from .link import Link
from .packet import Packet

__all__ = ["Route", "Path"]


class Route:
    """An ordered sequence of links terminating at a destination callback."""

    __slots__ = ("links", "hops", "_destination")

    def __init__(self, links: Sequence[Link], destination: Callable[[Packet], None]):
        if not links:
            raise ValueError("a route needs at least one link")
        self.links = tuple(links)
        self.destination = destination

    @property
    def destination(self) -> Callable[[Packet], None]:
        """Where a packet goes after the last link."""
        return self._destination

    @destination.setter
    def destination(self, destination: Callable[[Packet], None]) -> None:
        self._destination = destination
        #: The callable a packet leaving link ``i`` is handed to.
        self.hops = tuple(link.enqueue for link in self.links[1:]) + (destination,)

    def send(self, packet: Packet) -> None:
        """Inject ``packet`` at the head of the route."""
        packet.route = self
        packet.hop = 0
        self.links[0].enqueue(packet)

    @property
    def propagation_delay(self) -> Seconds:
        """Sum of one-way propagation delays along the route (seconds)."""
        return sum(link.delay_s for link in self.links)

    def __len__(self) -> int:
        return len(self.links)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Route({len(self.links)} hops, {self.propagation_delay * MS_PER_S:.1f} ms)"


class Path:
    """A bidirectional path: a forward route for data and a reverse route for ACKs.

    The destination callbacks are bound later by the endpoints (the sender owns
    the reverse destination, the receiver the forward one), so the path holds
    only the link lists until :meth:`bind` is called.
    """

    def __init__(self, forward_links: Sequence[Link], reverse_links: Sequence[Link]):
        self.forward_links = tuple(forward_links)
        self.reverse_links = tuple(reverse_links)
        self.forward_route: Route | None = None
        self.reverse_route: Route | None = None

    def bind(
        self,
        forward_destination: Callable[[Packet], None],
        reverse_destination: Callable[[Packet], None],
    ) -> None:
        """Create the concrete routes once both endpoints exist."""
        self.forward_route = Route(self.forward_links, forward_destination)
        self.reverse_route = Route(self.reverse_links, reverse_destination)

    @property
    def base_rtt(self) -> Seconds:
        """Two-way propagation delay, excluding queueing (seconds)."""
        forward = sum(link.delay_s for link in self.forward_links)
        reverse = sum(link.delay_s for link in self.reverse_links)
        return forward + reverse

    @property
    def bottleneck_bandwidth_bps(self) -> float:
        """Minimum bandwidth over the forward links (bits per second)."""
        return min(link.bandwidth_bps for link in self.forward_links)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Path(base_rtt={self.base_rtt * MS_PER_S:.1f} ms, "
            f"bottleneck={self.bottleneck_bandwidth_bps / BPS_PER_MBPS:.2f} Mbps)"
        )
