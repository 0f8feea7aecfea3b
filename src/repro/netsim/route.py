"""Static routes through the simulated network.

All experiments in the paper use static paths (an Emulab/GENI path does not
re-route during a run), so instead of modelling routers and forwarding tables
we attach a :class:`Route` to every packet: an ordered list of links ending at
a destination callback.  Links schedule :meth:`Route.advance` as the delivery
event itself (no link-side frame in between); the route either injects the
packet into the next link or hands it to the endpoint.

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

    __slots__ = ("links", "destination")

    def __init__(self, links: Sequence[Link], destination: Callable[[Packet], None]):
        if not links:
            raise ValueError("a route needs at least one link")
        self.links = tuple(links)
        self.destination = destination

    def send(self, packet: Packet) -> None:
        """Inject ``packet`` at the head of the route."""
        packet.route = self
        packet.hop = 0
        self.links[0].enqueue(packet)

    def advance(self, packet: Packet) -> None:
        """Move ``packet`` to its next hop (the event a link schedules per delivery)."""
        packet.hop = hop = packet.hop + 1
        links = self.links
        if hop < len(links):
            links[hop].enqueue(packet)
        else:
            self.destination(packet)

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
