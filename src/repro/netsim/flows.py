"""Flow and workload descriptions.

A :class:`FlowSpec` describes one transfer: when it starts, how much data it
carries (``None`` means a long-lived, backlogged flow) and which congestion
controller drives it.  Workload generators produce lists of flow specs for the
paper's traffic patterns:

* :func:`incast_burst` — simultaneous fixed-size flows (Figure 10);
* :func:`poisson_short_flows` — Poisson arrivals of fixed-size short flows with
  the arrival rate chosen to hit a target link load (Figure 15).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, List, Optional

from ..units import BITS_PER_BYTE

__all__ = ["FlowSpec", "incast_burst", "poisson_short_flows"]


@dataclass
class FlowSpec:
    """One flow in an experiment."""

    #: Name of the congestion-control scheme (resolved by the experiment runner,
    #: e.g. "pcc", "cubic", "reno", "illinois", "hybla", "vegas", "westwood",
    #: "reno_paced", "sabul", "pcp", "parallel_tcp").
    scheme: str
    #: Flow size in bytes; ``None`` means unlimited (backlogged for the run).
    size_bytes: Optional[float] = None
    #: Simulated time at which the flow starts.
    start_time: float = 0.0
    #: Index of the path this flow uses (for multi-path topologies).
    path_index: int = 0
    #: Extra keyword arguments forwarded to the controller constructor
    #: (e.g. a PCC utility function, parallel-TCP bundle size).
    controller_kwargs: dict = field(default_factory=dict)
    #: Free-form label used in result tables.
    label: str = ""
    #: Arbitrary metadata propagated to results.
    meta: dict = field(default_factory=dict)


def incast_burst(
    scheme: str,
    num_senders: int,
    size_bytes: float,
    start_time: float = 0.0,
    jitter: float = 0.0005,
    rng: Optional[random.Random] = None,
    **controller_kwargs: Any,
) -> List[FlowSpec]:
    """Simultaneous fixed-size flows from ``num_senders`` senders (Figure 10).

    A small random jitter avoids perfectly synchronized first packets, which
    would be unrealistically pessimal for every protocol.
    """
    rng = rng or random.Random(0)
    flows = []
    for i in range(num_senders):
        flows.append(
            FlowSpec(
                scheme=scheme,
                size_bytes=size_bytes,
                start_time=start_time + rng.uniform(0.0, jitter),
                path_index=i,
                controller_kwargs=dict(controller_kwargs),
                label=f"{scheme}-incast-{i}",
            )
        )
    return flows


def poisson_short_flows(
    scheme: str,
    size_bytes: float,
    load: float,
    link_bandwidth_bps: float,
    duration: float,
    rng: Optional[random.Random] = None,
    path_index: int = 0,
    **controller_kwargs: Any,
) -> List[FlowSpec]:
    """Poisson arrivals of ``size_bytes`` flows targeting a given link ``load``.

    The mean inter-arrival time is chosen so that the offered load equals
    ``load`` (a fraction of ``link_bandwidth_bps``), matching the Figure 15
    short-flow FCT experiment.
    """
    if not 0.0 < load < 1.0:
        raise ValueError("load must be in (0, 1)")
    rng = rng or random.Random(0)
    arrival_rate = (
        load * link_bandwidth_bps / (size_bytes * BITS_PER_BYTE)
    )  # flows per second
    flows = []
    t = 0.0
    index = 0
    while True:
        t += rng.expovariate(arrival_rate)
        if t >= duration:
            break
        flows.append(
            FlowSpec(
                scheme=scheme,
                size_bytes=size_bytes,
                start_time=t,
                path_index=path_index,
                controller_kwargs=dict(controller_kwargs),
                label=f"{scheme}-short-{index}",
            )
        )
        index += 1
    return flows
