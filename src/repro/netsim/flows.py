"""Flow and workload descriptions.

A :class:`FlowSpec` describes one transfer: when it starts, how much data it
carries (``None`` means a long-lived, backlogged flow) and which congestion
controller drives it.  :func:`incast_burst` produces the simultaneous
fixed-size flows of Figure 10; sweep cells draw their flow schedules from the
workload registry in :mod:`repro.experiments.workload`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, List, Optional

__all__ = ["FlowSpec", "incast_burst"]


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

