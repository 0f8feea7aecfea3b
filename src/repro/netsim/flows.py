"""Flow and workload descriptions.

A :class:`FlowSpec` describes one transfer: when it starts, how much data it
carries (``None`` means a long-lived, backlogged flow) and which congestion
controller drives it.  Sweep cells draw their flow schedules from the
workload registry in :mod:`repro.experiments.workload`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

__all__ = ["FlowSpec"]


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

