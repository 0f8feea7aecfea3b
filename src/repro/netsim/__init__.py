"""Packet-level discrete-event network simulator.

This package is the substrate on which the PCC reproduction runs: links with
finite bandwidth, propagation delay, random loss and configurable queue
disciplines; routes; ack-clocked and rate-paced senders; and workload
generators.  See the repository README for the component inventory and
EXPERIMENTS.md for the mapping from the paper's testbeds to these components.
"""

from .engine import Event, SimulationError, Simulator
from .packet import ACK_SIZE_BYTES, DEFAULT_MSS, Packet
from .queues import (
    DEFAULT_QDISC,
    CoDelQueue,
    DropTailQueue,
    FairQueue,
    InfiniteQueue,
    PIEQueue,
    QueueDiscipline,
    REDQueue,
    make_qdisc,
    qdisc_names,
    register_qdisc,
    resolve_qdisc_kwargs,
)
from .link import Link
from .route import Path, Route
from .stats import BinnedSeries, FlowStats, RTTEstimator, SequenceTracker
from .endpoints import (
    RateBasedSender,
    Receiver,
    SenderBase,
    WindowedSender,
    connect,
)
from .flows import FlowSpec, incast_burst, poisson_short_flows
from .topology import (
    LinkConfig,
    bdp_bytes,
    dumbbell,
    incast,
    parking_lot,
    single_bottleneck,
)
from .dynamics import (
    SYNTHETIC_TRACES,
    RandomLinkDynamics,
    ScheduledLinkDynamics,
    TraceLinkDynamics,
    cellular_trace,
    make_synthetic_trace,
    sawtooth_trace,
    step_trace,
    validate_trace_repeat_period,
)

__all__ = [
    "Event",
    "SimulationError",
    "Simulator",
    "ACK_SIZE_BYTES",
    "DEFAULT_MSS",
    "Packet",
    "CoDelQueue",
    "DropTailQueue",
    "FairQueue",
    "InfiniteQueue",
    "QueueDiscipline",
    "DEFAULT_QDISC",
    "PIEQueue",
    "REDQueue",
    "make_qdisc",
    "qdisc_names",
    "register_qdisc",
    "resolve_qdisc_kwargs",
    "Link",
    "Path",
    "Route",
    "BinnedSeries",
    "FlowStats",
    "RTTEstimator",
    "SequenceTracker",
    "RateBasedSender",
    "Receiver",
    "SenderBase",
    "WindowedSender",
    "connect",
    "FlowSpec",
    "incast_burst",
    "poisson_short_flows",
    "LinkConfig",
    "bdp_bytes",
    "dumbbell",
    "incast",
    "parking_lot",
    "single_bottleneck",
    "RandomLinkDynamics",
    "ScheduledLinkDynamics",
    "TraceLinkDynamics",
    "SYNTHETIC_TRACES",
    "cellular_trace",
    "make_synthetic_trace",
    "sawtooth_trace",
    "step_trace",
    "validate_trace_repeat_period",
]
