"""Parallel scenario-grid sweeps.

Every figure in the paper's evaluation (Figs. 5-17) is a *sweep*: the same
scenario re-run over a grid of parameters (congestion-control scheme x link
rate x RTT x loss rate x buffer size x flow count).  This module is the one
place that fan-out lives:

* :class:`SweepGrid` declares the grid declaratively; its ``topology`` names a
  **topology builder** (``single_bottleneck`` by default, plus
  ``parking_lot`` multi-bottleneck chains, ``dumbbell`` per-flow access
  links, the ``incast`` fan-in, and the ``trace_bottleneck`` /
  ``random_dynamics`` time-varying links; one line each in ``_TOPOLOGIES``);
* scheme entries are names in :mod:`repro.schemes`' table; a PCC flow's
  utility is the cell's ``utility`` (a grid's ``utilities`` axis crosses
  utility names with every other axis, the §4.4 flexibility
  experiments as a first-class sweep dimension) and an ablation is
  ``controller_kwargs`` (``{"use_rct": False}``);
* :func:`sweep` fans the cells out across CPU cores, seeding every cell
  deterministically from ``(base_seed, cell_index)`` via :func:`derive_seed`,
  so the result is **bit-identical regardless of worker count**;
* results are a :class:`~repro.experiments.results.ResultSet`; pass
  ``store`` to skip every cell a prior (possibly interrupted) run already put
  in the :class:`~repro.experiments.store.CellStore`; the canonical
  :meth:`~repro.experiments.results.ResultSet.to_json` view keeps per-cell
  wall times out of the payload, so two runs of the same grid — restarted or
  not — produce byte-identical files;
* ``python -m repro.experiments.sweep`` exposes the same machinery as a CLI
  (``--store`` to restart, ``--output`` for the canonical JSON).

The report catalog (:mod:`repro.report.specs`) declares its grids and pinned
cells here instead of hand-rolling serial loops over
:func:`repro.experiments.run_flows`.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from itertools import product
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core import make_utility, utility_names
from ..registry import KwargRegistry
from ..units import BPS_PER_MBPS, BYTES_PER_KB, MS_PER_S
from ..schemes import available_schemes, get_scheme
from .execute import PROFILE_TOP_N, execute_cells
from .results import ResultSet
from .store import CellStore
from ..netsim import (
    DEFAULT_QDISC,
    SYNTHETIC_TRACES,
    LinkConfig,
    Path,
    QueueDiscipline,
    RandomLinkDynamics,
    Simulator,
    TraceLinkDynamics,
    bdp_bytes,
    dumbbell,
    incast,
    make_qdisc,
    make_synthetic_trace,
    parking_lot,
    qdisc_names,
    resolve_qdisc_kwargs,
    single_bottleneck,
)
from ..netsim.topology import PARKING_LOT_ACCESS_DELAY, SingleBottleneck
from .runner import run_flows
from .workload import (
    DEFAULT_WORKLOAD,
    build_workload,
    resolve_workload_kwargs,
    validate_workload,
    workload_names,
)

__all__ = [
    "SweepCell",
    "SweepGrid",
    "derive_seed",
    "resolve_topology_kwargs",
    "topology_names",
    "sweep",
    "main",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def derive_seed(base_seed: int, cell_index: int) -> int:
    """Deterministic per-cell seed derived from ``(base_seed, cell_index)``.

    A splitmix64-style finalizer over the two inputs: bit-identical across
    platforms, Python versions and processes (unlike ``hash()``), and well
    mixed, so neighbouring cells do not receive correlated random streams.
    The result is confined to 63 bits so it round-trips through JSON readers
    that only handle signed 64-bit integers.
    """
    z = ((base_seed & _MASK64) ^ 0xA076_1D64_78BD_642F) & _MASK64
    z = (z + (cell_index & _MASK64) * _GOLDEN + _GOLDEN) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z & 0x7FFF_FFFF_FFFF_FFFF


@dataclass
class SweepCell:
    """One fully-resolved point of a sweep grid."""

    index: int
    scheme: str
    bandwidth_bps: float
    rtt: float
    loss_rate: float
    buffer_bytes: Optional[float]  # ``None`` means one bandwidth-delay product
    num_flows: int
    duration: float
    seed: int
    reverse_loss: bool = False
    stagger: float = 0.0
    controller_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Name of the topology builder that lays out this cell's links/paths
    #: (see ``_TOPOLOGIES``).
    topology: str = "single_bottleneck"
    #: Extra JSON-serializable arguments interpreted by the topology builder
    #: (e.g. ``{"num_hops": 3}`` for ``parking_lot``).
    topology_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Utility-function name for this cell's PCC flows (``None`` means the
    #: scheme default, i.e. the safe utility).
    utility: Optional[str] = None
    #: Queue discipline on the cell's bottleneck link(s) (see
    #: :func:`repro.netsim.qdisc_names`).  Part of the identity when
    #: non-default; access links keep their plain drop-tail queues.
    qdisc: str = DEFAULT_QDISC
    #: Extra JSON-serializable arguments for the qdisc factory
    #: (e.g. ``{"child": "codel"}`` for fq).
    qdisc_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Workload generator emitting this cell's flow schedule (see
    #: :func:`repro.experiments.workload_names`).  Part of the identity
    #: when non-default.
    workload: str = DEFAULT_WORKLOAD
    #: Extra JSON-serializable arguments for the workload builder
    #: (e.g. ``{"load": 0.7}`` for web storms).
    workload_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Record each flow's receiver-side delivered bytes per 1 s bin over
    #: ``[0, duration]`` as ``delivered_bytes`` in its flow row, for specs
    #: that window the series themselves (byte ratios, rate stddev, Jain
    #: index, convergence time).  Part of the identity when on.
    delivered_series: bool = False

    def __post_init__(self) -> None:
        """Reject here what would otherwise fail, or be recorded wrongly,
        in a worker; a grid validates by enumerating its cells."""
        scheme = get_scheme(self.scheme)
        if self.utility is not None:
            # A utility only configures PCC flows; on any other scheme it
            # would label identical simulations differently.
            if scheme.name != "pcc":
                raise ValueError(
                    f"the utilities axis applies only to pcc schemes, not "
                    f"{self.scheme!r}")
            # Instantiating validates the name with the table's canonical
            # unknown-name error; the throwaway instance is trivial.
            make_utility(self.utility)
        if self.controller_kwargs:
            # What a cell ran with is stated once, in the field the identity
            # records it under: smuggled through controller_kwargs it would
            # be simulated under another field's label.
            smuggled = {"utility", "utility_function", "qdisc", "workload"} \
                & set(self.controller_kwargs)
            if smuggled:
                raise ValueError(
                    f"controller_kwargs cannot set {sorted(smuggled)}; a "
                    f"utility is the cell's utility field (a grid's utilities "
                    f"axis) and qdisc/workload are fields of their own, so "
                    f"the cell identity records them")
            try:
                json.dumps(self.controller_kwargs)
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"controller_kwargs are recorded in the cell identity and "
                    f"must be JSON-serializable: {exc}") from None
            conflict = set(scheme.kwarg_defaults) & set(self.controller_kwargs)
            if conflict:
                raise ValueError(
                    f"controller_kwargs {sorted(conflict)} would override the "
                    f"kwargs recorded for scheme {self.scheme!r}")
        # Building the queue once validates its name, its kwargs and what the
        # factory checks itself (fq's child); factories draw no randomness
        # (tests/netsim/test_queues.py::TestConstructionDrawsNoRandomness),
        # so the throwaway has no side effect.
        make_qdisc(self.qdisc, self.resolved_buffer_bytes(), **self.qdisc_kwargs)
        kwargs = resolve_topology_kwargs(self.topology, self.topology_kwargs)
        check = _TOPOLOGY_CHECKS.get(self.topology)
        if check is not None:
            check(self, kwargs)
        validate_workload(self)

    def resolved_scheme_kwargs(self) -> Dict[str, Any]:
        """Controller kwargs this cell's scheme + utility resolve to.

        The scheme registry's declared kwarg defaults come first (resolved
        into the identity so archived sweeps keep their meaning even if a
        registry default changes later), then the ``utility``;
        ``controller_kwargs`` are layered on top at simulation time and
        recorded under their own identity key (``__post_init__`` rejects ones
        that would override a key recorded here).  Empty for a plain default
        cell.
        """
        kwargs = dict(get_scheme(self.scheme).kwarg_defaults)
        if self.utility is not None:
            kwargs["utility"] = self.utility
        return kwargs

    def resolved_buffer_bytes(self) -> float:
        """The concrete bottleneck buffer for this cell (BDP if unspecified)."""
        if self.buffer_bytes is None:
            return bdp_bytes(self.bandwidth_bps, self.rtt)
        return float(self.buffer_bytes)

    def params(self) -> Dict[str, Any]:
        """The JSON-friendly identity of this cell (everything but results)."""
        out: Dict[str, Any] = {
            "index": self.index,
            "scheme": self.scheme,
            "bandwidth_bps": self.bandwidth_bps,
            "rtt": self.rtt,
            "loss_rate": self.loss_rate,
            "buffer_bytes": self.resolved_buffer_bytes(),
            "num_flows": self.num_flows,
            "duration": self.duration,
            "seed": self.seed,
            "reverse_loss": self.reverse_loss,
            "stagger": self.stagger,
            "topology": self.topology,
            # Resolved like the qdisc's and the workload's below, so a
            # hand-built cell and its grid-built twin share one identity.
            "topology_kwargs": resolve_topology_kwargs(
                self.topology, self.topology_kwargs),
        }
        # Cells whose scheme needs no kwargs (every paper grid: pcc and the
        # TCP family declare no defaults) carry neither extra key, so archived
        # JSON from before the utility axis stays byte-comparable;
        # schemes with declared kwarg defaults (parallel_tcp's bundle shape)
        # record them so the archive fully specifies what was simulated.
        if self.utility is not None:
            out["utility"] = self.utility
        scheme_kwargs = self.resolved_scheme_kwargs()
        if scheme_kwargs:
            out["scheme_kwargs"] = scheme_kwargs
        # The queue discipline and the workload are recorded only when
        # non-default (so archived default sweeps stay byte-comparable),
        # fully resolved (defaults merged in) so archived cells keep their
        # meaning even if a factory default changes later.
        if self.qdisc != DEFAULT_QDISC or self.qdisc_kwargs:
            out["qdisc"] = self.qdisc
            out["qdisc_kwargs"] = resolve_qdisc_kwargs(
                self.qdisc, self.qdisc_kwargs)
        if self.workload != DEFAULT_WORKLOAD or self.workload_kwargs:
            out["workload"] = self.workload
            out["workload_kwargs"] = resolve_workload_kwargs(
                self.workload, self.workload_kwargs)
        # Both change what is simulated or recorded, so both are identity:
        # two cells differing only here must not share a store key.
        if self.controller_kwargs:
            out["controller_kwargs"] = dict(self.controller_kwargs)
        if self.delivered_series:
            out["delivered_series"] = True
        return out

    def queue_factory(self) -> Callable[[], QueueDiscipline]:
        """Bottleneck queue factory for this cell.

        The default ``make_qdisc("droptail", b)`` is exactly
        ``DropTailQueue(float(b))``, so a default cell's bottleneck is still
        the drop-tail ``Link`` that keeps its queue's books itself.
        """
        buffer_bytes = self.resolved_buffer_bytes()
        return lambda: make_qdisc(self.qdisc, buffer_bytes,
                                  **self.qdisc_kwargs)


# --------------------------------------------------------------------------- #
# Topology builders
# --------------------------------------------------------------------------- #
#: A topology builder lays a cell's links out inside ``sim`` and returns
#: ``(paths, link_metrics)``.  Flow ``i`` of the cell is attached to
#: ``paths[i % len(paths)]``, so the order paths are returned in is part of
#: the builder's contract.  ``link_metrics`` is ``None``, or a callable
#: evaluated after the run whose JSON-friendly dict becomes the record's
#: ``link`` entry (what a time-varying link measured about itself).
LinkMetrics = Optional[Callable[[], Dict[str, float]]]


def resolve_topology_kwargs(name: str, kwargs: Dict[str, Any]) -> Dict[str, Any]:
    """Merge ``kwargs`` over the topology's declared defaults, rejecting keys
    the builder never declared."""
    return _TOPOLOGIES.resolve(name, kwargs)


def topology_names() -> List[str]:
    """All topology names, sorted."""
    return _TOPOLOGIES.names()


def _single_bottleneck(sim: Simulator, cell: SweepCell) -> SingleBottleneck:
    """The cell's one bottleneck link pair."""
    return single_bottleneck(
        sim,
        bandwidth_bps=cell.bandwidth_bps,
        rtt=cell.rtt,
        buffer_bytes=cell.resolved_buffer_bytes(),
        loss_rate=cell.loss_rate,
        reverse_loss_rate=cell.loss_rate if cell.reverse_loss else None,
        queue_factory=cell.queue_factory(),
    )


def _build_single_bottleneck(sim: Simulator,
                             cell: SweepCell) -> Tuple[List[Path], LinkMetrics]:
    """One bottleneck link pair; every flow shares the single path."""
    return [_single_bottleneck(sim, cell).path], None


def _parking_lot_hop_delay(rtt: float, num_hops: int) -> float:
    """Per-hop one-way delay for a parking lot whose *long* flow has base RTT
    ``rtt``.  One shared implementation backs both the grid-construction
    validator and the worker-side builder, so the two can never disagree."""
    if num_hops < 1:
        raise ValueError("a parking lot needs at least one hop")
    hop_delay = (rtt / 2.0 - PARKING_LOT_ACCESS_DELAY) / num_hops
    if hop_delay < 1e-5:
        # Refuse rather than clamp: a clamped hop delay would simulate an
        # RTT different from the one recorded in the cell identity, turning
        # an RTT sweep into identical points with different labels.
        raise ValueError(
            f"rtt={rtt} is too small for a {num_hops}-hop parking lot; need "
            f"rtt >= {2 * (PARKING_LOT_ACCESS_DELAY + num_hops * 1e-5)}"
        )
    return hop_delay


def _build_parking_lot(
    sim: Simulator, cell: SweepCell, num_hops: int = 3,
) -> Tuple[List[Path], LinkMetrics]:
    """A multi-bottleneck chain: path 0 crosses every hop, path ``1 + i`` only
    hop ``i``.  ``cell.rtt`` is the *long* flow's base RTT; each hop gets an
    equal share of it, so cross flows are RTT-diverse by construction.  The
    per-cell ``num_flows`` should normally be ``1 + num_hops`` (one long flow
    plus one cross flow per hop); fewer flows leave the later hops uncontested.
    """
    topo = parking_lot(
        sim,
        num_hops=num_hops,
        bandwidth_bps=cell.bandwidth_bps,
        hop_delay=_parking_lot_hop_delay(cell.rtt, num_hops),
        buffer_bytes=cell.resolved_buffer_bytes(),
        loss_rate=cell.loss_rate,
        queue_factory=cell.queue_factory(),
    )
    return topo.paths, None


def _build_trace_bottleneck(
    sim: Simulator, cell: SweepCell, trace: str = "step",
) -> Tuple[List[Path], LinkMetrics]:
    """A single bottleneck whose capacity follows a bundled synthetic trace.

    ``cell.bandwidth_bps`` is the trace's peak rate; the ``trace`` kwarg picks
    the shape (``step`` / ``sawtooth`` / ``cellular``).  The cellular walk has
    a fixed seed — *not* the per-cell seed — so cells differing only by
    scheme face the identical capacity trace and stay comparable point by
    point.
    """
    topo = _single_bottleneck(sim, cell)
    TraceLinkDynamics(
        sim, topo.forward, bandwidth_trace=make_synthetic_trace(
            trace, peak_bps=cell.bandwidth_bps, duration=cell.duration),
    ).start()
    return [topo.path], None


def _build_dumbbell(
    sim: Simulator, cell: SweepCell,
    access_delays: Optional[List[float]] = None,
    bottleneck_delay: Optional[float] = None,
) -> Tuple[List[Path], LinkMetrics]:
    """Per-flow access links into one shared bottleneck: flow ``i`` gets
    path ``i``, whose base RTT is ``2 * (access_delays[i] +
    bottleneck_delay)``.  ``cell.rtt`` only sizes the default one-BDP
    buffer; the delays themselves are the topology's kwargs."""
    bottleneck = LinkConfig(
        bandwidth_bps=cell.bandwidth_bps,
        delay_s=bottleneck_delay,
        loss_rate=cell.loss_rate,
        buffer_bytes=cell.resolved_buffer_bytes(),
        queue_factory=cell.queue_factory(),
        name="bottleneck",
    )
    return dumbbell(sim, bottleneck, access_delays).paths, None


def _build_random_dynamics(sim: Simulator,
                           cell: SweepCell) -> Tuple[List[Path], LinkMetrics]:
    """The §4.1.7 rapidly changing network: a single bottleneck whose
    bandwidth, RTT and loss are re-drawn from the simulator RNG every 5 s
    (:class:`RandomLinkDynamics` draws from the paper's ranges: 10-100
    Mbps, 10-100 ms, 0-1 %).  The first draw happens here, before the
    workload attaches any flow, so ``cell.bandwidth_bps`` / ``cell.rtt`` only
    size the buffer and fix the ACK link's rate.  Reports the time-weighted
    mean capacity of the run."""
    topo = _single_bottleneck(sim, cell)
    dynamics = RandomLinkDynamics(sim, topo.forward, reverse_link=topo.reverse)
    dynamics.start()
    return [topo.path], lambda: {
        "mean_optimal_mbps":
            dynamics.mean_optimal_rate(0.0, cell.duration) / BPS_PER_MBPS,
    }


def _build_incast(sim: Simulator,
                  cell: SweepCell) -> Tuple[List[Path], LinkMetrics]:
    """The Figure 10 fan-in: flow ``i`` gets path ``i``, a private access
    link into one shallow shared port of ``cell.buffer_bytes`` toward the
    receiver.  Every link runs at ``cell.bandwidth_bps``; ``cell.rtt`` is
    the base RTT of every path."""
    return incast(sim, num_senders=cell.num_flows,
                  bandwidth_bps=cell.bandwidth_bps, rtt=cell.rtt,
                  buffer_bytes=cell.resolved_buffer_bytes()).paths, None


def _refuse_reverse_loss(cell: SweepCell) -> None:
    """For the builders that apply ``loss_rate`` to forward links only."""
    if cell.reverse_loss:
        raise ValueError(
            f"topology {cell.topology!r} does not support reverse_loss")


def _validate_parking_lot(cell: SweepCell, kwargs: Dict[str, Any]) -> None:
    _refuse_reverse_loss(cell)
    _parking_lot_hop_delay(cell.rtt, kwargs["num_hops"])


def _validate_trace_bottleneck(cell: SweepCell, kwargs: Dict[str, Any]) -> None:
    # Building the trace validates the name.
    make_synthetic_trace(kwargs["trace"], peak_bps=1.0, duration=cell.duration)


def _validate_incast(cell: SweepCell, kwargs: Dict[str, Any]) -> None:
    _refuse_reverse_loss(cell)
    if cell.loss_rate or cell.qdisc_kwargs or cell.qdisc != DEFAULT_QDISC:
        raise ValueError("the incast topology runs loss-free drop-tail "
                         "links; it takes no loss_rate or qdisc")


def _validate_dumbbell(cell: SweepCell, kwargs: Dict[str, Any]) -> None:
    _refuse_reverse_loss(cell)
    delays = kwargs["access_delays"]
    if kwargs["bottleneck_delay"] is None or delays is None:
        raise ValueError("the dumbbell topology needs topology_kwargs "
                         "'access_delays' (one per flow) and "
                         "'bottleneck_delay'")
    if len(delays) != cell.num_flows:
        raise ValueError(
            f"dumbbell access_delays lists {len(delays)} delays for "
            f"{cell.num_flows} flows; name one per flow")


#: Every topology a cell's ``topology`` may name.
#:
#: ``builder(sim, cell, **kwargs)``: the keyword parameters after ``sim,
#: cell`` in its signature are the ``topology_kwargs`` keys it accepts, each
#: with its default value.  The defaults are merged under a cell's explicit
#: kwargs, so the *resolved* values are recorded in each cell's identity JSON
#: (archived sweeps keep their meaning even if a builder default changes
#: later), and unknown keys are rejected when a cell is constructed.
#: Builders must be deterministic given ``(sim, cell)``.
_TOPOLOGIES = KwargRegistry("topology", "topology_kwargs", ("sim", "cell"), {
    "single_bottleneck": _build_single_bottleneck,
    "parking_lot": _build_parking_lot,
    "trace_bottleneck": _build_trace_bottleneck,
    "dumbbell": _build_dumbbell,
    "random_dynamics": _build_random_dynamics,
    "incast": _build_incast,
})

#: What :meth:`SweepCell.__post_init__` checks, given the resolved kwargs, on
#: a cell naming the topology: each mis-configuration fails when the cell is
#: built rather than mid-sweep in a worker.
_TOPOLOGY_CHECKS: Dict[str, Callable[[SweepCell, Dict[str, Any]], None]] = {
    "parking_lot": _validate_parking_lot,
    "trace_bottleneck": _validate_trace_bottleneck,
    "dumbbell": _validate_dumbbell,
    "incast": _validate_incast,
}


@dataclass
class SweepGrid:
    """A declarative grid of scenarios over one named topology.

    Cells are enumerated as the cartesian product in the fixed axis order
    ``scheme x bandwidth x rtt x loss x buffer x flow count x utility`` (the
    slowest varying axis first), so cell indices — and therefore the derived
    per-cell seeds — are a pure function of the grid declaration.
    """

    schemes: Sequence[str]
    bandwidths_bps: Sequence[float] = (100e6,)
    rtts: Sequence[float] = (0.03,)
    loss_rates: Sequence[float] = (0.0,)
    buffers_bytes: Sequence[Optional[float]] = (None,)
    flow_counts: Sequence[int] = (1,)
    #: Registered utility-function names (§4.4 flexibility axis); ``None``
    #: means the scheme default (safe utility).  The fastest-varying axis, so
    #: the default ``(None,)`` leaves the cell enumeration — and therefore
    #: every derived per-cell seed — of pre-existing grids untouched.
    utilities: Sequence[Optional[str]] = (None,)
    duration: float = 15.0
    #: Apply the forward loss rate to the reverse (ACK) direction too, as in
    #: the Figure 7 lossy-link experiment (single-path topologies only).
    reverse_loss: bool = False
    #: Start flow ``i`` at ``i * stagger`` seconds (multi-flow cells).
    stagger: float = 0.0
    #: Extra keyword arguments forwarded to every flow's controller.
    controller_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Topology builder resolved per cell (see ``_TOPOLOGIES``); every cell
    #: of the grid shares one shape.
    topology: str = "single_bottleneck"
    #: JSON-serializable arguments interpreted by the topology builder.
    topology_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Queue discipline on every cell's bottleneck link(s) (see
    #: :func:`repro.netsim.qdisc_names`).  Part of the cell identity when
    #: non-default.
    qdisc: str = DEFAULT_QDISC
    #: JSON-serializable arguments for the qdisc factory.
    qdisc_kwargs: Dict[str, Any] = field(default_factory=dict)
    #: Workload generator shared by every cell (see
    #: :func:`repro.experiments.workload_names`).  Part of the cell
    #: identity when non-default.
    workload: str = DEFAULT_WORKLOAD
    #: JSON-serializable arguments for the workload builder.
    workload_kwargs: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.schemes:
            raise ValueError("a sweep grid needs at least one scheme")
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if not self.utilities:
            raise ValueError("a sweep grid needs at least one utilities entry "
                             "(use (None,) for the scheme default)")
        # Every cell validates its own scheme, utility, topology, workload and
        # controller_kwargs when it is built, so enumerating once fails fast
        # on whatever a hand-listed cell would be rejected for.
        self.cells(0)

    def cells(self, base_seed: int) -> List[SweepCell]:
        """Enumerate the grid with deterministic per-cell seeds."""
        out: List[SweepCell] = []
        axes = product(
            self.schemes,
            self.bandwidths_bps,
            self.rtts,
            self.loss_rates,
            self.buffers_bytes,
            self.flow_counts,
            self.utilities,
        )
        for index, (scheme, bandwidth, rtt, loss, buffer_bytes, flows,
                    utility) in enumerate(axes):
            out.append(
                SweepCell(
                    index=index,
                    scheme=scheme,
                    bandwidth_bps=float(bandwidth),
                    rtt=float(rtt),
                    loss_rate=float(loss),
                    buffer_bytes=buffer_bytes,
                    num_flows=int(flows),
                    duration=self.duration,
                    seed=derive_seed(base_seed, index),
                    reverse_loss=self.reverse_loss,
                    stagger=self.stagger,
                    controller_kwargs=dict(self.controller_kwargs),
                    topology=self.topology,
                    topology_kwargs=dict(self.topology_kwargs),
                    utility=utility,
                    qdisc=self.qdisc,
                    qdisc_kwargs=dict(self.qdisc_kwargs),
                    workload=self.workload,
                    workload_kwargs=dict(self.workload_kwargs),
                )
            )
        return out


def run_cell(cell: SweepCell) -> Dict[str, Any]:
    """Simulate one sweep cell and return its JSON-friendly outcome.

    The cell's topology builder lays out the links and paths; flow ``i`` is
    attached to path ``i % len(paths)`` (for ``single_bottleneck`` every flow
    shares the one path; for ``parking_lot`` flow 0 is the long flow and flow
    ``1 + i`` the hop-``i`` cross flow).  The returned dict contains the
    deterministic payload (cell identity, flow summaries, engine counters,
    and a ``link`` entry when the topology reports metrics of its own)
    plus the non-deterministic ``wall_time_s``, which :func:`sweep` strips
    into :attr:`~repro.experiments.results.ResultSet.timings` so that the
    canonical JSON stays byte-identical run to run.
    """
    # repro-lint: disable=RPL001 wall-time telemetry; stripped into ResultSet.timings, never canonical JSON
    start = time.perf_counter()
    sim = Simulator(seed=cell.seed)
    paths, link_metrics = _TOPOLOGIES.build(cell.topology, sim, cell,
                                            **cell.topology_kwargs)
    # The runner merges these over the scheme's declared defaults — the
    # resolution recorded in the cell identity.
    scheme_kwargs = dict(cell.controller_kwargs)
    if cell.utility is not None:
        scheme_kwargs["utility"] = cell.utility
    # The registered workload emits the flow schedule (the default "bulk"
    # reproduces the classic staggered long flows byte for byte); the cell's
    # scheme kwargs layer *under* any per-flow overrides the builder set.
    specs = build_workload(cell)
    for spec in specs:
        spec.controller_kwargs = ({**scheme_kwargs, **spec.controller_kwargs}
                                  if spec.controller_kwargs else scheme_kwargs)
    result = run_flows(sim, paths, specs, duration=cell.duration)
    wall = time.perf_counter() - start  # repro-lint: disable=RPL001 wall-time telemetry
    flows = result.summary_rows()
    if cell.delivered_series:
        for row, flow in zip(flows, result.flows, strict=True):
            row["delivered_bytes"] = flow.delivered_bytes(cell.duration)
    record = {
        "cell": cell.params(),
        "flows": flows,
        "engine": {
            "events_processed": sim.events_processed,
            "pending_events": sim.pending_events,
            "simulated_seconds": cell.duration,
        },
        "wall_time_s": wall,
    }
    if link_metrics is not None:
        record["link"] = link_metrics()
    return record


def sweep(
    grid: SweepGrid,
    base_seed: int = 0,
    workers: int = 1,
    jsonl_path: Optional[str] = None,
    profile: bool = False,
    store: Union[str, CellStore, None] = None,
    progress: Optional[bool] = None,
) -> ResultSet:
    """Run every cell of ``grid``, fanning out across ``workers`` processes.

    The returned :class:`~repro.experiments.results.ResultSet` is in
    cell-index order and bit-identical for any ``workers`` value because each
    cell owns a private simulator seeded by :func:`derive_seed`; the workers
    share no random state.

    ``jsonl_path`` streams each cell's record to a fresh file the moment it
    completes.  ``store`` (a directory path or open
    :class:`~repro.experiments.store.CellStore`) reuses every cell ever
    computed across runs: stored cells skip execution and fresh ones are put
    back as they finish, so an interrupted sweep re-run over the same store
    simulates only the missing cells.  ``progress`` controls the live
    progress/ETA line on stderr (default: only when stderr is a terminal).

    The streaming/reuse machinery itself lives in
    :func:`repro.experiments.execute.execute_cells`, shared with the report
    layer; ``profile`` (serial-only) prints each cell's hottest functions to
    stderr without touching canonical output.
    """
    return execute_cells(grid.cells(base_seed), run_cell, base_seed,
                         workers=workers, jsonl_path=jsonl_path,
                         profile=profile, store=store, progress=progress)


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
def _buffer_value(text: str) -> Optional[float]:
    """Parse a --buffer-kb operand: a number in kilobytes, or 'bdp'."""
    if text.lower() == "bdp":
        return None
    return float(text) * BYTES_PER_KB


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.sweep",
        description="Run a scenario-parameter sweep grid across CPU cores.",
    )
    parser.add_argument("--schemes", nargs="+", default=["pcc", "cubic"],
                        metavar="SPEC",
                        help="congestion-control schemes (axis 1); "
                             f"registered: {', '.join(available_schemes())}")
    parser.add_argument("--bandwidth-mbps", nargs="+", type=float, default=[100.0],
                        help="bottleneck rates in Mbps (axis 2)")
    parser.add_argument("--rtt-ms", nargs="+", type=float, default=[30.0],
                        help="round-trip times in ms (axis 3)")
    parser.add_argument("--loss", nargs="+", type=float, default=[0.0],
                        help="random loss rates (axis 4)")
    parser.add_argument("--buffer-kb", nargs="+", type=_buffer_value, default=[None],
                        dest="buffer_bytes", metavar="KB|bdp",
                        help="bottleneck buffers in KB, or 'bdp' (axis 5); "
                             "parsed straight into bytes")
    parser.add_argument("--flows", nargs="+", type=int, default=None,
                        help="concurrent flow counts (axis 6); default 1, or "
                             "1 + hops for parking_lot so every hop carries "
                             "cross traffic")
    parser.add_argument("--utility", nargs="+", default=None,
                        choices=sorted([*utility_names(), "default"]),
                        metavar="NAME",
                        help="utility functions for pcc cells "
                             f"(axis 7): {', '.join(utility_names())}, or "
                             "'default' for the scheme default")
    parser.add_argument("--topology", default="single_bottleneck",
                        choices=topology_names(),
                        help="registered topology builder shared by every cell")
    parser.add_argument("--qdisc", default=DEFAULT_QDISC,
                        choices=qdisc_names(),
                        help="registered queue discipline on every cell's "
                             "bottleneck link(s); recorded in each cell's "
                             "identity when non-default")
    parser.add_argument("--workload", default=DEFAULT_WORKLOAD,
                        choices=workload_names(),
                        help="registered workload generator emitting each "
                             "cell's flow schedule; recorded in each cell's "
                             "identity when non-default")
    parser.add_argument("--hops", type=int, default=None,
                        help="parking_lot only: number of bottleneck hops "
                             "(flows cycle over the long path then one cross "
                             "path per hop); default from the topology "
                             "registry")
    parser.add_argument("--trace", default=None, choices=SYNTHETIC_TRACES,
                        help="trace_bottleneck only: bundled bandwidth trace; "
                             "default from the topology registry")
    parser.add_argument("--duration", type=float, default=15.0,
                        help="simulated seconds per cell")
    parser.add_argument("--stagger", type=float, default=0.0,
                        help="start flow i at i*stagger seconds")
    parser.add_argument("--reverse-loss", action="store_true",
                        help="apply the loss rate to the ACK direction too")
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes (results identical for any value)")
    parser.add_argument("--output", default=None,
                        help="write canonical sweep JSON to this path")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="content-addressed cell store directory: cells "
                             "already stored skip execution (across every "
                             "run ever made with this store), fresh cells "
                             "are stored back as they finish, so re-running "
                             "an interrupted sweep executes only the rest")
    parser.add_argument("--progress", action="store_true",
                        help="force the live progress/ETA line on stderr "
                             "(default: only when stderr is a terminal)")
    parser.add_argument("--profile", action="store_true",
                        help="profile each cell with cProfile and print the "
                             f"top {PROFILE_TOP_N} cumulative entries to "
                             "stderr (serial only; canonical output is "
                             "untouched)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # Fail loudly when a topology-specific flag is given without its topology
    # (an explicitly-passed flag that got silently ignored would run a
    # different experiment than the user asked for).
    if args.hops is not None and args.topology != "parking_lot":
        parser.error("--hops requires --topology parking_lot")
    if args.trace is not None and args.topology != "trace_bottleneck":
        parser.error("--trace requires --topology trace_bottleneck")
    utilities: List[Optional[str]] = [None]
    if args.utility is not None:
        utilities = [None if name == "default" else name for name in args.utility]
    # Only explicitly-passed flags become topology_kwargs; unset ones resolve
    # to the registry's declared defaults (the single source of truth).
    topology_kwargs: Dict[str, Any] = {}
    if args.hops is not None:
        topology_kwargs["num_hops"] = args.hops
    if args.trace is not None:
        topology_kwargs["trace"] = args.trace
    resolved_kwargs = resolve_topology_kwargs(args.topology, topology_kwargs)
    if args.flows is None:
        # A parking lot with the generic 1-flow default would silently run an
        # uncontested chain; default to one long flow plus per-hop cross flows.
        if args.topology == "parking_lot":
            flows = [1 + int(resolved_kwargs["num_hops"])]
        else:
            flows = [1]
    else:
        flows = args.flows
    try:
        grid = SweepGrid(
            schemes=args.schemes,
            bandwidths_bps=[mbps * BPS_PER_MBPS for mbps in args.bandwidth_mbps],
            rtts=[ms / MS_PER_S for ms in args.rtt_ms],
            loss_rates=args.loss,
            buffers_bytes=args.buffer_bytes,
            flow_counts=flows,
            utilities=utilities,
            duration=args.duration,
            reverse_loss=args.reverse_loss,
            stagger=args.stagger,
            topology=args.topology,
            topology_kwargs=topology_kwargs,
            qdisc=args.qdisc,
            workload=args.workload,
        )
    except ValueError as exc:
        # Mis-combined axes (e.g. a utilities axis over a TCP scheme) carry
        # their explanation in the exception; surface it as a CLI error.
        parser.error(str(exc))
    try:
        result = sweep(grid, base_seed=args.seed, workers=args.workers,
                       profile=args.profile, store=args.store,
                       progress=True if args.progress else None)
    except ValueError as exc:
        # e.g. --workers 0, --profile with --workers 2, or a --store
        # directory of another format.
        parser.error(str(exc))

    if args.topology != "single_bottleneck":
        print(f"topology: {args.topology} {json.dumps(resolved_kwargs, sort_keys=True)}")
    header = f"{'cell':>4}  {'scheme':<22} {'mbps':>7} {'rtt_ms':>7} {'loss':>7} " \
             f"{'buf_kb':>8} {'flows':>5} {'goodput':>8}"
    print(header)
    for cell in result.cells:
        identity = cell["cell"]
        goodput = sum(flow["goodput_mbps"] for flow in cell["flows"])
        label = identity["scheme"]
        if "utility" in identity:
            label = f"{label}+{identity['utility']}"
        print(f"{identity['index']:>4}  {label:<22} "
              f"{identity['bandwidth_bps'] / BPS_PER_MBPS:>7.1f} {identity['rtt'] * MS_PER_S:>7.1f} "
              f"{identity['loss_rate']:>7.4f} {identity['buffer_bytes'] / BYTES_PER_KB:>8.1f} "
              f"{identity['num_flows']:>5} {goodput:>8.2f}")
    print(f"{len(result.cells)} cells, {result.total_events:,} events in "
          f"{result.total_wall_time_s:.2f} s of simulation work "
          f"({result.events_per_second():,.0f} events/s)")
    if args.output:
        result.write(args.output)
        print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
