"""Experiment runner: turn flow specs into senders and collect results.

Scheme names (the strings used in :class:`repro.netsim.flows.FlowSpec`) are
resolved against the :mod:`repro.schemes` registry — a scheme registered once
there is usable here, in sweep grids and in the sweep CLI with no further
edits.  Every sweep cell, scenario and example goes through
:func:`run_flows`, so scenarios stay declarative: build a topology, list the
flows, pick a duration.

A flow's endpoints exist while it runs: :func:`run_flows` schedules one start
event per flow, the event builds the sender(s), receiver(s) and controller(s)
and begins sending, and a finite flow lets go of them at its last ACK.  What a
cell holds is the flows in flight plus one :class:`FlowResult` (spec and
statistics) per flow offered.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..schemes import SchemeInfo, available_schemes, get_scheme
from ..units import BPS_PER_MBPS, MS_PER_S
from ..netsim import (
    DEFAULT_MSS,
    FlowSpec,
    FlowStats,
    Path,
    RateBasedSender,
    Receiver,
    SenderBase,
    Simulator,
    WindowedSender,
    connect,
)

__all__ = ["FlowResult", "ScenarioResult", "run_flows", "available_schemes"]


@dataclass
class FlowResult:
    """Everything recorded about one logical flow (possibly a parallel bundle).

    ``spec`` and ``stats_list`` are the record and outlive the flow.
    ``senders`` / ``schemes`` are the running flow: filled at its start time
    and empty once a finite flow has completed (a flow that never finishes
    keeps them to the end of the run).  A flow whose start time lies past the
    end of the run has none of the three, and every aggregate below reads as
    a flow that sent nothing.
    """

    spec: FlowSpec
    senders: List[SenderBase] = field(default_factory=list)
    stats_list: List[FlowStats] = field(default_factory=list)
    schemes: List[object] = field(default_factory=list)
    #: Width of the run's ``delivered_bins`` (what an unstarted flow reports in).
    bin_width: float = 1.0

    def _sender_completed(self, sender: SenderBase) -> None:
        """``SenderBase.on_complete``: the last sub-flow to finish frees the
        endpoints (each sender has already let go of its path and controller)."""
        for other in self.senders:
            if not other.completed:
                return
        self.senders = []
        self.schemes = []

    # -- aggregated metrics ---------------------------------------------------
    @property
    def stats(self) -> FlowStats:
        """The primary (first) stats object — the common single-sender case.

        Raises :class:`IndexError` for a flow that never started."""
        return self.stats_list[0]

    def goodput_bps(self, duration: float) -> float:
        """Receiver-side unique goodput summed over the bundle."""
        return sum((stats.goodput_bps(duration) for stats in self.stats_list), 0.0)

    def throughput_bps(self, duration: float) -> float:
        """Sender-side throughput summed over the bundle."""
        return sum((stats.throughput_bps(duration) for stats in self.stats_list), 0.0)

    @property
    def loss_rate(self) -> float:
        """Aggregate loss fraction over the bundle."""
        sent = sum(stats.packets_sent for stats in self.stats_list)
        lost = sum(stats.packets_lost for stats in self.stats_list)
        return lost / sent if sent else 0.0

    @property
    def mean_rtt(self) -> float:
        """Sample-weighted mean RTT over the bundle (seconds)."""
        total = sum(stats.rtt_sum for stats in self.stats_list)
        count = sum(stats.rtt_count for stats in self.stats_list)
        return total / count if count else 0.0

    @property
    def flow_completion_time(self) -> Optional[float]:
        """FCT of the bundle: time until the *last* sub-flow finished."""
        fcts = [stats.flow_completion_time for stats in self.stats_list]
        if not fcts or any(fct is None for fct in fcts):
            return None
        return max(fcts)

    def delivered_bytes(self, end: float) -> List[float]:
        """Receiver-side unique bytes per bin over ``[0, end]`` (one value per
        bin, zeros included), summed across the bundle."""
        combined = [0.0] * (int(end / self.bin_width) + 1)
        for stats in self.stats_list:
            for i, value in enumerate(stats.delivered_bins.bin_values(0.0, end)):
                combined[i] += value
        return combined


@dataclass
class ScenarioResult:
    """Result of one simulated scenario."""

    simulator: Simulator
    duration: float
    flows: List[FlowResult]

    def flow(self, index: int) -> FlowResult:
        """The ``index``-th flow in spec order."""
        return self.flows[index]

    def by_label(self, label: str) -> FlowResult:
        """Look a flow up by its spec label."""
        for flow in self.flows:
            if flow.spec.label == label:
                return flow
        raise KeyError(f"no flow labelled {label!r}")

    def total_goodput_bps(self) -> float:
        """Goodput summed over all flows, over the full duration."""
        return sum(flow.goodput_bps(self.duration) for flow in self.flows)

    def summary_rows(self) -> List[dict]:
        """Plain-dict per-flow summary, convenient for printing tables."""
        rows = []
        for flow in self.flows:
            rows.append(
                {
                    "label": flow.spec.label or flow.spec.scheme,
                    "scheme": flow.spec.scheme,
                    "goodput_mbps": flow.goodput_bps(self.duration) / BPS_PER_MBPS,
                    "loss_rate": flow.loss_rate,
                    "mean_rtt_ms": flow.mean_rtt * MS_PER_S,
                    "fct": flow.flow_completion_time,
                }
            )
        return rows


def _start_flow(
    flow: FlowResult,
    sim: Simulator,
    flow_id: int,
    path: Path,
    mss: int,
    info: SchemeInfo,
) -> None:
    """The event at a flow's start time: instantiate its sender(s),
    receiver(s) and stats, and begin sending.

    Construction draws nothing from ``sim.rng`` and schedules nothing, so
    building here instead of before the run moves no simulated statistic.
    """
    spec = flow.spec
    # The scheme's declared defaults (what the sweep layer records in cell
    # identity JSON) under the flow spec's explicit kwargs.
    kwargs = {**info.kwarg_defaults, **spec.controller_kwargs}
    if info.sender_kind == "bundle":
        # The registry's declared kwargs configure the bundle descriptor;
        # everything else is forwarded to the sub-flow controllers.
        bundle_kwargs = {key: kwargs.pop(key) for key in list(kwargs)
                         if key in info.kwarg_defaults}
        bundle = info.factory(**bundle_kwargs)
        info = get_scheme(bundle.scheme)
        if info.sender_kind != "windowed":
            raise ValueError(
                f"bundle scheme {spec.scheme!r} expands into {bundle.scheme!r} "
                f"sub-flows, which is a {info.sender_kind!r} scheme; "
                f"bundles require a windowed one"
            )
        kwargs = {**info.kwarg_defaults, **kwargs}
        shares = [(flow_id * 1000 + offset, size)
                  for offset, size in enumerate(bundle.split_bytes(spec.size_bytes))]
    else:
        shares = [(flow_id, spec.size_bytes)]

    for sub_id, size in shares:
        stats = FlowStats(sub_id, bin_width=flow.bin_width)
        receiver = Receiver(sim, sub_id, stats)
        # Each sender gets its own Path object (sharing the underlying links)
        # because binding a receiver/sender pair to a Path attaches that
        # pair's callbacks.
        sub_path = Path(path.forward_links, path.reverse_links)
        if info.sender_kind == "rate":
            controller = info.factory(mss=mss, **kwargs)
            sender: SenderBase = RateBasedSender(
                sim, sub_id, sub_path, controller, stats,
                total_bytes=size, mss=mss, start_time=spec.start_time,
            )
        else:  # "windowed"
            controller = info.factory(**kwargs)
            sender = WindowedSender(
                sim, sub_id, sub_path, controller, stats,
                total_bytes=size, mss=mss, start_time=spec.start_time,
                pacing=bool(getattr(controller, "requires_pacing", False)),
            )
        connect(sender, receiver, sub_path)
        sender.on_complete = flow._sender_completed
        flow.senders.append(sender)
        flow.stats_list.append(stats)
        flow.schemes.append(controller)
        sender._begin()


def run_flows(
    sim: Simulator,
    paths: Sequence[Path],
    flow_specs: Sequence[FlowSpec],
    duration: float,
    mss: int = DEFAULT_MSS,
    bin_width: float = 1.0,
) -> ScenarioResult:
    """Schedule every flow spec's start on its path, run the simulation,
    return results.

    Flow ``i`` starts at ``max(spec.start_time, sim.now)``; its endpoints are
    built by that event and, for a finite flow, freed at its last ACK, so the
    run holds the flows in flight rather than the flows offered.  Scheme
    strings are resolved here, before anything runs: an unknown scheme raises
    now, not at its flow's start time.
    """
    if not paths:
        raise ValueError("run_flows needs at least one path")
    schemes = {scheme: get_scheme(scheme)
               for scheme in dict.fromkeys(spec.scheme for spec in flow_specs)}
    flows = [FlowResult(spec=spec, bin_width=bin_width) for spec in flow_specs]
    for index, flow in enumerate(flows):
        spec = flow.spec
        sim.schedule_at(
            max(spec.start_time, sim.now), _start_flow, flow, sim, index + 1,
            paths[spec.path_index % len(paths)], mss, schemes[spec.scheme])
    sim.run(duration)
    return ScenarioResult(simulator=sim, duration=duration, flows=flows)
