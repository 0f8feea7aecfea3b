"""Experiment runner: turn flow specs into senders and collect results.

Scheme names (the strings used in :class:`repro.netsim.flows.FlowSpec`,
including ``"pcc:gradient"``-style variant specs) are resolved against the
:mod:`repro.schemes` registry — a scheme registered once there is usable here,
in sweep grids and in the sweep CLI with no further edits.  Every sweep cell,
scenario and example goes through :func:`run_flows`, so scenarios stay
declarative: build a topology, list the flows, pick a duration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from ..schemes import SchemeSpec, available_schemes
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
    """Everything recorded about one logical flow (possibly a parallel bundle)."""

    spec: FlowSpec
    senders: List[SenderBase] = field(default_factory=list)
    stats_list: List[FlowStats] = field(default_factory=list)
    schemes: List[object] = field(default_factory=list)

    # -- aggregated metrics ---------------------------------------------------
    @property
    def stats(self) -> FlowStats:
        """The primary (first) stats object — the common single-sender case."""
        return self.stats_list[0]

    def goodput_bps(self, duration: float) -> float:
        """Receiver-side unique goodput summed over the bundle."""
        return sum(stats.goodput_bps(duration) for stats in self.stats_list)

    def throughput_bps(self, duration: float) -> float:
        """Sender-side throughput summed over the bundle."""
        return sum(stats.throughput_bps(duration) for stats in self.stats_list)

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
        if any(fct is None for fct in fcts):
            return None
        return max(fcts)

    def delivered_bytes(self, end: float) -> List[float]:
        """Receiver-side unique bytes per bin over ``[0, end]`` (one value per
        bin, zeros included), summed across the bundle."""
        width = self.stats.delivered_bins.bin_width
        combined = [0.0] * (int(end / width) + 1)
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


def _build_flow(
    sim: Simulator,
    flow_id: int,
    path: Path,
    spec: FlowSpec,
    mss: int,
    bin_width: float,
) -> FlowResult:
    """Instantiate the sender(s), receiver(s) and stats for one flow spec."""
    result = FlowResult(spec=spec)
    parsed = SchemeSpec.parse(spec.scheme)
    info = parsed.info()
    # Declared defaults merged under the variant's kwargs, then the flow
    # spec's explicit kwargs on top (the same precedence the sweep layer
    # records in cell identity JSON).
    kwargs = {**info.kwarg_defaults, **parsed.kwargs, **spec.controller_kwargs}
    # Each flow gets its own Path object (sharing the underlying links) because
    # binding a receiver/sender pair to a Path attaches that pair's callbacks.
    path = _clone_path(path)

    if info.sender_kind == "bundle":
        # The registry's declared kwargs configure the bundle descriptor;
        # everything else is forwarded to the sub-flow controllers.
        bundle_kwargs = {key: kwargs.pop(key) for key in list(kwargs)
                         if key in info.kwarg_defaults}
        bundle = info.factory(**bundle_kwargs)
        sub = SchemeSpec.parse(bundle.scheme)
        sub_info = sub.info()
        if sub_info.sender_kind != "windowed":
            raise ValueError(
                f"bundle scheme {spec.scheme!r} expands into {bundle.scheme!r} "
                f"sub-flows, which is a {sub_info.sender_kind!r} scheme; "
                f"bundles require a windowed one"
            )
        sub_kwargs = {**sub_info.kwarg_defaults, **sub.kwargs, **kwargs}
        for offset, size in enumerate(bundle.split_bytes(spec.size_bytes)):
            controller = sub_info.factory(**sub_kwargs)
            pacing = bool(getattr(controller, "requires_pacing", False))
            stats = FlowStats(flow_id * 1000 + offset, bin_width=bin_width)
            receiver = Receiver(sim, stats.flow_id, stats)
            sender = WindowedSender(
                sim, stats.flow_id, _clone_path(path), controller,
                stats, total_bytes=size, mss=mss, start_time=spec.start_time,
                pacing=pacing,
            )
            connect(sender, receiver, sender.path)
            result.senders.append(sender)
            result.stats_list.append(stats)
            result.schemes.append(sender.controller)
        return result

    stats = FlowStats(flow_id, bin_width=bin_width)
    receiver = Receiver(sim, flow_id, stats)
    if info.sender_kind == "rate":
        controller = info.factory(mss=mss, **kwargs)
        sender: SenderBase = RateBasedSender(
            sim, flow_id, path, controller, stats,
            total_bytes=spec.size_bytes, mss=mss, start_time=spec.start_time,
        )
    else:  # "windowed"
        controller = info.factory(**kwargs)
        pacing = bool(getattr(controller, "requires_pacing", False))
        sender = WindowedSender(
            sim, flow_id, path, controller, stats,
            total_bytes=spec.size_bytes, mss=mss, start_time=spec.start_time,
            pacing=pacing,
        )
    connect(sender, receiver, path)
    result.senders.append(sender)
    result.stats_list.append(stats)
    result.schemes.append(controller)
    return result


def _clone_path(path: Path) -> Path:
    """A parallel-TCP bundle shares links but each sub-flow needs its own routes."""
    return Path(path.forward_links, path.reverse_links)


def run_flows(
    sim: Simulator,
    paths: Sequence[Path],
    flow_specs: Sequence[FlowSpec],
    duration: float,
    mss: int = DEFAULT_MSS,
    bin_width: float = 1.0,
) -> ScenarioResult:
    """Attach every flow spec to its path, run the simulation, return results."""
    if not paths:
        raise ValueError("run_flows needs at least one path")
    flows: List[FlowResult] = []
    for index, spec in enumerate(flow_specs):
        path = paths[spec.path_index % len(paths)]
        flows.append(_build_flow(sim, index + 1, path, spec, mss, bin_width))
    for flow in flows:
        for sender in flow.senders:
            sender.start()
    sim.run(duration)
    return ScenarioResult(simulator=sim, duration=duration, flows=flows)
