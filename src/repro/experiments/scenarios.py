"""The two scenario builders the report catalog still runs by name.

Every other §4 experiment is a pinned-seed
:class:`~repro.experiments.sweep.SweepCell` in :mod:`repro.report.specs`.
These two stay functions for now: :func:`short_flow_scenario` draws its
Poisson schedule from the simulator's own RNG (the workload registry uses a
private stream, which would change Figure 15's numbers), and the benchmark
harness re-seeds :func:`extreme_loss_scenario`'s cells through their
scenario-cell kwargs.  Durations and bandwidths are scaled down from the
paper; EXPERIMENTS.md records the scaling per experiment.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core import LossResilientUtility
from ..units import BPS_PER_MBPS, MS_PER_S
from ..netsim import (
    FairQueue,
    FlowSpec,
    Simulator,
    bdp_bytes,
    poisson_short_flows,
    single_bottleneck,
)
from ..analysis import flow_completion_times
from .runner import ScenarioResult, run_flows

__all__ = [
    "ScenarioOutcome",
    "short_flow_scenario",
    "extreme_loss_scenario",
    "RESPONSIVENESS_BANDWIDTH_BPS",
]

#: Bottleneck capacity of the single-flow extreme-loss scenario, shared with
#: the report spec that re-states it (named so the two can never drift apart).
RESPONSIVENESS_BANDWIDTH_BPS = 50e6


@dataclass
class ScenarioOutcome:
    """Uniform return value for single-number scenarios."""

    scheme: str
    goodput_mbps: float
    loss_rate: float
    mean_rtt_ms: float
    result: ScenarioResult

    @property
    def goodput_bps(self) -> float:
        """Goodput in bits per second."""
        return self.goodput_mbps * BPS_PER_MBPS


def _single_flow_outcome(scheme: str, result: ScenarioResult) -> ScenarioOutcome:
    flow = result.flow(0)
    return ScenarioOutcome(
        scheme=scheme,
        goodput_mbps=flow.goodput_bps(result.duration) / BPS_PER_MBPS,
        loss_rate=flow.loss_rate,
        mean_rtt_ms=flow.mean_rtt * MS_PER_S,
        result=result,
    )


# --------------------------------------------------------------------------- #
# Figure 15 — short-flow completion time
# --------------------------------------------------------------------------- #
def short_flow_scenario(
    scheme: str,
    load: float,
    duration: float = 60.0,
    bandwidth_bps: float = 15e6,
    rtt: float = 0.060,
    flow_size_bytes: float = 100_000.0,
    seed: int = 1,
    **controller_kwargs,
) -> dict:
    """The §4.3.2 short-flow FCT experiment: 100 KB flows, Poisson arrivals."""
    sim = Simulator(seed=seed)
    topo = single_bottleneck(
        sim, bandwidth_bps=bandwidth_bps, rtt=rtt,
        buffer_bytes=bdp_bytes(bandwidth_bps, rtt) * 2.0,
    )
    specs = poisson_short_flows(
        scheme, flow_size_bytes, load, bandwidth_bps, duration * 0.8,
        rng=sim.rng, **controller_kwargs,
    )
    result = run_flows(sim, [topo.path], specs, duration=duration)
    fcts = [flow.flow_completion_time for flow in result.flows]
    summary = flow_completion_times(fcts)
    summary.update({"scheme": scheme, "load": load, "offered_flows": len(specs),
                    "result": result})
    return summary


# --------------------------------------------------------------------------- #
# §4.4.2 — extreme random loss with the loss-resilient utility
# --------------------------------------------------------------------------- #
def extreme_loss_scenario(
    loss_rate: float,
    scheme: str = "pcc",
    duration: float = 30.0,
    bandwidth_bps: float = RESPONSIVENESS_BANDWIDTH_BPS,
    rtt: float = 0.03,
    seed: int = 1,
) -> ScenarioOutcome:
    """§4.4.2: a fair-queueing bottleneck with 10–50% forward loss.

    PCC runs the loss-resilient utility ``T (1 - L)``; the comparison point is
    CUBIC on the same link.
    """
    sim = Simulator(seed=seed)
    topo = single_bottleneck(
        sim, bandwidth_bps=bandwidth_bps, rtt=rtt,
        buffer_bytes=bdp_bytes(bandwidth_bps, rtt),
        loss_rate=loss_rate,
        queue_factory=lambda: FairQueue(per_flow_capacity_bytes=bdp_bytes(
            bandwidth_bps, rtt)),
    )
    kwargs = {}
    if scheme == "pcc":
        kwargs["utility_function"] = LossResilientUtility()
    spec = FlowSpec(scheme=scheme, controller_kwargs=kwargs, label=scheme)
    result = run_flows(sim, [topo.path], [spec], duration=duration)
    return _single_flow_outcome(scheme, result)

