"""Game-theoretic model and measurement analysis for the PCC reproduction."""

from .model import FluidModel
from .equilibrium import (
    EquilibriumResult,
    best_response_iteration,
    find_equilibrium,
    symmetric_equilibrium_rate,
)
from .dynamics import DynamicsResult, simulate_dynamics, theorem2_band
from .fairness import jain_index, jain_index_over_timescales, throughput_ratio
from .metrics import (
    convergence_time,
    flow_completion_times,
    percentile,
    power,
    rate_std_dev,
)

__all__ = [
    "FluidModel",
    "EquilibriumResult",
    "best_response_iteration",
    "find_equilibrium",
    "symmetric_equilibrium_rate",
    "DynamicsResult",
    "simulate_dynamics",
    "theorem2_band",
    "jain_index",
    "jain_index_over_timescales",
    "throughput_ratio",
    "convergence_time",
    "flow_completion_times",
    "percentile",
    "power",
    "rate_std_dev",
]
