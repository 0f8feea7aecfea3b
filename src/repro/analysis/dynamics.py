"""Numerical verification of Theorem 2 (convergence of the §2.2 dynamics).

The simple control algorithm analysed in the paper has every sender j update

    x_j(t+1) = x_j(t) (1 + eps)   if u_j(x_j (1+eps), x_-j) > u_j(x_j (1-eps), x_-j)
    x_j(t+1) = x_j(t) (1 - eps)   otherwise,

all senders updating concurrently, each evaluating the comparison as if it were
the only one changing.  Theorem 2 states every x_j converges into
``(x̂ (1-eps)^2, x̂ (1+eps)^2)`` where x̂ is the unique stable-state rate.

:func:`simulate_dynamics` runs these synchronized updates on the fluid model
and reports the trajectory, and whether/when each sender entered the Theorem 2
band.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from .equilibrium import symmetric_equilibrium_rate
from .model import FluidModel

__all__ = ["DynamicsResult", "simulate_dynamics", "theorem2_band"]


@dataclass
class DynamicsResult:
    """Trajectory and convergence summary of the §2.2 update dynamics."""

    trajectory: List[List[float]]   # steps + 1 rows of n rates
    equilibrium_rate: float
    epsilon: float
    converged_step: Optional[int]   # first step at which all senders are in band
    band: tuple[float, float]

    @property
    def final_rates(self) -> List[float]:
        """Rates after the final step."""
        return self.trajectory[-1]

    @property
    def converged(self) -> bool:
        """Whether all senders ended inside the Theorem 2 band."""
        return _all_in_band(self.final_rates, self.band)


def _all_in_band(rates: Sequence[float], band: tuple[float, float]) -> bool:
    lo, hi = band
    return all(lo < rate < hi for rate in rates)


def theorem2_band(equilibrium_rate: float, epsilon: float) -> tuple[float, float]:
    """The convergence band (x̂ (1-eps)^2, x̂ (1+eps)^2) of Theorem 2."""
    return (
        equilibrium_rate * (1.0 - epsilon) ** 2,
        equilibrium_rate * (1.0 + epsilon) ** 2,
    )


def simulate_dynamics(
    model: FluidModel,
    initial_rates: Sequence[float],
    epsilon: float = 0.01,
    steps: int = 2000,
) -> DynamicsResult:
    """Run the synchronized update dynamics of §2.2 for ``steps`` steps."""
    rates = [float(rate) for rate in initial_rates]
    n = len(rates)
    equilibrium = symmetric_equilibrium_rate(model, n)
    band = theorem2_band(equilibrium, epsilon)
    trajectory = [rates]
    converged_step: Optional[int] = None
    for step in range(1, steps + 1):
        new_rates = list(rates)
        for j in range(n):
            up = list(rates)
            down = list(rates)
            up[j] = rates[j] * (1.0 + epsilon)
            down[j] = rates[j] * (1.0 - epsilon)
            direction = 1 if model.utility(up, j) > model.utility(down, j) else -1
            new_rates[j] = rates[j] * (1.0 + direction * epsilon)
        rates = new_rates
        trajectory.append(rates)
        if converged_step is None and _all_in_band(rates, band):
            converged_step = step
    return DynamicsResult(
        trajectory=trajectory,
        equilibrium_rate=equilibrium,
        epsilon=epsilon,
        converged_step=converged_step,
        band=band,
    )
