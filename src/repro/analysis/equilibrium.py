"""Numerical verification of Theorem 1 (existence, uniqueness, fairness).

Theorem 1 states that for ``alpha >= max(2.2 (n - 1), 100)`` the game defined
by the safe utility on a shared bottleneck has a unique stable state of sending
rates and that this state is fair (all rates equal).  We verify this
numerically by

* computing the symmetric equilibrium rate directly (all senders at ``x``,
  ``x`` a fixed point of the best response), and
* running best-response iteration from arbitrary asymmetric starting points
  and checking it converges to the same, fair profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from .model import FluidModel, sequential_sum

__all__ = ["EquilibriumResult", "find_equilibrium", "best_response_iteration",
           "symmetric_equilibrium_rate"]

#: The symmetric fixed point is bisected to this fraction of the capacity.
_SYMMETRIC_TOLERANCE = 1e-9

#: Best-response rounds stop once no rate moves by this fraction of the
#: capacity, or after this many rounds.
_ITERATION_TOLERANCE = 1e-6
_MAX_ITERATIONS = 500


@dataclass
class EquilibriumResult:
    """Outcome of a best-response iteration."""

    rates: List[float]
    iterations: int
    converged: bool

    @property
    def total_rate(self) -> float:
        """Aggregate sending rate at the final profile."""
        return sequential_sum(self.rates)

    @property
    def max_relative_spread(self) -> float:
        """max_i |x_i - mean| / mean — zero for a perfectly fair profile."""
        mean = self.total_rate / len(self.rates)
        if mean == 0:
            return 0.0
        return max(abs(rate - mean) for rate in self.rates) / mean


def symmetric_equilibrium_rate(model: FluidModel, n: int) -> float:
    """The symmetric fixed point: every sender's best response to n-1 peers at x.

    Solved by bisection on ``f(x) = best_response(x, others at x) - x`` which is
    decreasing in x over the region of interest.
    """
    lo = model.capacity / n * 0.5
    hi = model.capacity / n * 1.5

    def excess(x: float) -> float:
        rates = [x] * n
        return model.best_response(rates, 0, lo=1e-9, hi=2.0 * model.capacity) - x

    f_lo, f_hi = excess(lo), excess(hi)
    # Expand the bracket if needed (can happen for tiny n or small alpha).
    expand = 0
    while f_lo * f_hi > 0 and expand < 20:
        lo *= 0.5
        hi *= 1.5
        f_lo, f_hi = excess(lo), excess(hi)
        expand += 1
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if hi - lo < _SYMMETRIC_TOLERANCE * model.capacity:
            break
        if excess(mid) > 0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def best_response_iteration(
    model: FluidModel,
    initial_rates: Sequence[float],
) -> EquilibriumResult:
    """Iterate best responses (round robin) until the profile stops moving."""
    rates = [float(rate) for rate in initial_rates]
    n = len(rates)
    for iteration in range(1, _MAX_ITERATIONS + 1):
        previous = list(rates)
        for i in range(n):
            rates[i] = model.best_response(rates, i, lo=1e-9,
                                           hi=2.0 * model.capacity)
        if max(abs(new - old) for new, old in zip(rates, previous)) \
                < _ITERATION_TOLERANCE * model.capacity:
            return EquilibriumResult(rates=rates, iterations=iteration, converged=True)
    return EquilibriumResult(rates=rates, iterations=_MAX_ITERATIONS, converged=False)


def find_equilibrium(capacity: float, n: int) -> EquilibriumResult:
    """Build the model with Theorem 1's alpha, ``max(2.2 (n - 1), 100)``, and
    iterate best responses from a deliberately unfair starting point, which
    exercises convergence to fairness."""
    model = FluidModel(capacity, alpha=max(2.2 * (n - 1), 100.0))
    return best_response_iteration(
        model, [capacity * (i + 1) / n for i in range(n)])
