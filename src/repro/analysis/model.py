"""Fluid model of competing PCC senders (§2.2).

The convergence/fairness analysis in the paper abstracts the network to a
single bottleneck of capacity ``C`` shared by ``n`` senders with rates
``x = (x_1, ..., x_n)``:

    L(x)   = max(0, 1 - C / sum(x))          per-packet loss probability
    T_i(x) = x_i (1 - L(x))                   sender i's throughput
    u_i(x) = T_i(x) * Sigmoid(L(x) - 0.05) - x_i * L(x)

with ``Sigmoid(y) = 1 / (1 + e^{alpha y})``.  This module implements that model
so the equilibrium (Theorem 1) and the dynamics (Theorem 2) can be verified
numerically and benchmarked against the packet-level simulator.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from ..core.utility import _LOSS_THRESHOLD, sigmoid

__all__ = ["FluidModel"]

#: A best response is located to within this fraction of the capacity.
_BEST_RESPONSE_TOLERANCE = 1e-6


def sequential_sum(values: Sequence[float]) -> float:
    """Sum ``values`` left to right.

    Not ``sum()``: from Python 3.12 on it compensates float sums, and the last
    bits of the theorem cells in ``REPORT.md`` would depend on the interpreter.
    """
    total = 0.0
    for value in values:
        total += value
    return total


class FluidModel:
    """The n-sender single-bottleneck fluid model with the safe utility."""

    def __init__(self, capacity: float, alpha: float = 100.0):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        self.capacity = float(capacity)
        self.alpha = float(alpha)

    # ------------------------------------------------------------------ #
    # Model primitives
    # ------------------------------------------------------------------ #
    def loss(self, rates: Sequence[float]) -> float:
        """Per-packet loss probability L(x) = max(0, 1 - C / sum(x))."""
        total = sequential_sum(rates)
        if total <= self.capacity or total <= 0:
            return 0.0
        return 1.0 - self.capacity / total

    def throughput(self, rates: Sequence[float], i: int) -> float:
        """Sender ``i``'s throughput T_i(x) = x_i (1 - L(x))."""
        return rates[i] * (1.0 - self.loss(rates))

    def utility(self, rates: Sequence[float], i: int) -> float:
        """Sender ``i``'s safe utility u_i(x)."""
        loss = self.loss(rates)
        throughput = rates[i] * (1.0 - loss)
        return (throughput * sigmoid(loss - _LOSS_THRESHOLD, self.alpha)
                - rates[i] * loss)

    # ------------------------------------------------------------------ #
    # Helpers used by the theorem checks
    # ------------------------------------------------------------------ #
    def best_response(self, rates: Sequence[float], i: int,
                      lo: Optional[float] = None,
                      hi: Optional[float] = None) -> float:
        """Sender ``i``'s best response to the other senders' current rates.

        Golden-section search over x_i in [lo, hi]; the utility is unimodal in
        x_i for the safe utility over the region of interest (sum in
        (C, 20C/19)), which the property tests verify empirically.
        """
        rates = list(rates)
        lo = 1e-6 * self.capacity if lo is None else lo
        hi = 2.0 * self.capacity if hi is None else hi

        def objective(x: float) -> float:
            rates[i] = x
            return self.utility(rates, i)

        inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c = b - inv_phi * (b - a)
        d = a + inv_phi * (b - a)
        fc, fd = objective(c), objective(d)
        while abs(b - a) > _BEST_RESPONSE_TOLERANCE * self.capacity:
            if fc > fd:
                b, d, fd = d, c, fc
                c = b - inv_phi * (b - a)
                fc = objective(c)
            else:
                a, c, fc = c, d, fd
                d = a + inv_phi * (b - a)
                fd = objective(d)
        return (a + b) / 2.0
