"""PCC utility functions.

The utility function is PCC's statement of objective: it maps a monitor
interval's observed performance (throughput, loss rate, latency) to a single
number, and the learning control simply moves the rate in the direction that
empirically increases it.  Section 2.2 derives the default "safe" utility

    u_i(x) = T_i(x) * Sigmoid(L(x) - 0.05) - x_i * L(x),
    Sigmoid(y) = 1 / (1 + e^{alpha * y}),  alpha >= max(2.2 (n-1), 100),

whose selfish optimisation provably converges to a fair equilibrium (Theorem 1)
while capping steady-state loss near 5%.  Section 2.4 / 4.4 then exploits the
architecture's flexibility by plugging in different utilities:

* :class:`LossResilientUtility` — ``T * (1 - L)``: tolerate arbitrary random
  loss; intended for fair-queueing networks (§4.4.2).
* :class:`LatencyUtility` — the interactive-flow objective of §4.4.1, which
  divides by RTT and penalises RTT growth, maximising power (throughput/delay).
* :class:`SimpleUtility` — ``T - x * L``, the "starting point" utility from
  which the safe utility is derived; useful for ablations.

Throughput and sending rate are expressed in Mbps inside the utilities so that
the two terms are commensurate regardless of link speed.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Protocol

from ..registry import lookup
from ..units import BPS_PER_MBPS
from .metrics import MonitorIntervalStats

__all__ = [
    "UtilityFunction",
    "SafeUtility",
    "SimpleUtility",
    "LossResilientUtility",
    "LatencyUtility",
    "sigmoid",
    "make_utility",
    "utility_names",
]


#: Sigmoid steepness of the safe and latency utilities.  Theorem 1 requires
#: ``alpha >= max(2.2 (n-1), 100)`` for ``n`` competing senders; 100 covers
#: n <= 46.
_ALPHA = 100.0

#: Loss rate at which the sigmoid cuts off (0.05 in the paper).
_LOSS_THRESHOLD = 0.05


def sigmoid(y: float, alpha: float) -> float:
    """The paper's cut-off sigmoid: 1 / (1 + e^{alpha * y}).

    Approaches 1 for y << 0 (loss below the threshold) and 0 for y >> 0 (loss
    above it).  Large exponents are clamped to avoid overflow.
    """
    exponent = alpha * y
    if exponent > 700.0:
        return 0.0
    if exponent < -700.0:
        return 1.0
    return 1.0 / (1.0 + math.exp(exponent))


class UtilityFunction(Protocol):
    """Callable scoring a monitor interval (optionally knowing the previous one)."""

    def __call__(self, mi: MonitorIntervalStats,
                 previous: Optional[MonitorIntervalStats] = None) -> float:
        ...  # pragma: no cover - protocol signature only


class SafeUtility:
    """The §2.2 "safe" utility: throughput gated by a ~5% loss cap."""

    def __call__(self, mi: MonitorIntervalStats,
                 previous: Optional[MonitorIntervalStats] = None) -> float:
        loss = mi.loss_rate
        throughput_mbps = mi.throughput_bps / BPS_PER_MBPS
        rate_mbps = mi.sending_rate_bps / BPS_PER_MBPS
        gate = sigmoid(loss - _LOSS_THRESHOLD, _ALPHA)
        return throughput_mbps * gate - rate_mbps * loss


class SimpleUtility:
    """The pre-sigmoid utility ``T - x * L`` used as a derivation starting point."""

    def __call__(self, mi: MonitorIntervalStats,
                 previous: Optional[MonitorIntervalStats] = None) -> float:
        return mi.throughput_bps / BPS_PER_MBPS - (mi.sending_rate_bps / BPS_PER_MBPS) * mi.loss_rate


class LossResilientUtility:
    """``T * (1 - L)``: maximise goodput regardless of loss (§4.4.2).

    Its optimum is the flow's fair-share rate even under extreme (up to ~100%)
    random loss, but it provides no loss cap, so the paper restricts it to
    fair-queueing networks where a greedy flow cannot hurt others.
    """

    def __call__(self, mi: MonitorIntervalStats,
                 previous: Optional[MonitorIntervalStats] = None) -> float:
        return (mi.throughput_bps / BPS_PER_MBPS) * (1.0 - mi.loss_rate)


class LatencyUtility:
    """The §4.4.1 interactive-flow utility.

    u = (T * sigmoid(L - 0.05) * RTT_{n-1} / RTT_n - x * L) / RTT_n

    where ``RTT_{n-1}`` / ``RTT_n`` are the average RTTs of the previous and
    current monitor intervals.  Dividing by the current RTT expresses the
    power objective (throughput per unit delay); the RTT-ratio factor penalises
    actions that *grow* latency, which keeps self-inflicted queueing near zero.
    """

    def __call__(self, mi: MonitorIntervalStats,
                 previous: Optional[MonitorIntervalStats] = None) -> float:
        rtt_now = mi.mean_rtt
        if rtt_now <= 0:
            return 0.0
        rtt_prev = previous.mean_rtt if previous is not None and previous.mean_rtt > 0 \
            else rtt_now
        throughput_mbps = mi.throughput_bps / BPS_PER_MBPS
        rate_mbps = mi.sending_rate_bps / BPS_PER_MBPS
        gate = sigmoid(mi.loss_rate - _LOSS_THRESHOLD, _ALPHA)
        numerator = throughput_mbps * gate * (rtt_prev / rtt_now) - rate_mbps * mi.loss_rate
        return numerator / rtt_now


# --------------------------------------------------------------------------- #
# Utility table
# --------------------------------------------------------------------------- #
#: Every utility a cell's ``utility`` may name.
_UTILITIES: Dict[str, Callable[[], UtilityFunction]] = {
    "safe": SafeUtility,
    "simple": SimpleUtility,
    "loss_resilient": LossResilientUtility,
    "latency": LatencyUtility,
}


def make_utility(name: str) -> UtilityFunction:
    """Instantiate the utility function named ``name``."""
    return lookup(_UTILITIES, "utility", name)()


def utility_names() -> List[str]:
    """All utility names, sorted."""
    return sorted(_UTILITIES)
