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
from typing import Callable, List, Optional, Protocol

from ..registry import NameRegistry
from ..units import BPS_PER_MBPS
from .metrics import MonitorIntervalStats

__all__ = [
    "UtilityFunction",
    "SafeUtility",
    "SimpleUtility",
    "LossResilientUtility",
    "LatencyUtility",
    "sigmoid",
    "register_utility",
    "make_utility",
    "utility_names",
]


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
    """The §2.2 "safe" utility: throughput gated by a ~5% loss cap.

    Parameters
    ----------
    alpha:
        Sigmoid steepness.  Theorem 1 requires ``alpha >= max(2.2 (n-1), 100)``
        for ``n`` competing senders; the default 100 covers n <= 46.
    loss_threshold:
        Loss rate at which the sigmoid cuts off (0.05 in the paper).
    """

    def __init__(self, alpha: float = 100.0, loss_threshold: float = 0.05):
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        if not 0.0 < loss_threshold < 1.0:
            raise ValueError("loss_threshold must be in (0, 1)")
        self.alpha = alpha
        self.loss_threshold = loss_threshold

    def __call__(self, mi: MonitorIntervalStats,
                 previous: Optional[MonitorIntervalStats] = None) -> float:
        loss = mi.loss_rate
        throughput_mbps = mi.throughput_bps / BPS_PER_MBPS
        rate_mbps = mi.sending_rate_bps / BPS_PER_MBPS
        gate = sigmoid(loss - self.loss_threshold, self.alpha)
        return throughput_mbps * gate - rate_mbps * loss

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SafeUtility(alpha={self.alpha}, threshold={self.loss_threshold})"


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

    def __init__(self, alpha: float = 100.0, loss_threshold: float = 0.05):
        self.alpha = alpha
        self.loss_threshold = loss_threshold

    def __call__(self, mi: MonitorIntervalStats,
                 previous: Optional[MonitorIntervalStats] = None) -> float:
        rtt_now = mi.mean_rtt
        if rtt_now <= 0:
            return 0.0
        rtt_prev = previous.mean_rtt if previous is not None and previous.mean_rtt > 0 \
            else rtt_now
        throughput_mbps = mi.throughput_bps / BPS_PER_MBPS
        rate_mbps = mi.sending_rate_bps / BPS_PER_MBPS
        gate = sigmoid(mi.loss_rate - self.loss_threshold, self.alpha)
        numerator = throughput_mbps * gate * (rtt_prev / rtt_now) - rate_mbps * mi.loss_rate
        return numerator / rtt_now


# --------------------------------------------------------------------------- #
# Utility registry
# --------------------------------------------------------------------------- #
_UTILITIES: NameRegistry[Callable[..., UtilityFunction]] = NameRegistry("utility")


def register_utility(name: str, factory: Callable[..., UtilityFunction]) -> None:
    """Register ``factory`` (a utility class or callable) under ``name``.

    Names are the JSON-serializable currency of the experiment layers; like
    every :class:`~repro.registry.NameRegistry`, registration must happen at
    module import time so spawn-method sweep workers can resolve the name.
    """
    _UTILITIES.register(name, factory)


def make_utility(name: str, **kwargs) -> UtilityFunction:
    """Instantiate the utility function registered under ``name``."""
    return _UTILITIES.get(name)(**kwargs)


def utility_names() -> List[str]:
    """All registered utility names, sorted."""
    return _UTILITIES.names()


register_utility("safe", SafeUtility)
register_utility("simple", SimpleUtility)
register_utility("loss_resilient", LossResilientUtility)
register_utility("latency", LatencyUtility)
