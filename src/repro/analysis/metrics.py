"""Measurement analysis: the derived metrics the paper's figures report.

These helpers operate on the per-flow time series collected by
:class:`repro.netsim.stats.FlowStats`, one entry per
:data:`~repro.netsim.stats.BIN_WIDTH` bin:

* :func:`convergence_time` — Figure 16's "forward-looking" definition: the
  earliest time ``t`` such that throughput in every second from ``t`` to
  ``t + window`` stays within ``±tolerance`` of the ideal equal-share rate.
* :func:`rate_std_dev` — standard deviation of per-second throughput over a
  measurement window after convergence (Figure 16's stability axis).
* :func:`power` — throughput / delay, the Figure 17 objective for interactive
  flows.
* :func:`flow_completion_times` — aggregate FCT statistics for Figure 15.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence

from ..netsim.stats import BIN_WIDTH
from ..units import Bps, Seconds

__all__ = [
    "convergence_time",
    "rate_std_dev",
    "power",
    "flow_completion_times",
    "percentile",
]


def convergence_time(
    throughput_series: Sequence[float],
    ideal_rate: float,
    tolerance: float = 0.25,
    window: float = 5.0,
) -> Optional[float]:
    """Figure 16's convergence time.

    ``throughput_series`` is per-bin throughput (any unit) starting at the
    flow's start; convergence is the earliest bin start ``t`` such that every
    bin in ``[t, t + window]`` lies within ``±tolerance * ideal_rate`` of
    ``ideal_rate``.  Returns ``None`` if the flow never converges.
    """
    if ideal_rate <= 0:
        raise ValueError("ideal_rate must be positive")
    bins_per_window = max(1, int(round(window / BIN_WIDTH)))
    lower = ideal_rate * (1.0 - tolerance)
    upper = ideal_rate * (1.0 + tolerance)
    n = len(throughput_series)
    for start in range(0, n - bins_per_window + 1):
        segment = throughput_series[start:start + bins_per_window]
        if all(lower <= value <= upper for value in segment):
            return start * BIN_WIDTH
    return None


def rate_std_dev(
    throughput_series: Sequence[float],
    from_time: float = 0.0,
    duration: Optional[float] = None,
) -> float:
    """Standard deviation of per-bin throughput starting at ``from_time``."""
    start_bin = int(from_time / BIN_WIDTH)
    values = list(throughput_series[start_bin:])
    if duration is not None:
        values = values[: max(1, int(round(duration / BIN_WIDTH)))]
    if len(values) < 2:
        return 0.0
    mean = sum(values) / len(values)
    variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return math.sqrt(variance)


def power(throughput_bps: Bps, delay_seconds: Seconds) -> float:
    """The power metric of Figure 17: throughput divided by delay."""
    if delay_seconds <= 0:
        return 0.0
    return throughput_bps / delay_seconds


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile (fraction in [0, 1]) of a sample."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    position = fraction * (len(ordered) - 1)
    low = int(math.floor(position))
    high = int(math.ceil(position))
    if low == high:
        return ordered[low]
    weight = position - low
    return ordered[low] * (1.0 - weight) + ordered[high] * weight


def flow_completion_times(fcts: Iterable[Optional[float]]) -> dict:
    """Median / mean / 95th-percentile FCT over completed flows (Figure 15)."""
    completed: List[float] = [fct for fct in fcts if fct is not None]
    if not completed:
        return {"count": 0, "median": None, "mean": None, "p95": None}
    return {
        "count": len(completed),
        "median": percentile(completed, 0.5),
        "mean": sum(completed) / len(completed),
        "p95": percentile(completed, 0.95),
    }
