"""Fairness metrics.

Jain's fairness index is the paper's fairness measure (Figure 13): for
allocations ``x_1..x_n``,

    J(x) = (sum x_i)^2 / (n * sum x_i^2),

which is 1 for a perfectly fair allocation and 1/n when one flow takes
everything.  :func:`jain_index_over_timescales` reproduces the Figure 13
methodology: divide the run into windows of a given length, compute per-window
per-flow throughput, take Jain's index per window, and average.
"""

from __future__ import annotations

import sys
from typing import List, Sequence

__all__ = ["jain_index", "jain_index_over_timescales", "throughput_ratio"]


def jain_index(allocations: Sequence[float]) -> float:
    """Jain's fairness index of a non-negative allocation vector."""
    values = [max(float(v), 0.0) for v in allocations]
    if not values:
        raise ValueError("jain_index needs at least one allocation")
    total = sum(values)
    if total == 0:
        return 1.0  # all-zero allocations are (vacuously) fair
    squares = sum(v * v for v in values)
    if squares < sys.float_info.min:
        # Squares of allocations near 1e-154 and below are subnormal or zero
        # and have lost their precision; the index is scale-free, so it is
        # taken over the allocations divided by the largest.
        largest = max(values)
        values = [v / largest for v in values]
        total = sum(values)
        squares = sum(v * v for v in values)
    return total * total / (len(values) * squares)


def jain_index_over_timescales(
    per_flow_series: Sequence[Sequence[float]],
    bin_width: float,
    timescale: float,
) -> float:
    """Average Jain's index computed over windows of ``timescale`` seconds.

    ``per_flow_series`` holds each flow's per-bin throughput (bins of
    ``bin_width`` seconds, aligned across flows).  Windows shorter than the
    timescale at the tail are ignored, as in the paper's figure.
    """
    if timescale < bin_width:
        raise ValueError("timescale must be at least one bin wide")
    if not per_flow_series:
        raise ValueError("need at least one flow series")
    bins_per_window = max(1, int(round(timescale / bin_width)))
    num_bins = min(len(series) for series in per_flow_series)
    indices: List[float] = []
    start = 0
    while start + bins_per_window <= num_bins:
        window_totals = [
            sum(series[start:start + bins_per_window]) for series in per_flow_series
        ]
        if sum(window_totals) > 0:
            indices.append(jain_index(window_totals))
        start += bins_per_window
    if not indices:
        return 1.0
    return sum(indices) / len(indices)


def throughput_ratio(numerator: float, denominator: float) -> float:
    """Safe ratio used for RTT-fairness and friendliness plots (0 if undefined)."""
    if denominator <= 0:
        return 0.0
    return numerator / denominator
