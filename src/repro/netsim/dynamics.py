"""Time-varying link parameters.

Figure 11 of the paper evaluates a "rapidly changing network": every 5 seconds
the available bandwidth, latency and loss rate of the path are re-drawn from
uniform distributions.  :class:`RandomLinkDynamics` reproduces that process on
a simulated link, and :class:`TraceLinkDynamics` drives bandwidth from a
piecewise-constant ``(time, value)`` trace, with a few bundled synthetic
traces (:func:`step_trace`, :func:`sawtooth_trace`,
:func:`cellular_trace`) so time-varying-capacity scenarios are one import away.

Both record the applied values so experiments can plot "optimal" (the actual
available bandwidth over time) against each protocol's chosen rate, exactly
as the paper's Figure 11 does.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from operator import itemgetter
from typing import List, Optional, Sequence, Tuple

from .engine import Simulator
from .link import Link

__all__ = [
    "RandomLinkDynamics",
    "TraceLinkDynamics",
    "step_trace",
    "sawtooth_trace",
    "cellular_trace",
    "make_synthetic_trace",
    "SYNTHETIC_TRACES",
]


class _OptimalRateHistory:
    """Shared "what was the available bandwidth at time t" helpers.

    Subclasses append ``(applied_at, bandwidth_bps, rtt, loss_rate)`` tuples to
    :attr:`history` in time order, expose the driven link as :attr:`link`, and
    record the link's pre-dynamics bandwidth as :attr:`_initial_bandwidth_bps`
    at construction, so that queries before the first applied entry report the
    bandwidth that was actually in force (the link's configured rate), not the
    not-yet-applied first entry.
    """

    link: Link
    history: List[Tuple[float, float, float, float]]
    _initial_bandwidth_bps: float

    def optimal_rate_at(self, time: float) -> float:
        """The available bandwidth (bps) that was in force at ``time``.

        The history is appended in simulation-time order, so the latest entry
        not after ``time`` is found by bisection; ties (several entries applied
        at exactly ``time``) resolve to the last one, like the linear scan this
        replaced.
        """
        index = bisect_right(self.history, time, key=itemgetter(0))
        if index == 0:
            return self._initial_bandwidth_bps
        return self.history[index - 1][1]

    def mean_optimal_rate(self, start: float, end: float) -> float:
        """Time-weighted mean available bandwidth between ``start`` and ``end``."""
        if end <= start:
            return self.link.bandwidth_bps
        total = 0.0
        current = self._initial_bandwidth_bps
        segment_start = start
        for applied_at, bandwidth, _rtt, _loss in self.history:
            if applied_at >= end:
                break
            if applied_at > segment_start:
                total += current * (applied_at - segment_start)
                segment_start = applied_at
            current = bandwidth
        total += current * (end - segment_start)
        return total / (end - start)


#: §4.1.7's rapidly changing network: every 5 s the bandwidth is re-drawn
#: uniformly from [10, 100] Mbps, the RTT from [10, 100] ms and the loss rate
#: from [0, 1] %.
_REDRAW_PERIOD = 5.0
_BANDWIDTH_RANGE_BPS = (10e6, 100e6)
_RTT_RANGE = (0.010, 0.100)
_LOSS_RANGE = (0.0, 0.01)


class RandomLinkDynamics(_OptimalRateHistory):
    """Re-draw link bandwidth / delay / loss every 5 seconds (§4.1.7).

    Bandwidth is uniform in [10, 100] Mbps, the one-way delay uniform such
    that the RTT is in [10, 100] ms (on ``reverse_link`` too, if given) and
    loss uniform in [0, 1]%.
    """

    def __init__(self, sim: Simulator, link: Link,
                 reverse_link: Optional[Link] = None):
        self.sim = sim
        self.link = link
        self._initial_bandwidth_bps = link.bandwidth_bps
        self.reverse_link = reverse_link
        #: History of applied settings: (time, bandwidth_bps, rtt, loss_rate).
        self.history: List[Tuple[float, float, float, float]] = []
        self._running = False

    def start(self) -> None:
        """Apply an initial draw immediately and re-draw every period."""
        if self._running:
            return
        self._running = True
        self._apply()

    def _apply(self) -> None:
        rng = self.sim.rng
        bandwidth = rng.uniform(*_BANDWIDTH_RANGE_BPS)
        self.link.set_bandwidth(bandwidth)
        rtt = rng.uniform(*_RTT_RANGE)
        self.link.set_delay(rtt / 2.0)
        if self.reverse_link is not None:
            self.reverse_link.set_delay(rtt / 2.0)
        loss = rng.uniform(*_LOSS_RANGE)
        self.link.set_loss_rate(loss)
        self.history.append((self.sim.now, bandwidth, rtt, loss))
        self.sim.schedule(_REDRAW_PERIOD, self._apply)


class TraceLinkDynamics(_OptimalRateHistory):
    """Drive a link's bandwidth from a piecewise trace.

    ``bandwidth_trace`` is a sequence of ``(time, bandwidth_bps)`` pairs; each
    value takes effect at its time and holds until the next entry
    (piecewise-constant, like a cellular or rate-limiter capacity trace).
    """

    def __init__(self, sim: Simulator, link: Link,
                 bandwidth_trace: Sequence[Tuple[float, float]]):
        if not bandwidth_trace:
            raise ValueError("need a non-empty bandwidth trace")
        self.sim = sim
        self.link = link
        self._initial_bandwidth_bps = link.bandwidth_bps
        self.bandwidth_trace = sorted(bandwidth_trace, key=lambda e: e[0])
        self.history: List[Tuple[float, float, float, float]] = []
        self._started = False

    def start(self) -> None:
        """Schedule every trace entry."""
        if self._started:
            return
        self._started = True
        for time, bandwidth in self.bandwidth_trace:
            self.sim.schedule_at(time, self._apply_bandwidth, bandwidth)

    def _apply_bandwidth(self, bandwidth: float) -> None:
        self.link.set_bandwidth(bandwidth)
        self.history.append(
            (self.sim.now, self.link.bandwidth_bps, self.link.delay_s * 2.0,
             self.link.loss_rate)
        )


# --------------------------------------------------------------------------- #
# Bundled synthetic traces
# --------------------------------------------------------------------------- #
#: Names accepted by :func:`make_synthetic_trace`.
SYNTHETIC_TRACES = ("step", "sawtooth", "cellular")


def step_trace(
    low_bps: float,
    high_bps: float,
    period: float,
    duration: float,
) -> List[Tuple[float, float]]:
    """A square wave: ``high_bps`` and ``low_bps`` alternating every ``period``.

    Entry ``k`` is at ``k * period``: a running sum of periods drifts below
    ``duration`` and would add one last toggle at the end of the run.
    """
    if period <= 0 or duration <= 0:
        raise ValueError("period and duration must be positive")
    trace: List[Tuple[float, float]] = []
    k = 0
    while k * period < duration:
        trace.append((k * period, low_bps if k % 2 else high_bps))
        k += 1
    return trace


#: Entries per sawtooth cycle.
_SAWTOOTH_STEPS = 8


def sawtooth_trace(
    low_bps: float,
    high_bps: float,
    period: float,
    duration: float,
) -> List[Tuple[float, float]]:
    """A sawtooth: ramp from ``low_bps`` to ``high_bps`` in 8 increments over
    each ``period``, then drop back and ramp again."""
    if period <= 0 or duration <= 0:
        raise ValueError("period and duration must be positive")
    trace: List[Tuple[float, float]] = []
    cycle_start = 0.0
    while cycle_start < duration:
        for i in range(_SAWTOOTH_STEPS):
            time = cycle_start + i * period / _SAWTOOTH_STEPS
            if time >= duration:
                break
            trace.append((time, low_bps + (high_bps - low_bps) * i
                          / (_SAWTOOTH_STEPS - 1)))
        cycle_start += period
    return trace


#: The cellular walk moves every half second by a factor drawn from
#: [0.75, 1.25], from a fixed seed.
_CELLULAR_STEP = 0.5
_CELLULAR_SPREAD = 0.25
_CELLULAR_SEED = 0


def cellular_trace(mean_bps: float, duration: float) -> List[Tuple[float, float]]:
    """A cellular-like capacity trace: a bounded multiplicative random walk.

    Every half second the rate is multiplied by a factor drawn uniformly
    from ``[0.75, 1.25]`` and clamped to ``[mean_bps / 5, 2 * mean_bps]`` —
    the bursty, mean-reverting shape of an LTE downlink.  The walk uses its
    own :class:`random.Random` with a fixed seed, so a trace is a pure
    function of its arguments (simulator RNG draws are not consumed, which
    keeps sweep cells deterministic).
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    rng = random.Random(_CELLULAR_SEED)
    trace: List[Tuple[float, float]] = []
    rate = mean_bps
    k = 0
    while k * _CELLULAR_STEP < duration:
        trace.append((k * _CELLULAR_STEP, rate))
        rate *= rng.uniform(1.0 - _CELLULAR_SPREAD, 1.0 + _CELLULAR_SPREAD)
        rate = min(max(rate, mean_bps / 5.0), 2.0 * mean_bps)
        k += 1
    return trace


def make_synthetic_trace(
    name: str,
    peak_bps: float,
    duration: float,
) -> List[Tuple[float, float]]:
    """One of the bundled bandwidth traces, scaled to ``peak_bps``.

    ``"step"`` toggles between the peak and a quarter of it every eighth of the
    run; ``"sawtooth"`` ramps a quarter-to-peak cycle four times; ``"cellular"``
    walks around half the peak (:func:`cellular_trace`).
    """
    if name == "step":
        return step_trace(peak_bps / 4.0, peak_bps, duration / 8.0, duration)
    if name == "sawtooth":
        return sawtooth_trace(peak_bps / 4.0, peak_bps, duration / 4.0, duration)
    if name == "cellular":
        return cellular_trace(peak_bps / 2.0, duration)
    raise ValueError(
        f"unknown trace {name!r}; bundled traces: {', '.join(SYNTHETIC_TRACES)}"
    )
