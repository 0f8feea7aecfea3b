"""TCP Illinois congestion control.

Illinois (Liu, Başar, Srikant 2008) is a loss-and-delay hybrid: the window
still shrinks multiplicatively on every loss, but the *additive increase*
``alpha`` and *multiplicative decrease* ``beta`` are continuous functions of
the measured queueing delay.  Near-empty queues give the maximum ``alpha`` (10
packets per RTT) and minimum ``beta`` (1/8); a nearly full queue gives
``alpha = 0.3`` and ``beta = 1/2``.

The paper's §4.1.4 highlights Illinois' catastrophic collapse under random
loss and under rapidly changing conditions: because a loss always triggers a
window decrease, even a 0.7% random-loss link cuts its throughput by an order
of magnitude.  This implementation follows the published algorithm's shape
(alpha/beta curves, delay thresholds expressed as fractions of the maximum
observed queueing delay).
"""

from __future__ import annotations

from .base import INITIAL_CWND, INITIAL_SSTHRESH, MIN_CWND, WindowController

__all__ = ["IllinoisController"]

#: Bounds of the additive increase (packets per RTT) and of the
#: multiplicative decrease.
_ALPHA_MAX = 10.0
_ALPHA_MIN = 0.3
_BETA_MIN = 0.125
_BETA_MAX = 0.5

#: Below this window size Illinois behaves like Reno (alpha=1, beta=1/2).
_WINDOW_THRESHOLD = 15


class IllinoisController(WindowController):
    """TCP Illinois window dynamics with delay-adaptive alpha/beta."""

    def __init__(self) -> None:
        self.cwnd = INITIAL_CWND
        self.ssthresh = INITIAL_SSTHRESH
        self.base_rtt = float("inf")
        self.max_rtt = 0.0
        self._alpha = 1.0
        self._beta = _BETA_MAX
        # Per-RTT averaging of RTT samples.
        self._rtt_sum = 0.0
        self._rtt_count = 0
        self._round_end_time = 0.0

    # ------------------------------------------------------------------ #
    # Delay-adaptive parameters
    # ------------------------------------------------------------------ #
    def _update_parameters(self) -> None:
        if self._rtt_count == 0:
            return
        avg_rtt = self._rtt_sum / self._rtt_count
        self._rtt_sum = 0.0
        self._rtt_count = 0
        max_queue_delay = self.max_rtt - self.base_rtt
        if max_queue_delay <= 0:
            self._alpha = _ALPHA_MAX
            self._beta = _BETA_MIN
            return
        queue_delay = max(avg_rtt - self.base_rtt, 0.0)
        d1 = 0.01 * max_queue_delay
        # alpha: alpha_max below d1, then a hyperbolic decrease to alpha_min at dm.
        if queue_delay <= d1:
            self._alpha = _ALPHA_MAX
        else:
            k1 = (max_queue_delay - d1) * _ALPHA_MIN * _ALPHA_MAX / (
                _ALPHA_MAX - _ALPHA_MIN
            )
            k2 = k1 / _ALPHA_MAX - d1
            self._alpha = max(_ALPHA_MIN, min(_ALPHA_MAX, k1 / (k2 + queue_delay)))
        # beta: beta_min below d2, beta_max above d3, linear in between.
        d2 = 0.1 * max_queue_delay
        d3 = 0.8 * max_queue_delay
        if queue_delay <= d2:
            self._beta = _BETA_MIN
        elif queue_delay >= d3:
            self._beta = _BETA_MAX
        else:
            k3 = (_BETA_MIN * d3 - _BETA_MAX * d2) / (d3 - d2)
            k4 = (_BETA_MAX - _BETA_MIN) / (d3 - d2)
            self._beta = max(_BETA_MIN, min(_BETA_MAX, k3 + k4 * queue_delay))
        if self.cwnd < _WINDOW_THRESHOLD:
            self._alpha = 1.0
            self._beta = _BETA_MAX

    @property
    def alpha(self) -> float:
        """Current additive-increase parameter (packets per RTT)."""
        return self._alpha

    @property
    def beta(self) -> float:
        """Current multiplicative-decrease parameter."""
        return self._beta

    # ------------------------------------------------------------------ #
    def on_ack(self, rtt: float, now: float) -> None:
        self.base_rtt = min(self.base_rtt, rtt)
        self.max_rtt = max(self.max_rtt, rtt)
        self._rtt_sum += rtt
        self._rtt_count += 1
        if now >= self._round_end_time:
            self._update_parameters()
            self._round_end_time = now + rtt
        if self.cwnd < self.ssthresh:
            self.cwnd += 1.0
        else:
            self.cwnd += self._alpha / self.cwnd
        self._clamp()

    def on_loss(self, now: float) -> None:
        self.ssthresh = max(self.cwnd * (1.0 - self._beta), 2.0)
        self.cwnd = self.ssthresh
        self._clamp()

    def on_timeout(self, now: float) -> None:
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = MIN_CWND
        self._alpha = 1.0
        self._beta = _BETA_MAX
