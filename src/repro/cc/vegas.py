"""TCP Vegas congestion control.

Vegas is the canonical delay-based scheme and one of the points in the
Figure 16 stability/reactiveness comparison.  It estimates the number of
packets the flow itself has queued at the bottleneck,

    diff = cwnd * (rtt - base_rtt) / rtt   [packets],

and once per RTT nudges the window up if ``diff < alpha`` (too little queue),
down if ``diff > beta`` (too much queue), and leaves it alone in between.
Losses are still treated as congestion (window halving), and a wrong
``base_rtt`` estimate — e.g. after a route change or when competing with a
loss-based flow that keeps the queue full — leads to the well-known
starvation behaviour.
"""

from __future__ import annotations

from .base import INITIAL_CWND, INITIAL_SSTHRESH, MIN_CWND, WindowController

__all__ = ["VegasController"]

#: Queue-occupancy targets in packets: grow below alpha, shrink above beta,
#: and leave slow start once the estimate passes gamma.
_ALPHA = 2.0
_BETA = 4.0
_GAMMA = 1.0


class VegasController(WindowController):
    """TCP Vegas window dynamics (alpha/beta queue-occupancy targets)."""

    def __init__(self) -> None:
        self.cwnd = INITIAL_CWND
        self.ssthresh = INITIAL_SSTHRESH
        self.base_rtt = float("inf")
        self._rtt_sum = 0.0
        self._rtt_count = 0
        self._round_end_time = 0.0
        self._slow_start_grow_this_round = True

    def _queue_estimate(self, avg_rtt: float) -> float:
        if avg_rtt <= 0 or self.base_rtt == float("inf"):
            return 0.0
        return self.cwnd * (avg_rtt - self.base_rtt) / avg_rtt

    def on_ack(self, rtt: float, now: float) -> None:
        self.base_rtt = min(self.base_rtt, rtt)
        self._rtt_sum += rtt
        self._rtt_count += 1
        if now < self._round_end_time:
            # Within a round: slow start still grows per-ACK on alternate rounds.
            if self.cwnd < self.ssthresh and self._slow_start_grow_this_round:
                self.cwnd += 1.0
                self._clamp()
            return
        # Round boundary: evaluate the Vegas estimator on this round's average RTT.
        avg_rtt = self._rtt_sum / self._rtt_count if self._rtt_count else rtt
        self._rtt_sum = 0.0
        self._rtt_count = 0
        self._round_end_time = now + rtt
        diff = self._queue_estimate(avg_rtt)
        if self.cwnd < self.ssthresh:
            if diff > _GAMMA:
                # Leave slow start: fall back to the window that kept queues small.
                self.ssthresh = min(self.ssthresh, self.cwnd)
                self.cwnd = max(self.cwnd - (diff - _GAMMA), 2.0)
            else:
                self._slow_start_grow_this_round = not self._slow_start_grow_this_round
                if self._slow_start_grow_this_round:
                    self.cwnd += 1.0
        else:
            if diff < _ALPHA:
                self.cwnd += 1.0
            elif diff > _BETA:
                self.cwnd -= 1.0
        self._clamp()

    def on_loss(self, now: float) -> None:
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = max(self.cwnd * 0.75, 2.0)
        self._clamp()

    def on_timeout(self, now: float) -> None:
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = MIN_CWND
