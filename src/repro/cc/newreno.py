"""TCP New Reno congestion control.

The textbook loss-based algorithm and the reference point for the paper's
architectural critique: slow start doubles the window every RTT, congestion
avoidance adds one packet per RTT, and *any* loss event halves the window —
regardless of whether the loss was congestive, a shallow-buffer overflow or
random corruption.
"""

from __future__ import annotations

from .base import INITIAL_CWND, INITIAL_SSTHRESH, MIN_CWND, WindowController

__all__ = ["NewRenoController"]

#: Multiplicative decrease on a loss event: Reno halves its window.
_BETA = 0.5


class NewRenoController(WindowController):
    """Classic Reno/New Reno window dynamics (RFC 5681 congestion avoidance)."""

    def __init__(self) -> None:
        self.cwnd = INITIAL_CWND
        self.ssthresh = INITIAL_SSTHRESH

    def on_ack(self, rtt: float, now: float) -> None:
        if self.cwnd < self.ssthresh:
            # Slow start: one packet per ACK doubles the window every RTT.
            self.cwnd += 1.0
        else:
            # Congestion avoidance: one packet per RTT.
            self.cwnd += 1.0 / self.cwnd
        self._clamp()

    def on_loss(self, now: float) -> None:
        self.ssthresh = max(self.cwnd * _BETA, 2.0)
        self.cwnd = self.ssthresh
        self._clamp()

    def on_timeout(self, now: float) -> None:
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = MIN_CWND
