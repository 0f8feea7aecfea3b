"""TCP CUBIC congestion control.

CUBIC (Ha, Rhee, Xu — the Linux default the paper benchmarks against) replaces
Reno's linear congestion-avoidance growth with a cubic function of the time
since the last loss event, anchored at the window size where that loss
occurred (``w_max``).  It also keeps a "TCP-friendly" Reno-equivalent estimate
and uses whichever window is larger.

This implementation follows RFC 8312: C = 0.4, beta = 0.7, fast convergence
enabled.  Like every member of the TCP family it still reduces its window on
*every* loss event, which is exactly what the paper exploits in the random-loss
and shallow-buffer experiments.
"""

from __future__ import annotations

from .base import (INITIAL_CWND, INITIAL_SSTHRESH, MAX_CWND, MIN_CWND,
                   WindowController)

__all__ = ["CubicController"]

#: RFC 8312's scaling constant C and multiplicative decrease beta.
_C = 0.4
_BETA = 0.7


class CubicController(WindowController):
    """RFC 8312 CUBIC window dynamics."""

    def __init__(self) -> None:
        self.cwnd = INITIAL_CWND
        self.ssthresh = INITIAL_SSTHRESH
        # Cubic state.
        self.w_max = 0.0
        self.w_last_max = 0.0
        self.k = 0.0
        self.epoch_start: float | None = None
        self.ack_count = 0
        self.w_tcp = 0.0

    # ------------------------------------------------------------------ #
    # This runs once per ACK, so the cubic target W(t + rtt) = C (t + rtt -
    # K)^3 + W_max, the TCP-friendly max and the MIN_CWND / MAX_CWND clamp
    # are written out in its frame.
    def on_ack(self, rtt: float, now: float) -> None:
        if self.cwnd < self.ssthresh:
            self.cwnd += 1.0
            if self.cwnd < MIN_CWND:
                self.cwnd = MIN_CWND
            elif self.cwnd > MAX_CWND:
                self.cwnd = MAX_CWND
            return
        if self.epoch_start is None:
            self.epoch_start = now
            self.ack_count = 0
            if self.cwnd < self.w_max:
                self.k = ((self.w_max - self.cwnd) / _C) ** (1.0 / 3.0)
            else:
                self.k = 0.0
                self.w_max = self.cwnd
            self.w_tcp = self.cwnd
        t = now - self.epoch_start
        target = _C * (t + rtt - self.k) ** 3 + self.w_max
        # TCP-friendly region (RFC 8312 §4.2): emulate Reno's average growth.
        self.ack_count += 1
        self.w_tcp += 3.0 * (1.0 - _BETA) / (1.0 + _BETA) / self.cwnd
        if self.w_tcp > target:
            target = self.w_tcp
        if target > self.cwnd:
            self.cwnd += (target - self.cwnd) / self.cwnd
        else:
            # Max-probing plateau: grow very slowly.
            self.cwnd += 0.01 / self.cwnd
        if self.cwnd < MIN_CWND:
            self.cwnd = MIN_CWND
        elif self.cwnd > MAX_CWND:
            self.cwnd = MAX_CWND

    def on_loss(self, now: float) -> None:
        self.epoch_start = None
        # Fast convergence (RFC 8312 §4.6): a flow whose window peaks lower
        # than last time releases bandwidth to newer flows.
        if self.cwnd < self.w_last_max:
            self.w_last_max = self.cwnd
            self.w_max = self.cwnd * (1.0 + _BETA) / 2.0
        else:
            self.w_last_max = self.cwnd
            self.w_max = self.cwnd
        self.cwnd = max(self.cwnd * _BETA, 2.0)
        self.ssthresh = self.cwnd
        self._clamp()

    def on_timeout(self, now: float) -> None:
        self.epoch_start = None
        self.w_max = self.cwnd
        self.ssthresh = max(self.cwnd * _BETA, 2.0)
        self.cwnd = 1.0
