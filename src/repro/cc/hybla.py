"""TCP Hybla congestion control.

Hybla (Caini & Firrincieli 2004) targets long-RTT satellite paths: it scales
the window-growth laws by ``rho = RTT / RTT0`` (with reference ``RTT0 = 25 ms``)
so that a flow with an 800 ms RTT grows its window as fast, in wall-clock
terms, as a 25 ms flow would.  Slow start adds ``2^rho - 1`` packets per ACK
and congestion avoidance adds ``rho^2 / cwnd`` per ACK.

The decrease side is untouched Reno: every loss still halves the window, which
is why Figure 6 of the paper shows Hybla reaching only a few percent of a lossy
satellite link's capacity.
"""

from __future__ import annotations

from .base import INITIAL_CWND, INITIAL_SSTHRESH, MIN_CWND, WindowController

__all__ = ["HyblaController"]

#: The reference RTT0 growth is normalised to, and the cap on rho.
_REFERENCE_RTT = 0.025
_MAX_RHO = 64.0


class HyblaController(WindowController):
    """TCP Hybla window dynamics with RTT-compensated growth."""

    def __init__(self) -> None:
        self.cwnd = INITIAL_CWND
        self.ssthresh = INITIAL_SSTHRESH
        self.rho = 1.0
        self._min_rtt = float("inf")

    def _update_rho(self, rtt: float) -> None:
        self._min_rtt = min(self._min_rtt, rtt)
        self.rho = max(1.0, min(_MAX_RHO, self._min_rtt / _REFERENCE_RTT))

    def on_ack(self, rtt: float, now: float) -> None:
        self._update_rho(rtt)
        if self.cwnd < self.ssthresh:
            # 2^rho - 1 additional segments per ACK; clamp the exponent so the
            # window cannot explode numerically on extreme RTTs, and _clamp()
            # holds the window to the receiver's MAX_CWND.
            increment = 2.0 ** min(self.rho, 16.0) - 1.0
            self.cwnd += increment
        else:
            self.cwnd += self.rho * self.rho / self.cwnd
        self._clamp()

    def on_loss(self, now: float) -> None:
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = self.ssthresh
        self._clamp()

    def on_timeout(self, now: float) -> None:
        self.ssthresh = max(self.cwnd / 2.0, 2.0)
        self.cwnd = MIN_CWND
