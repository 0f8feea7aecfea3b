"""TCP Westwood+ congestion control.

Westwood (Mascolo et al. 2001) estimates the connection's achieved bandwidth
from the ACK stream and, on a loss, sets ``ssthresh`` to the estimated
bandwidth-delay product instead of blindly halving — "faster recovery" on lossy
wireless links.  It appears in the Figure 16 trade-off comparison.

The bandwidth estimate is an exponentially-filtered ACK rate sampled every
RTT, multiplied by the minimum observed RTT to obtain a window in packets.
"""

from __future__ import annotations

from .base import INITIAL_CWND, INITIAL_SSTHRESH, MIN_CWND, WindowController

__all__ = ["WestwoodController"]

#: Weight of the previous estimate in the bandwidth filter.
_FILTER_GAIN = 0.9


class WestwoodController(WindowController):
    """TCP Westwood+ window dynamics with ACK-rate bandwidth estimation."""

    def __init__(self) -> None:
        self.cwnd = INITIAL_CWND
        self.ssthresh = INITIAL_SSTHRESH
        self.min_rtt = float("inf")
        #: Filtered bandwidth estimate in packets per second.
        self.bandwidth_estimate_pps = 0.0
        self._acked_since_sample = 0
        self._sample_start = 0.0

    def _update_bandwidth(self, rtt: float, now: float) -> None:
        self.min_rtt = min(self.min_rtt, rtt)
        self._acked_since_sample += 1
        elapsed = now - self._sample_start
        if elapsed >= rtt and elapsed > 0:
            sample = self._acked_since_sample / elapsed
            if self.bandwidth_estimate_pps == 0.0:
                self.bandwidth_estimate_pps = sample
            else:
                self.bandwidth_estimate_pps = (
                    _FILTER_GAIN * self.bandwidth_estimate_pps
                    + (1.0 - _FILTER_GAIN) * sample
                )
            self._acked_since_sample = 0
            self._sample_start = now

    def _bdp_window(self) -> float:
        if self.min_rtt == float("inf"):
            return 2.0
        return max(self.bandwidth_estimate_pps * self.min_rtt, 2.0)

    def on_ack(self, rtt: float, now: float) -> None:
        self._update_bandwidth(rtt, now)
        if self.cwnd < self.ssthresh:
            self.cwnd += 1.0
        else:
            self.cwnd += 1.0 / self.cwnd
        self._clamp()

    def on_loss(self, now: float) -> None:
        self.ssthresh = self._bdp_window()
        if self.cwnd > self.ssthresh:
            self.cwnd = self.ssthresh
        self._clamp()

    def on_timeout(self, now: float) -> None:
        self.ssthresh = self._bdp_window()
        self.cwnd = MIN_CWND
