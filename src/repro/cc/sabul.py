"""SABUL / UDT-style rate control.

SABUL (and its successor UDT, the transport the PCC prototype is itself built
on) is a rate-based protocol widely used for bulk scientific data transfer and
one of the non-TCP baselines in Figures 4/5 and Table 1.  Its control loop has
two phases, mirroring the UDT draft (Gu & Grossman):

Slow start
    The rate ramps up multiplicatively until the first loss, at which point the
    sender falls back to the measured delivery rate and enters rate control.

DAIMD rate control
    Every ``SYN`` interval (10 ms) without a loss report the packets-per-SYN
    budget grows by an amount derived from the estimated spare capacity
    (``inc = max(10^ceil(log10(spare_bps)) * 1.5e-6 / MSS, 1/MSS)`` packets);
    each congestion event (first loss of a packet sent after the previous cut)
    multiplies the inter-packet period by 1.125, i.e. cuts the rate to ~0.89 of
    its value, and briefly freezes increases.

The link-capacity estimate uses the minimum observed inter-ACK spacing — the
sender-side analogue of UDT's receiver packet-pair estimate — so the sender
keeps probing up to (and past) the bottleneck rate.  The qualitative behaviour
the paper reports — aggressive overshoot of the bottleneck followed by deep
back-off, sustaining roughly 10% loss while keeping the link busy — emerges
from exactly this loop.  This is a documented simplification of UDT, not a
byte-exact port.
"""

from __future__ import annotations

import math

from ..units import BITS_PER_BYTE
from ..netsim.packet import DEFAULT_MSS
from .base import INITIAL_RATE_BPS, MIN_RATE_BPS, RateController

__all__ = ["SabulController"]

#: A congestion event multiplies the inter-packet period by this factor.
_DECREASE_FACTOR = 1.125

#: SYN intervals without a rate increase after a decrease.
_FREEZE_INTERVALS = 2

#: Multiplicative rate growth per slow-start round (one round = 10 SYNs).
_SLOW_START_GAIN = 2.0


class SabulController(RateController):
    """Slow start + DAIMD rate control in the style of SABUL/UDT."""

    SYN_INTERVAL = 0.01  # seconds, per the UDT specification

    def __init__(self) -> None:
        self._rate_bps = INITIAL_RATE_BPS
        self.in_slow_start = True
        # Capacity estimate from minimum inter-ACK spacing (packets per second).
        self._capacity_estimate_pps = 0.0
        self._last_ack_time: float | None = None
        # Delivery-rate estimate used when exiting slow start.
        self._acks_in_window = 0
        self._window_start = 0.0
        self._delivery_rate_pps = 0.0
        # Loss/increase bookkeeping.
        self._frozen_until = 0.0
        self._last_syn_time = 0.0
        self._last_slow_start_round = 0.0
        self._last_decrease_time = -1.0

    # ------------------------------------------------------------------ #
    @property
    def rate_bps(self) -> float:
        return self._floor_rate(self._rate_bps)

    def on_flow_start(self, sender, now: float) -> None:
        self._last_syn_time = now
        self._window_start = now
        self._last_slow_start_round = now

    # ------------------------------------------------------------------ #
    # Estimation
    # ------------------------------------------------------------------ #
    def _update_estimates(self, now: float) -> None:
        if self._last_ack_time is not None:
            gap = now - self._last_ack_time
            if gap > 1e-7:
                pair_estimate = 1.0 / gap
                # Keep the highest (tightest-spacing) estimate with mild decay,
                # mirroring how packet pairs reveal bottleneck capacity even
                # when the average sending rate is far below it.
                self._capacity_estimate_pps = max(
                    self._capacity_estimate_pps * 0.999, pair_estimate
                )
        self._last_ack_time = now
        self._acks_in_window += 1
        elapsed = now - self._window_start
        if elapsed >= 0.1:
            self._delivery_rate_pps = self._acks_in_window / elapsed
            self._acks_in_window = 0
            self._window_start = now

    # ------------------------------------------------------------------ #
    # Rate increase
    # ------------------------------------------------------------------ #
    def _syn_tick(self, now: float) -> None:
        """Apply the per-SYN (or per-slow-start-round) rate increase."""
        if self.in_slow_start:
            if now - self._last_slow_start_round >= 10 * self.SYN_INTERVAL:
                self._last_slow_start_round = now
                self._rate_bps *= _SLOW_START_GAIN
            return
        if now - self._last_syn_time < self.SYN_INTERVAL:
            return
        self._last_syn_time = now
        if now < self._frozen_until:
            return
        current_pps = self._rate_bps / (DEFAULT_MSS * BITS_PER_BYTE)
        # Aim slightly above the packet-pair capacity estimate so the sender
        # keeps probing past the bottleneck (the overshoot the paper describes).
        capacity_pps = max(self._capacity_estimate_pps * 1.05, current_pps * 1.02)
        spare_bps = max((capacity_pps - current_pps) * DEFAULT_MSS * BITS_PER_BYTE, 0.0)
        if spare_bps <= 0.0:
            extra_packets_per_syn = 1.0 / DEFAULT_MSS
        else:
            # UDT draft: inc = max(10^ceil(log10(spare_bps)) * Beta / MSS,
            # 1/MSS) packets per SYN, with Beta = 1.5e-6 and MSS in bytes.
            magnitude = 10.0 ** math.ceil(math.log10(spare_bps))
            extra_packets_per_syn = max(magnitude * 1.5e-6 / DEFAULT_MSS, 1.0 / DEFAULT_MSS)
        self._rate_bps += extra_packets_per_syn * DEFAULT_MSS * BITS_PER_BYTE / self.SYN_INTERVAL

    # ------------------------------------------------------------------ #
    # Feedback
    # ------------------------------------------------------------------ #
    def on_packet_sent(self, record, now: float) -> None:
        self._syn_tick(now)

    def on_ack(self, record, rtt: float, now: float) -> None:
        self._update_estimates(now)
        self._syn_tick(now)

    def on_loss(self, record, now: float) -> None:
        if self.in_slow_start:
            # Exit slow start at the measured delivery rate (or the capacity
            # estimate when no delivery-rate window has completed yet).
            self.in_slow_start = False
            fallback_pps = self._delivery_rate_pps or self._capacity_estimate_pps
            if fallback_pps > 0:
                self._rate_bps = fallback_pps * DEFAULT_MSS * BITS_PER_BYTE
            self._last_decrease_time = now
            self._frozen_until = now + _FREEZE_INTERVALS * self.SYN_INTERVAL
            return
        # UDT decreases once per congestion event: a loss only triggers a rate
        # cut if the lost packet was sent *after* the previous cut (losses of
        # packets already in flight at decrease time are part of the same event).
        if record is None or record.sent_time >= self._last_decrease_time:
            self._rate_bps = max(self._rate_bps / _DECREASE_FACTOR, MIN_RATE_BPS)
            self._last_decrease_time = now
            self._frozen_until = now + _FREEZE_INTERVALS * self.SYN_INTERVAL
