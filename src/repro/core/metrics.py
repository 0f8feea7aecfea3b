"""Monitor-interval statistics.

A PCC sender slices time into *monitor intervals* (MIs).  Every data packet is
tagged with the MI during which it was sent; as SACK feedback arrives, the
monitor aggregates per-packet outcomes into the per-MI performance metrics the
utility function consumes: throughput, loss rate and average RTT (§3.1 of the
paper).
"""

from __future__ import annotations

from typing import Optional

from ..units import BITS_PER_BYTE, BPS_PER_MBPS

__all__ = ["MonitorIntervalStats"]


class MonitorIntervalStats:
    """Aggregated outcome of one monitor interval."""

    __slots__ = (
        "mi_id",
        "target_rate_bps",
        "start_time",
        "send_end_time",
        "purpose",
        "packets_sent",
        "bytes_sent",
        "packets_acked",
        "bytes_acked",
        "packets_lost",
        "rtt_sum",
        "rtt_count",
        "first_ack_time",
        "last_ack_time",
        "send_phase_over",
        "completed",
        "utility",
        "complete_time",
    )

    def __init__(self, mi_id: int, target_rate_bps: float, start_time: float,
                 send_end_time: float, purpose: Optional[object] = None):
        self.mi_id = mi_id
        self.target_rate_bps = target_rate_bps
        self.start_time = start_time
        self.send_end_time = send_end_time
        #: Opaque tag set by the control algorithm (starting / trial / base / adjust).
        self.purpose = purpose
        self.packets_sent = 0
        self.bytes_sent = 0
        self.packets_acked = 0
        self.bytes_acked = 0
        self.packets_lost = 0
        self.rtt_sum = 0.0
        self.rtt_count = 0
        self.first_ack_time: Optional[float] = None
        self.last_ack_time: Optional[float] = None
        self.send_phase_over = False
        self.completed = False
        self.utility: Optional[float] = None
        self.complete_time: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def record_send(self, size_bytes: int) -> None:
        self.packets_sent += 1
        self.bytes_sent += size_bytes

    def record_ack(self, size_bytes: int, rtt: float,
                   ack_time: Optional[float] = None) -> None:
        self.packets_acked += 1
        self.bytes_acked += size_bytes
        if rtt > 0:
            self.rtt_sum += rtt
            self.rtt_count += 1
        if ack_time is not None:
            if self.first_ack_time is None:
                self.first_ack_time = ack_time
            self.last_ack_time = ack_time

    def record_loss(self) -> None:
        self.packets_lost += 1

    # ------------------------------------------------------------------ #
    # Derived metrics
    # ------------------------------------------------------------------ #
    @property
    def duration(self) -> float:
        """Length of the sending phase (seconds)."""
        return max(self.send_end_time - self.start_time, 1e-9)

    @property
    def accounted_packets(self) -> int:
        """Packets whose fate (delivered or lost) is known."""
        return self.packets_acked + self.packets_lost

    @property
    def all_packets_accounted(self) -> bool:
        """Whether every packet sent in this MI has been acked or declared lost."""
        return self.send_phase_over and self.accounted_packets >= self.packets_sent

    @property
    def loss_rate(self) -> float:
        """Fraction of this MI's packets that were lost (the paper's L)."""
        if self.packets_sent == 0:
            return 0.0
        return min(1.0, self.packets_lost / self.packets_sent)

    @property
    def throughput_bps(self) -> float:
        """Delivered rate the receiver actually experienced (bits per second).

        Measured over the span of ACK arrivals for this MI's packets: with an
        idle path this equals the sending rate, while with a standing queue it
        equals this flow's share of the bottleneck drain rate.  This matches
        the fluid model's T_i(x) = x_i (1 - L(x)) in both regimes, whereas
        dividing acked bytes by the MI duration would over-credit rates above
        capacity whenever a deep buffer absorbs the excess without loss.  Falls
        back to the duration-based estimate when fewer than two ACKs arrived.
        """
        if (
            self.first_ack_time is not None
            and self.last_ack_time is not None
            and self.packets_acked >= 2
        ):
            span = self.last_ack_time - self.first_ack_time
            if span > 1e-9:
                # The first ACK marks the start of the span, so it contributes
                # the starting point rather than delivered-bytes-per-span.
                per_packet = self.bytes_acked / self.packets_acked
                return (self.bytes_acked - per_packet) * BITS_PER_BYTE / span
        return self.bytes_acked * BITS_PER_BYTE / self.duration

    @property
    def sending_rate_bps(self) -> float:
        """Actually achieved sending rate over the MI (bits per second)."""
        return self.bytes_sent * BITS_PER_BYTE / self.duration

    @property
    def mean_rtt(self) -> float:
        """Average RTT of packets acknowledged from this MI (seconds)."""
        return self.rtt_sum / self.rtt_count if self.rtt_count else 0.0

    def force_account_missing_as_lost(self) -> None:
        """Treat still-unaccounted packets as lost (completion deadline expired)."""
        missing = self.packets_sent - self.accounted_packets
        if missing > 0:
            self.packets_lost += missing

    def is_empty(self) -> bool:
        """An MI in which nothing was sent (e.g. application-limited)."""
        return self.packets_sent == 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        utility = "None" if self.utility is None else f"{self.utility:.3f}"
        return (
            f"MI(id={self.mi_id}, rate={self.target_rate_bps / BPS_PER_MBPS:.2f} Mbps, "
            f"sent={self.packets_sent}, acked={self.packets_acked}, "
            f"lost={self.packets_lost}, u={utility})"
        )
