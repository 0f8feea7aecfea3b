"""Congestion-controller interfaces.

Two families of controllers drive the two sender types in
:mod:`repro.netsim.endpoints`:

:class:`WindowController`
    The classic TCP abstraction: the controller owns a congestion window
    (``cwnd``, measured in packets) and adjusts it in response to ACKs, loss
    events and timeouts.  This is the "hardwired mapping" architecture the
    paper critiques — a fixed function from packet-level events to control
    actions.

:class:`RateController`
    A sending-rate abstraction used by PCC and the other rate-based baselines
    (SABUL/UDT, PCP).  The controller owns a target rate in bits per second
    (``rate_bps``, an attribute the sender reads exactly as it reads ``cwnd``)
    and receives per-packet ACK/loss callbacks plus flow-start notification;
    a controller may add ``on_packet_sent`` (SABUL) or ``current_mi`` (PCC).

The senders are duck-typed, so these classes exist to document and enforce the
protocol (and to hold shared numeric guards), not for mandatory inheritance.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

__all__ = ["WindowController", "RateController", "MIN_CWND", "MAX_CWND",
           "MIN_RATE_BPS"]

#: Congestion windows never drop below this many packets.
MIN_CWND = 1.0

#: Nor grow past the receiver's window: Linux's default 6 MB ``tcp_rmem``
#: maximum over a 1448-byte MSS.  Without it Hybla's slow start at 800 ms
#: adds 2^16 - 1 packets per ACK, and the bottleneck drops the flood.
MAX_CWND = 4345.0

#: Every window controller starts a flow at two packets, in slow start with
#: no threshold (``ssthresh`` is set by the first loss).
INITIAL_CWND = 2.0
INITIAL_SSTHRESH = 1e9

#: Sending rates never drop below this (bits per second) so pacing timers stay sane.
MIN_RATE_BPS = 8_000.0

#: SABUL and PCP start every flow at this rate (bits per second).
INITIAL_RATE_BPS = 1_000_000.0


class WindowController(ABC):
    """Interface for window-based (TCP-style) congestion control."""

    #: Congestion window in packets.  Senders floor this at one packet.
    cwnd: float
    #: Slow-start threshold in packets.
    ssthresh: float

    @abstractmethod
    def on_ack(self, rtt: float, now: float) -> None:
        """One MSS-sized segment was acknowledged with round-trip time ``rtt``."""

    @abstractmethod
    def on_loss(self, now: float) -> None:
        """A loss event (at most one per window of data) was detected."""

    @abstractmethod
    def on_timeout(self, now: float) -> None:
        """The retransmission timer expired."""

    @property
    def in_slow_start(self) -> bool:
        """Whether the controller is still in the exponential-growth phase."""
        return self.cwnd < self.ssthresh

    def _clamp(self) -> None:
        if self.cwnd < MIN_CWND:
            self.cwnd = MIN_CWND
        elif self.cwnd > MAX_CWND:
            self.cwnd = MAX_CWND

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(cwnd={self.cwnd:.2f}, ssthresh={self.ssthresh:.2f})"


class RateController(ABC):
    """Interface for rate-based congestion control (PCC, SABUL, PCP).

    ``rate_bps`` is an attribute, like :attr:`WindowController.cwnd`: the
    controller writes it when it changes its rate and the sender reads it once
    per packet, so reading it must not compute anything that only moves
    once per control decision (PCC publishes it once per monitor interval;
    SABUL and PCP, whose rate moves on ACKs and losses, expose a read-only
    property that floors ``_rate_bps``).

    Two per-packet hooks are optional and absent here: ``on_packet_sent(
    record, now)`` (SABUL's SYN clock) and ``current_mi(now)`` (PCC's monitor
    interval, which tags the packet).  The sender resolves a hook a controller
    does not define to ``None`` once, so it costs no frame per packet.
    """

    #: Current target sending rate in bits per second.
    rate_bps: float

    @abstractmethod
    def on_ack(self, record, rtt: float, now: float) -> None:
        """The packet described by ``record`` was acknowledged."""

    @abstractmethod
    def on_loss(self, record, now: float) -> None:
        """The packet described by ``record`` was declared lost."""

    def on_flow_start(self, sender, now: float) -> None:
        """The owning sender started; ``sender`` gives access to path properties."""

    def on_timeout(self, expired, now: float) -> None:
        """The retransmission timer expired; ``expired`` lists the outstanding packets."""
        for record in expired:
            self.on_loss(record, now)

    @staticmethod
    def _floor_rate(rate: float) -> float:
        return max(rate, MIN_RATE_BPS)
