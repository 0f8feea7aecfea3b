"""Packet records used by the network simulator.

A :class:`Packet` is a mutable record (``__slots__`` for speed) describing one
segment or acknowledgement travelling through the simulated network.  Sequence
numbers are segment-granularity, matching how the PCC prototype and the TCP
models in this repository account for data: a flow of ``N`` bytes is split into
``ceil(N / mss)`` data segments, each carried by exactly one data packet per
transmission attempt.

Two identifiers are kept on purpose:

``data_seq``
    Which application segment this packet carries.  Retransmissions reuse the
    ``data_seq`` of the original segment.
``packet_id``
    A unique, monotonically increasing identifier per transmission attempt.
    Loss detection, RTT sampling and PCC monitor-interval accounting all key on
    ``packet_id`` so that a retransmission is never confused with its original.
"""

from __future__ import annotations

from typing import Optional

__all__ = ["Packet", "DEFAULT_MSS", "ACK_SIZE_BYTES"]

#: Default maximum segment size used throughout the experiments (bytes).
DEFAULT_MSS = 1500

#: Size of an acknowledgement packet on the wire (bytes).
ACK_SIZE_BYTES = 40


class Packet:
    """One packet (data segment or acknowledgement) in flight."""

    __slots__ = (
        "flow_id",
        "packet_id",
        "data_seq",
        "size_bytes",
        "is_ack",
        "sent_time",
        "enqueue_time",
        "route",
        "hop",
        "acked_packet_id",
        "acked_data_seq",
        "ack_sent_time",
        "mi_id",
        "is_retransmission",
        "is_probe",
        "ecn_marked",
        "ecn_echo",
    )

    def __init__(
        self,
        flow_id: int,
        packet_id: int,
        data_seq: int,
        size_bytes: int,
        sent_time: float,
        *,
        is_ack: bool = False,
        mi_id: Optional[int] = None,
        is_retransmission: bool = False,
        is_probe: bool = False,
    ):
        self.flow_id = flow_id
        self.packet_id = packet_id
        self.data_seq = data_seq
        self.size_bytes = size_bytes
        self.is_ack = is_ack
        self.sent_time = sent_time
        self.enqueue_time = sent_time
        self.route = None
        self.hop = 0
        # Fields used only on ACK packets, describing what is acknowledged.
        self.acked_packet_id = -1
        self.acked_data_seq = -1
        self.ack_sent_time = 0.0
        # PCC monitor interval this transmission belongs to (None for non-PCC flows).
        self.mi_id = mi_id
        self.is_retransmission = is_retransmission
        # Probe packets (e.g. PCP packet trains) carry no application data.
        self.is_probe = is_probe
        # ECN: a congested AQM sets ``ecn_marked`` on a data packet instead
        # of dropping it; the receiver echoes the mark back on the ACK via
        # ``ecn_echo`` so the sender's congestion response can react.
        self.ecn_marked = False
        self.ecn_echo = False

    def make_ack(self, packet_id: int, ack_size: int, now: float) -> "Packet":
        """Build the acknowledgement for this data packet.

        The ACK echoes the data packet's ``packet_id``, ``data_seq`` and send
        timestamp so that the sender can compute an exact RTT sample.
        """
        ack = Packet(self.flow_id, packet_id, self.data_seq, ack_size, now,
                     is_ack=True)
        ack.acked_packet_id = self.packet_id
        ack.acked_data_seq = self.data_seq
        ack.ack_sent_time = self.sent_time
        ack.is_probe = self.is_probe
        # Echo a congestion-experienced mark back to the sender (RFC 3168's
        # ECE signal, collapsed to a per-ACK boolean).
        ack.ecn_echo = self.ecn_marked
        return ack

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "ACK" if self.is_ack else "DATA"
        return (
            f"Packet({kind}, flow={self.flow_id}, pid={self.packet_id}, "
            f"seq={self.data_seq}, {self.size_bytes}B)"
        )
