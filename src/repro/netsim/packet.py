"""Packet records used by the network simulator.

A :class:`Packet` is a mutable record (``__slots__`` for speed) describing one
segment or acknowledgement travelling through the simulated network.  Sequence
numbers are segment-granularity, matching how the PCC prototype and the TCP
models in this repository account for data: a flow of ``N`` bytes is split into
``ceil(N / DEFAULT_MSS)`` data segments, each carried by exactly one data
packet per transmission attempt.

Two identifiers are kept on purpose:

``data_seq``
    Which application segment this packet carries.  Retransmissions reuse the
    ``data_seq`` of the original segment.
``packet_id``
    A unique, monotonically increasing identifier per transmission attempt.
    Loss detection and RTT sampling key on ``packet_id`` so that a
    retransmission is never confused with its original.

A PCC data packet also carries its monitor interval itself (``mi``), so the
per-packet hooks account it without a lookup.
"""

from __future__ import annotations

from typing import Any

__all__ = ["Packet", "DEFAULT_MSS", "ACK_SIZE_BYTES"]

#: The maximum segment size (bytes): every data packet carries this many,
#: and every sender, controller and the PCC monitor read this one constant.
DEFAULT_MSS = 1500

#: Size of an acknowledgement packet on the wire (bytes).
ACK_SIZE_BYTES = 40


class Packet:
    """One packet (data segment or acknowledgement) in flight.

    The endpoints build it with positional arguments only: one per packet,
    so keyword parsing would be a per-packet cost.
    """

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
        "ack_sent_time",
        "mi",
        "is_retransmission",
        "is_probe",
    )

    def __init__(
        self,
        flow_id: int,
        packet_id: int,
        data_seq: int,
        size_bytes: int,
        sent_time: float,
        is_ack: bool = False,
        mi: Any = None,
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
        self.ack_sent_time = 0.0
        # The PCC monitor interval (a MonitorIntervalStats) this transmission
        # belongs to; None for every other scheme.
        self.mi = mi
        self.is_retransmission = is_retransmission
        # Probe packets (e.g. PCP packet trains) carry no application data.
        self.is_probe = is_probe

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "ACK" if self.is_ack else "DATA"
        return (
            f"Packet({kind}, flow={self.flow_id}, pid={self.packet_id}, "
            f"seq={self.data_seq}, {self.size_bytes}B)"
        )
