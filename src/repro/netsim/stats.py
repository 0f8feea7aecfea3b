"""Per-flow statistics and time series.

Every sender/receiver pair shares a :class:`FlowStats` object.  It accumulates
the counters needed to report the paper's metrics (throughput, goodput, loss
rate, average RTT, flow completion time) and keeps one time series,
``delivered_bins``: receiver-side delivered bytes binned into fixed-width
intervals, from which per-interval throughput, Jain's index over time scales
(Figure 13) and rate standard deviation (Figure 16) are computed.  Nothing a
flow keeps grows with the packets it sent, nor does a cell keep endpoints for
flows that finished: the :class:`FlowStats` is what is left of them.
"""

from __future__ import annotations

from typing import List, Optional

from ..units import BITS_PER_BYTE, Bps, Seconds

__all__ = ["BIN_WIDTH", "BinnedSeries", "SequenceTracker", "FlowStats", "RTTEstimator"]


#: Width of the delivered-bytes bins (seconds): every per-second series a
#: figure reads is one bin per entry.
BIN_WIDTH = 1.0

#: Upper bound on the retransmission timeout (seconds).
_MAX_RTO = 60.0


class BinnedSeries:
    """Values summed into :data:`BIN_WIDTH` time bins starting at t=0.

    ``_bins`` maps a bin index to its total.  The receiver writes it in its
    own frame: a packet delivered at time ``t`` adds its size to bin
    ``int(t / BIN_WIDTH)``.
    """

    def __init__(self) -> None:
        self._bins: dict[int, float] = {}

    def bin_values(self, start: float = 0.0, end: Optional[float] = None) -> List[float]:
        """Dense list of per-bin totals between ``start`` and ``end`` (inclusive bins)."""
        if not self._bins:
            return []
        first = int(start / BIN_WIDTH)
        last = int(end / BIN_WIDTH) if end is not None else max(self._bins)
        return [self._bins.get(i, 0.0) for i in range(first, last + 1)]


class SequenceTracker:
    """Tracks which sequence numbers have been seen, with bounded memory.

    Keeps the contiguous frontier (``next_expected``) plus the sparse set of
    out-of-order sequences above it, so memory stays proportional to the
    reordering window rather than the whole flow.  The endpoints record a new
    sequence number in place — the in-order one with nothing above it, or one
    above the frontier — test membership on ``next_expected`` and ``_above``
    directly, and call :meth:`add` for the rest (a duplicate, or the in-order
    one that closes a gap).
    """

    def __init__(self) -> None:
        self.next_expected = 0
        self._above: set[int] = set()
        self.count = 0
        self.duplicates = 0

    def add(self, seq: int) -> bool:
        """Record ``seq``; return ``True`` if it was new, ``False`` if duplicate."""
        if seq < self.next_expected or seq in self._above:
            self.duplicates += 1
            return False
        self.count += 1
        if seq == self.next_expected:
            # Closing a gap walks every sequence buffered above it: in locals.
            above = self._above
            seq += 1
            while seq in above:
                above.discard(seq)
                seq += 1
            self.next_expected = seq
        else:
            self._above.add(seq)
        return True

    def __contains__(self, seq: int) -> bool:
        return seq < self.next_expected or seq in self._above


class RTTEstimator:
    """RFC 6298 smoothed RTT, RTT variance and retransmission timeout.

    ``SenderBase.receive_ack`` folds each positive sample R in, by RFC 6298
    section 2: the first sets ``srtt = R``, ``rttvar = R / 2``; later ones
    ``rttvar = 3/4 rttvar + 1/4 |srtt - R|``, then ``srtt = 7/8 srtt + 1/8 R``;
    ``rto = srtt + max(4 rttvar, 1 ms)`` within ``[min_rto, _MAX_RTO]`` is a
    plain attribute the per-packet timer code reads.
    """

    def __init__(self, min_rto: float = 0.2, initial_rto: float = 1.0):
        self.srtt: Optional[float] = None
        self.rttvar: Optional[float] = None
        self.min_rto = min_rto
        #: Current retransmission timeout (seconds).
        self.rto = max(initial_rto, min_rto)


class FlowStats:
    """All counters and series for one flow.

    The endpoint that holds a packet writes the per-packet counters, the
    losses and ``delivered_bins`` in its own frame; this class only reads them.
    """

    def __init__(self, flow_id: int):
        self.flow_id = flow_id
        # Sender-side counters.
        self.packets_sent = 0
        self.bytes_sent = 0
        self.retransmissions = 0
        self.packets_acked = 0
        self.bytes_acked = 0
        self.packets_lost = 0
        self.timeouts = 0
        # Receiver-side counters (goodput).
        self.packets_delivered = 0
        self.bytes_delivered = 0
        self.unique_bytes_delivered = 0
        self.duplicate_packets = 0
        # RTT statistics.
        self.rtt_sum = 0.0
        self.rtt_count = 0
        # Lifetime.
        self.start_time: Optional[float] = None
        self.first_send_time: Optional[float] = None
        self.completion_time: Optional[float] = None
        # Time series.
        self.delivered_bins = BinnedSeries()

    # ------------------------------------------------------------------ #
    # Derived metrics
    # ------------------------------------------------------------------ #
    @property
    def mean_rtt(self) -> float:
        """Average RTT over all samples (seconds); 0 if no samples."""
        return self.rtt_sum / self.rtt_count if self.rtt_count else 0.0

    @property
    def loss_rate(self) -> float:
        """Sender-observed loss fraction (lost / sent)."""
        return self.packets_lost / self.packets_sent if self.packets_sent else 0.0

    def throughput_bps(self, duration: Seconds) -> Bps:
        """Sender-side throughput over ``duration`` seconds (bits per second)."""
        if duration <= 0:
            return 0.0
        return self.bytes_sent * BITS_PER_BYTE / duration

    def goodput_bps(self, duration: Seconds) -> Bps:
        """Receiver-side unique delivered bits per second over ``duration``."""
        if duration <= 0:
            return 0.0
        return self.unique_bytes_delivered * BITS_PER_BYTE / duration

    @property
    def flow_completion_time(self) -> Optional[float]:
        """Elapsed time from flow start to final segment ACK (finite flows only)."""
        if self.completion_time is None or self.start_time is None:
            return None
        return self.completion_time - self.start_time
