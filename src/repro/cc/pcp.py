"""PCP-style probe-based rate control.

PCP (Anderson et al., NSDI 2006) sets its sending rate from explicit
*probes* of the network: it emits short back-to-back packet trains ("packet
pair"/"packet train" probing, after Pathload) and infers available bandwidth
from the dispersion and one-way-delay trend of the returning ACKs.  If the
probed rate does not build queueing delay, PCP jumps its rate up toward the
probe estimate; if delay grows, it backs off.

The paper's critique (§5, §4.1.1) is that these probes embed fragile
assumptions about packet inter-arrival timing: ACK-path queueing, jitter from
middleboxes or virtualisation, and shallow buffers all corrupt the dispersion
estimate, so PCP systematically under- (or occasionally over-) estimates the
available rate — the paper measured 50–60 Mbps estimates on a clean 100 Mbps
link.  This implementation reproduces the mechanism: dispersion-based
estimation from a finite (hence noisy) train, a delay-increase check, and
multiplicative back-off when probes look congested.
"""

from __future__ import annotations

from ..units import BITS_PER_BYTE
from ..netsim.packet import DEFAULT_MSS
from .base import INITIAL_RATE_BPS, MIN_RATE_BPS, RateController

__all__ = ["PcpController"]

#: Seconds between probe trains, and packets per train.
_PROBE_INTERVAL = 0.2
_TRAIN_LENGTH = 8

#: Queueing-delay growth (seconds) above which a probe is "congested".
_DELAY_THRESHOLD = 0.003

#: Fraction of the way the rate moves toward a successful probe estimate.
_GAIN = 0.5


class PcpController(RateController):
    """Packet-train probing rate control in the style of PCP."""

    def __init__(self) -> None:
        self._rate_bps = INITIAL_RATE_BPS
        self._sender = None
        self._sim = None
        self._min_rtt = float("inf")
        # Per-train measurement state.
        self._train_acks: list[tuple[float, float]] = []  # (ack arrival, rtt)
        self._collecting = False

    # ------------------------------------------------------------------ #
    @property
    def rate_bps(self) -> float:
        return self._floor_rate(self._rate_bps)

    def on_flow_start(self, sender, now: float) -> None:
        self._sender = sender
        self._sim = sender.sim
        self._schedule_probe()

    def _schedule_probe(self) -> None:
        if self._sim is None:
            return
        self._sim.schedule(_PROBE_INTERVAL, self._send_probe_train)

    def _send_probe_train(self) -> None:
        if self._sender is None or self._sender.completed:
            return
        self._train_acks = []
        self._collecting = True
        self._sender.send_probe_train(_TRAIN_LENGTH)
        self._schedule_probe()

    # ------------------------------------------------------------------ #
    def on_ack(self, record, rtt: float, now: float) -> None:
        self._min_rtt = min(self._min_rtt, rtt)
        if record.is_probe and self._collecting:
            self._train_acks.append((now, rtt))
            if len(self._train_acks) >= _TRAIN_LENGTH:
                self._evaluate_train()

    def _evaluate_train(self) -> None:
        self._collecting = False
        acks = self._train_acks
        self._train_acks = []
        if len(acks) < 2:
            # Probes lost: treat as congestion.
            self._rate_bps *= 0.8
            return
        first_arrival, first_rtt = acks[0]
        last_arrival, last_rtt = acks[-1]
        dispersion = (last_arrival - first_arrival) / (len(acks) - 1)
        if dispersion <= 0:
            return
        estimate_bps = DEFAULT_MSS * BITS_PER_BYTE / dispersion
        delay_growth = last_rtt - first_rtt
        if delay_growth > _DELAY_THRESHOLD:
            # The probe built queue: assume we are at (or above) the available
            # rate and back off.
            self._rate_bps = max(self._rate_bps * 0.9, MIN_RATE_BPS)
        else:
            # Move toward the dispersion estimate.  The estimate reflects the
            # bottleneck service rate experienced by the train, which competing
            # traffic, ACK-path queueing and shallow buffers distort — exactly
            # the fragility the paper describes.
            target = min(estimate_bps, self._rate_bps * 4.0)
            self._rate_bps += _GAIN * (target - self._rate_bps)
            self._rate_bps = max(self._rate_bps, MIN_RATE_BPS)

    def on_loss(self, record, now: float) -> None:
        if record.is_probe:
            # A lost probe invalidates the train measurement.
            self._collecting = False
            return
        self._rate_bps = max(self._rate_bps * 0.95, MIN_RATE_BPS)
