"""The inter-data-center experiment (Table 1).

The paper reserves 800 Mbps end-to-end on nine GENI/Internet2 site pairs and
compares PCC, SABUL, CUBIC and Illinois over 100-second transfers.  The key
property of those paths, called out explicitly in §4.1.2, is that the
bandwidth-reserving rate limiter has a *small buffer*: TCP repeatedly overflows
it and backs off, while PCC tracks the reserved rate.

We model each pair as a dedicated path whose bottleneck is a rate limiter with
a buffer of a handful of packets (the ``table1`` report spec lists one
single-flow sweep cell per pair and scheme).  Bandwidth is scaled down from
800 Mbps to keep pure-Python packet simulation tractable; the RTTs are the
paper's measured values.  EXPERIMENTS.md records the scaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

__all__ = ["InterDCPair", "PAPER_PAIRS"]


@dataclass
class InterDCPair:
    """One sender/receiver site pair from Table 1."""

    name: str
    rtt: float  # seconds
    paper_throughput_mbps: Dict[str, float]


#: The nine transfers of Table 1 with the paper's measured throughputs (Mbps).
PAPER_PAIRS: List[InterDCPair] = [
    InterDCPair("GPO -> NYSERNet", 0.0121,
                {"pcc": 818, "sabul": 563, "cubic": 129, "illinois": 326}),
    InterDCPair("GPO -> Missouri", 0.0465,
                {"pcc": 624, "sabul": 531, "cubic": 80.7, "illinois": 90.1}),
    InterDCPair("GPO -> Illinois", 0.0354,
                {"pcc": 766, "sabul": 664, "cubic": 84.5, "illinois": 102}),
    InterDCPair("NYSERNet -> Missouri", 0.0474,
                {"pcc": 816, "sabul": 662, "cubic": 108, "illinois": 109}),
    InterDCPair("Wisconsin -> Illinois", 0.00901,
                {"pcc": 801, "sabul": 700, "cubic": 547, "illinois": 562}),
    InterDCPair("GPO -> Wisc.", 0.0380,
                {"pcc": 783, "sabul": 487, "cubic": 79.3, "illinois": 120}),
    InterDCPair("NYSERNet -> Wisc.", 0.0383,
                {"pcc": 791, "sabul": 673, "cubic": 134, "illinois": 134}),
    InterDCPair("Missouri -> Wisc.", 0.0209,
                {"pcc": 807, "sabul": 698, "cubic": 259, "illinois": 262}),
    InterDCPair("NYSERNet -> Illinois", 0.0361,
                {"pcc": 808, "sabul": 674, "cubic": 141, "illinois": 141}),
]
