"""Baseline congestion-control algorithms (the paper's comparison set).

Window-based TCP variants drive :class:`repro.netsim.endpoints.WindowedSender`;
rate-based protocols (SABUL/UDT, PCP) drive
:class:`repro.netsim.endpoints.RateBasedSender`.  PCC itself lives in
:mod:`repro.core`.
"""

from .base import MIN_CWND, MIN_RATE_BPS, RateController, WindowController
from .newreno import NewRenoController
from .cubic import CubicController
from .illinois import IllinoisController
from .hybla import HyblaController
from .vegas import VegasController
from .westwood import WestwoodController
from .pacing import PacedRenoController
from .parallel import DEFAULT_BUNDLE_SIZE, ParallelTcpBundle
from .sabul import SabulController
from .pcp import PcpController

__all__ = [
    "MIN_CWND",
    "MIN_RATE_BPS",
    "RateController",
    "WindowController",
    "NewRenoController",
    "CubicController",
    "IllinoisController",
    "HyblaController",
    "VegasController",
    "WestwoodController",
    "PacedRenoController",
    "DEFAULT_BUNDLE_SIZE",
    "ParallelTcpBundle",
    "SabulController",
    "PcpController",
]
