"""Baseline congestion-control algorithms (the paper's comparison set).

Window-based TCP variants drive :class:`repro.netsim.endpoints.WindowedSender`;
rate-based protocols (SABUL/UDT, PCP) drive
:class:`repro.netsim.endpoints.RateBasedSender`.  PCC itself lives in
:mod:`repro.core`.
"""

from ..schemes import register_scheme
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

def _parallel_tcp_bundle(bundle_scheme: str = "cubic",
                         bundle_size: int = DEFAULT_BUNDLE_SIZE) -> ParallelTcpBundle:
    """Adapter mapping the flow-spec kwarg names onto the bundle descriptor."""
    return ParallelTcpBundle(scheme=bundle_scheme, bundle_size=bundle_size)


# The comparison set registers itself with the scheme registry at import time
# (spawn-method sweep workers re-import this module before resolving names).
for _name, _controller in [
    ("reno", NewRenoController),
    ("newreno", NewRenoController),
    ("cubic", CubicController),
    ("illinois", IllinoisController),
    ("hybla", HyblaController),
    ("vegas", VegasController),
    ("westwood", WestwoodController),
    ("reno_paced", PacedRenoController),
]:
    register_scheme(_name, _controller, "windowed",
                    description=f"{_controller.__name__} (ack-clocked TCP variant)")
register_scheme("sabul", SabulController, "rate",
                description="SABUL/UDT rate-based transfer protocol")
register_scheme("pcp", PcpController, "rate",
                description="PCP probe-based rate control")
register_scheme("parallel_tcp", _parallel_tcp_bundle, "bundle",
                kwarg_defaults={"bundle_scheme": "cubic",
                                "bundle_size": DEFAULT_BUNDLE_SIZE},
                description="§4.3.1 selfish bundle of parallel TCP connections")

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
