"""PCC: Performance-oriented Congestion Control (the paper's contribution).

The package decomposes exactly as Figure 2 of the paper does:

* :mod:`repro.core.monitor` — the Monitor module (monitor intervals, SACK
  aggregation into throughput / loss / RTT);
* :mod:`repro.core.utility` — pluggable utility functions (a name table read
  by :func:`~repro.core.utility.make_utility`);
* :mod:`repro.core.controller` — the paper's three-state performance-oriented
  control module (starting / decision-making with RCTs / rate-adjusting);
* :mod:`repro.core.sender` — the glue that runs all of the above inside the
  network simulator's rate-paced sender.
"""

from .metrics import MonitorIntervalStats
from .utility import (
    LatencyUtility,
    LossResilientUtility,
    SafeUtility,
    SimpleUtility,
    UtilityFunction,
    make_utility,
    sigmoid,
    utility_names,
)
from .monitor import PerformanceMonitor
from .controller import ControllerState, MIPurpose, PCCController
from .sender import PCCScheme, make_pcc_sender

__all__ = [
    "MonitorIntervalStats",
    "LatencyUtility",
    "LossResilientUtility",
    "SafeUtility",
    "SimpleUtility",
    "UtilityFunction",
    "make_utility",
    "utility_names",
    "sigmoid",
    "PerformanceMonitor",
    "ControllerState",
    "MIPurpose",
    "PCCController",
    "PCCScheme",
    "make_pcc_sender",
]
