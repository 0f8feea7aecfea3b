"""PCC: Performance-oriented Congestion Control (the paper's contribution).

The package decomposes exactly as Figure 2 of the paper does:

* :mod:`repro.core.monitor` — the Monitor module (monitor intervals, SACK
  aggregation into throughput / loss / RTT);
* :mod:`repro.core.utility` — pluggable utility functions (name registry via
  :func:`~repro.core.utility.make_utility`);
* :mod:`repro.core.controller` — the paper's three-state performance-oriented
  control module (starting / decision-making with RCTs / rate-adjusting);
* :mod:`repro.core.sender` — the glue that runs all of the above inside the
  network simulator's rate-paced sender.
"""

from ..schemes import register_scheme
from .metrics import MonitorIntervalStats
from .utility import (
    LatencyUtility,
    LossResilientUtility,
    SafeUtility,
    SimpleUtility,
    UtilityFunction,
    make_utility,
    register_utility,
    sigmoid,
    utility_names,
)
from .monitor import PerformanceMonitor
from .controller import ControllerState, MIPurpose, PCCController
from .sender import PCCScheme, make_pcc_sender

# PCC registers itself with the scheme registry at import time, exactly like
# the baselines in repro.cc: spawn-method sweep workers re-import this module
# before resolving scheme names.
register_scheme("pcc", PCCScheme, "rate",
                description="performance-oriented congestion control (the paper)")

__all__ = [
    "MonitorIntervalStats",
    "LatencyUtility",
    "LossResilientUtility",
    "SafeUtility",
    "SimpleUtility",
    "UtilityFunction",
    "make_utility",
    "register_utility",
    "utility_names",
    "sigmoid",
    "PerformanceMonitor",
    "ControllerState",
    "MIPurpose",
    "PCCController",
    "PCCScheme",
    "make_pcc_sender",
]
