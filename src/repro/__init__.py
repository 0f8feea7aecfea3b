"""Reproduction of PCC (Dong et al., NSDI 2015): performance-oriented congestion control.

The source paper is "PCC: Re-architecting Congestion Control for Consistent
High Performance" (Dong, Li, Zarchy, Godfrey, Schapira — NSDI 2015).

Packages
--------
``repro.netsim``
    Packet-level discrete-event network simulator (links, queues/AQMs, routes,
    ack-clocked and rate-paced senders, workload generators).
``repro.cc``
    The baseline congestion controllers the paper compares against: the TCP
    family (New Reno, CUBIC, Illinois, Hybla, Vegas, Westwood, paced Reno,
    parallel bundles) and the rate-based SABUL/UDT and PCP.
``repro.schemes``
    The scheme table: every congestion-control scheme is one line (a factory
    plus its sender kind), and is then usable from ``run_flows``, sweep grids
    and the sweep CLI with no further edits.
``repro.core``
    PCC itself: monitor intervals, utility functions, and the learning
    control algorithm (starting / decision with RCTs / rate adjusting).
``repro.analysis``
    The §2.2 game-theoretic fluid model (Theorems 1 and 2) plus measurement
    analysis (Jain's index, convergence time, power, FCT statistics).
``repro.experiments``
    Scenario builders, the experiment runner, the sweep subsystem and the
    streaming/resumable ``ResultSet`` API used by the examples and the
    report layer.
``repro.report``
    The declarative report layer: every paper figure/table as a spec in one
    catalog, regenerated by ``python -m repro.report`` into the REPORT.md claim
    ledger.
"""

__version__ = "1.0.0"

__all__ = ["netsim", "cc", "schemes", "core", "analysis", "experiments",
           "report", "__version__"]
