"""The congestion-control scheme table.

The paper's central claim is architectural: congestion control should be a
pluggable decision layer, and evaluating a scheme means sweeping it against
every other scheme across many scenarios.  This module is the one place that
pluggability lives at the *scheme* level:

* ``_SCHEMES`` maps a name ("cubic", "pcc", ...) to a controller factory
  plus the **sender kind** — ``"windowed"`` (ack-clocked, drives
  :class:`~repro.netsim.endpoints.WindowedSender`), ``"rate"`` (rate-paced,
  drives :class:`~repro.netsim.endpoints.RateBasedSender`) or ``"bundle"``
  (expands into parallel windowed sub-flows) — that the experiment runner
  needs to build a flow;
* :func:`get_scheme` resolves a scheme name to its entry, and
  :func:`available_schemes` lists the names it accepts.

A scheme string is a name in the table, spelled exactly, and nothing more: a
PCC flow's utility is the cell's ``utility`` field and an ablation is
``controller_kwargs``.  Adding a scheme is one line in ``_SCHEMES``; it is
then usable, with no further edits, from
:func:`repro.experiments.run_flows`, a :class:`~repro.experiments.SweepGrid`
``schemes`` entry, and the ``python -m repro.experiments.sweep`` CLI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Literal

from .cc import (
    DEFAULT_BUNDLE_SIZE,
    CubicController,
    HyblaController,
    IllinoisController,
    NewRenoController,
    PacedRenoController,
    ParallelTcpBundle,
    PcpController,
    SabulController,
    VegasController,
    WestwoodController,
)
from .core import PCCScheme

__all__ = [
    "SchemeInfo",
    "available_schemes",
    "get_scheme",
]


@dataclass(frozen=True)
class SchemeInfo:
    """Everything the experiment runner needs to build a flow for a scheme."""

    #: The scheme's (lowercase) name in the table.
    name: str
    #: Constructs the controller object from the flow's controller kwargs:
    #:
    #: * ``"windowed"`` — ``factory(**kwargs)`` returns a window controller
    #:   for :class:`~repro.netsim.endpoints.WindowedSender`; pacing is taken
    #:   from the controller's ``requires_pacing`` attribute;
    #: * ``"rate"`` — ``factory(**kwargs)`` returns a rate controller for
    #:   :class:`~repro.netsim.endpoints.RateBasedSender`;
    #: * ``"bundle"`` — ``factory(**bundle_kwargs)`` returns an object with
    #:   ``scheme`` (the sub-flows' windowed scheme name) and
    #:   ``split_bytes(total)``; ``bundle_kwargs`` are exactly the keys of
    #:   ``kwarg_defaults``, and every *other* flow-spec kwarg is forwarded
    #:   to the sub-flow controllers.
    factory: Callable[..., Any]
    #: The sender machinery the controller plugs into.
    sender_kind: Literal["windowed", "rate", "bundle"]
    #: Declared controller kwargs merged *under* a flow spec's explicit
    #: kwargs.  For ``"bundle"`` schemes these keys are also the split between
    #: bundle-level kwargs (declared here, routed to the factory) and sub-flow
    #: controller kwargs (everything else).
    kwarg_defaults: Dict[str, Any] = field(default_factory=dict)


def _parallel_tcp_bundle(bundle_scheme: str = "cubic",
                         bundle_size: int = DEFAULT_BUNDLE_SIZE) -> ParallelTcpBundle:
    """Adapter mapping the flow-spec kwarg names onto the bundle descriptor."""
    return ParallelTcpBundle(scheme=bundle_scheme, bundle_size=bundle_size)


_SCHEMES: Dict[str, SchemeInfo] = {info.name: info for info in (
    SchemeInfo("pcc", PCCScheme, "rate"),
    SchemeInfo("reno", NewRenoController, "windowed"),
    SchemeInfo("newreno", NewRenoController, "windowed"),
    SchemeInfo("cubic", CubicController, "windowed"),
    SchemeInfo("illinois", IllinoisController, "windowed"),
    SchemeInfo("hybla", HyblaController, "windowed"),
    SchemeInfo("vegas", VegasController, "windowed"),
    SchemeInfo("westwood", WestwoodController, "windowed"),
    SchemeInfo("reno_paced", PacedRenoController, "windowed"),
    SchemeInfo("sabul", SabulController, "rate"),
    SchemeInfo("pcp", PcpController, "rate"),
    # The §4.3.1 selfish bundle of parallel TCP connections.
    SchemeInfo("parallel_tcp", _parallel_tcp_bundle, "bundle",
               {"bundle_scheme": "cubic", "bundle_size": DEFAULT_BUNDLE_SIZE}),
)}


def get_scheme(name: str) -> SchemeInfo:
    """Resolve a scheme name, spelled exactly, to its table entry."""
    try:
        return _SCHEMES[name]
    except KeyError:
        raise ValueError(
            f"unknown congestion-control scheme {name!r}; "
            f"known schemes: {', '.join(available_schemes())}"
        ) from None


def available_schemes() -> List[str]:
    """Every scheme name the experiment paths accept, sorted — the strings
    are directly usable in :class:`~repro.netsim.flows.FlowSpec`, grid scheme
    lists and the sweep CLI."""
    return sorted(_SCHEMES)
