"""First-class congestion-control scheme registry.

The paper's central claim is architectural: congestion control should be a
pluggable decision layer, and evaluating a scheme means sweeping it against
every other scheme across many scenarios.  This module is the one place that
pluggability lives at the *scheme* level:

* :func:`register_scheme` maps a name ("cubic", "pcc", ...) to a controller
  factory plus the **sender kind** metadata — ``"windowed"`` (ack-clocked,
  drives :class:`~repro.netsim.endpoints.WindowedSender`), ``"rate"``
  (rate-paced, drives :class:`~repro.netsim.endpoints.RateBasedSender`;
  the factory receives ``mss``) or ``"bundle"`` (expands into parallel
  windowed sub-flows) — that the experiment runner needs to build a flow;
* :func:`get_scheme` resolves a scheme string (case-insensitively) to its
  entry, and :func:`available_schemes` lists the names it accepts.

A scheme string is a registered name and nothing more: a PCC flow's utility
is the cell's ``utility`` field and an ablation is ``controller_kwargs``.  A
scheme registered once here is usable, with no further edits, from
:func:`repro.experiments.run_flows`, a :class:`~repro.experiments.SweepGrid`
``schemes`` entry, and the ``python -m repro.experiments.sweep`` CLI.

Like every :class:`~repro.registry.NameRegistry`, registration must happen at
module import time (top level of an imported module): sweep cells cross
process boundaries carrying only the scheme *name*, and ``spawn``-method
workers re-import modules from scratch before resolving it.

The built-in schemes register themselves when :mod:`repro.cc` (the TCP
family, SABUL/UDT, PCP, parallel bundles) and :mod:`repro.core` (PCC) are
imported; every lookup in this module imports both first, so callers never
observe a half-populated registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from .registry import NameRegistry

__all__ = [
    "SENDER_KINDS",
    "SchemeInfo",
    "available_schemes",
    "get_scheme",
    "register_scheme",
]

#: The sender machinery a scheme's controller plugs into.
SENDER_KINDS = ("windowed", "rate", "bundle")


@dataclass(frozen=True)
class SchemeInfo:
    """Everything the experiment runner needs to build a flow for a scheme."""

    #: Registered (lowercase) scheme name.
    name: str
    #: Constructs the controller object from the flow's controller kwargs.
    #: ``"rate"`` factories additionally receive ``mss``; ``"bundle"``
    #: factories receive exactly the kwargs declared in ``kwarg_defaults`` and
    #: must return an object with ``scheme`` (the sub-flows' windowed scheme
    #: spec) and ``split_bytes(total)`` (per-sub-flow byte shares).
    factory: Callable[..., Any]
    #: One of :data:`SENDER_KINDS`.
    sender_kind: str
    #: Declared controller kwargs merged *under* a flow spec's explicit
    #: kwargs.  For ``"bundle"`` schemes these keys are also the split between
    #: bundle-level kwargs (declared here, routed to the factory) and sub-flow
    #: controller kwargs (everything else).
    kwarg_defaults: Dict[str, Any] = field(default_factory=dict)
    description: str = ""


_SCHEMES: NameRegistry[SchemeInfo] = NameRegistry("scheme")

_builtins_loaded = False


def _ensure_builtins() -> None:
    """Import the packages that register the built-in schemes.

    Registration is an import-time side effect of :mod:`repro.cc` and
    :mod:`repro.core`; forcing both before any lookup means callers never
    observe a half-populated registry.
    """
    global _builtins_loaded
    if _builtins_loaded:
        return
    # Set the flag before importing: the imports below call back into this
    # module (register_scheme / available_schemes in error paths), and the
    # guard keeps that re-entrancy from recursing.  A failed import resets it
    # so the real ImportError resurfaces on every lookup instead of leaving a
    # silently half-populated registry behind.
    _builtins_loaded = True
    try:
        from . import cc, core  # noqa: F401  (registration side effects)
    except BaseException:
        _builtins_loaded = False
        raise


def register_scheme(
    name: str,
    factory: Callable[..., Any],
    sender_kind: str,
    kwarg_defaults: Optional[Dict[str, Any]] = None,
    description: str = "",
) -> None:
    """Register a congestion-control scheme under ``name``.

    ``sender_kind`` tells the experiment runner which sender machinery the
    controller plugs into (see :data:`SENDER_KINDS`):

    * ``"windowed"`` — ``factory(**kwargs)`` returns a window controller for
      :class:`~repro.netsim.endpoints.WindowedSender`; pacing is taken from
      the controller's ``requires_pacing`` attribute;
    * ``"rate"`` — ``factory(mss=..., **kwargs)`` returns a rate controller
      for :class:`~repro.netsim.endpoints.RateBasedSender`;
    * ``"bundle"`` — ``factory(**bundle_kwargs)`` returns a bundle descriptor
      with ``scheme`` (the windowed scheme spec each sub-flow runs) and
      ``split_bytes(total)``; ``bundle_kwargs`` are exactly the keys declared
      in ``kwarg_defaults``, and every *other* flow-spec kwarg is forwarded to
      the sub-flow controllers.

    Names must be lowercase (scheme strings are lowercased before
    resolution).  Registration must happen at module import time so
    ``spawn``-method sweep workers can resolve the name.
    """
    if name != name.lower():
        raise ValueError(f"scheme names must be lowercase, got {name!r}")
    if sender_kind not in SENDER_KINDS:
        raise ValueError(
            f"unknown sender_kind {sender_kind!r} for scheme {name!r}; "
            f"expected one of {', '.join(SENDER_KINDS)}"
        )
    _SCHEMES.register(name, SchemeInfo(
        name=name,
        factory=factory,
        sender_kind=sender_kind,
        kwarg_defaults=dict(kwarg_defaults or {}),
        description=description,
    ))


def get_scheme(name: str) -> SchemeInfo:
    """Resolve a scheme string (case-insensitive) to its registry entry."""
    _ensure_builtins()
    try:
        return _SCHEMES.get(name.strip().lower())
    except ValueError:
        raise ValueError(
            f"unknown congestion-control scheme {name!r}; "
            f"known schemes: {', '.join(available_schemes())}"
        ) from None


def available_schemes() -> List[str]:
    """Every scheme name the experiment paths accept, sorted — the strings
    are directly usable in :class:`~repro.netsim.flows.FlowSpec`, grid scheme
    lists and the sweep CLI."""
    _ensure_builtins()
    return _SCHEMES.names()
