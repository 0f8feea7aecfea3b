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
* :func:`register_scheme_variant` names a bundle of controller kwargs usable
  as a ``"<base>:<variant>"`` suffix (``"pcc:gradient"``, ``"pcc:latency"``);
* :class:`SchemeSpec` parses spec strings like ``"cubic"`` or
  ``"pcc:gradient"`` into ``(base, kwargs)``, validating both halves;
* :func:`available_schemes` lists every spec the experiment paths accept —
  base names *and* registered variants.

A scheme registered once here is usable, with no further edits, from
:func:`repro.experiments.run_flows`, a :class:`~repro.experiments.SweepGrid`
scheme spec, and the ``python -m repro.experiments.sweep`` CLI.

Like every :class:`~repro.registry.NameRegistry`, registration must happen at
module import time (top level of an imported module): sweep cells cross
process boundaries carrying only the scheme *name*, and ``spawn``-method
workers re-import modules from scratch before resolving it.

The built-in schemes register themselves when :mod:`repro.cc` (the TCP
family, SABUL/UDT, PCP, parallel bundles) and :mod:`repro.core` (PCC and its
variants) are imported; every lookup in this module imports both first, so
callers never observe a half-populated registry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .registry import NameRegistry

__all__ = [
    "SENDER_KINDS",
    "SchemeInfo",
    "SchemeSpec",
    "SchemeVariant",
    "available_schemes",
    "get_scheme",
    "register_scheme",
    "register_scheme_variant",
    "resolve_scheme_spec",
    "scheme_names",
    "scheme_variant_names",
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


@dataclass(frozen=True)
class SchemeVariant:
    """A named bundle of controller kwargs layered onto a base scheme."""

    base_scheme: str
    controller_kwargs: Dict[str, Any]
    description: str = ""


_SCHEMES: NameRegistry[SchemeInfo] = NameRegistry("scheme")
_VARIANTS: NameRegistry[SchemeVariant] = NameRegistry("scheme variant")

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

    Names must be lowercase (spec strings are lowercased before resolution)
    and must not contain ``":"`` (reserved for variant suffixes).
    Registration must happen at module import time so ``spawn``-method sweep
    workers can resolve the name.
    """
    if name != name.lower():
        raise ValueError(f"scheme names must be lowercase, got {name!r}")
    if ":" in name:
        raise ValueError(
            f"scheme names cannot contain ':', got {name!r} "
            f"(':' separates a base scheme from a registered variant)"
        )
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


def register_scheme_variant(
    name: str,
    controller_kwargs: Dict[str, Any],
    base_scheme: str = "pcc",
    description: str = "",
) -> None:
    """Register a scheme variant usable in specs as ``"<base>:<name>"``.

    A variant is a named bundle of JSON-serializable controller kwargs — a
    learning policy (``{"policy": "gradient"}``), a utility function
    (``{"utility": "latency"}``), an ablation switch (``{"use_rct": False}``)
    — layered onto ``base_scheme`` when the flow is built.  Sweep cells record
    the resolved kwargs in their identity JSON under ``scheme_kwargs``.  Like
    base schemes, variants must be registered at module import time so
    ``spawn``-method sweep workers can resolve them.
    """
    _VARIANTS.register(name, SchemeVariant(
        base_scheme=base_scheme,
        controller_kwargs=dict(controller_kwargs),
        description=description,
    ))


def get_scheme(name: str) -> SchemeInfo:
    """Resolve a base scheme name (no variant suffix) to its registry entry."""
    _ensure_builtins()
    try:
        return _SCHEMES.get(name)
    except ValueError:
        raise ValueError(
            f"unknown congestion-control scheme {name!r}; "
            f"known schemes: {', '.join(available_schemes())}"
        ) from None


def scheme_names() -> List[str]:
    """All registered *base* scheme names, sorted (no variant specs)."""
    _ensure_builtins()
    return _SCHEMES.names()


def scheme_variant_names() -> List[str]:
    """All registered scheme-variant names (the bare suffixes), sorted."""
    _ensure_builtins()
    return _VARIANTS.names()


def available_schemes() -> List[str]:
    """Every scheme spec the experiment paths accept.

    Both base names (``"pcc"``, ``"cubic"``) and registered variant specs
    (``"pcc:gradient"``, ``"pcc:latency"``) — the strings are directly usable
    in :class:`~repro.netsim.flows.FlowSpec`, grid scheme lists and the sweep
    CLI.
    """
    _ensure_builtins()
    specs = set(_SCHEMES.names())
    specs.update(
        f"{variant.base_scheme}:{name}" for name, variant in _VARIANTS.items()
    )
    return sorted(specs)


@dataclass(frozen=True)
class SchemeSpec:
    """A parsed scheme spec string: base scheme + resolved variant kwargs."""

    #: The normalized (lowercased) spec string, e.g. ``"pcc:gradient"``.
    spec: str
    #: The registered base scheme name, e.g. ``"pcc"``.
    base: str
    #: The variant suffix, or ``None`` for a plain base-scheme spec.
    variant: Optional[str]
    #: Controller kwargs the variant resolves to (empty for plain specs).
    kwargs: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def parse(cls, spec: str) -> "SchemeSpec":
        """Parse and validate ``"cubic"`` / ``"pcc:gradient"``-style specs.

        Unknown base schemes, unknown variants, and variants applied to the
        wrong base scheme all raise ``ValueError`` naming the valid options,
        so grids and flow specs fail at construction rather than mid-run.
        """
        _ensure_builtins()
        normalized = spec.strip().lower()
        base, sep, variant = normalized.partition(":")
        info = get_scheme(base)
        if not sep:
            return cls(spec=normalized, base=info.name, variant=None, kwargs={})
        variant_info = _VARIANTS.get(variant)
        if variant_info.base_scheme != base:
            raise ValueError(
                f"scheme variant {variant!r} applies to base scheme "
                f"{variant_info.base_scheme!r}, not {base!r}"
            )
        return cls(
            spec=normalized,
            base=info.name,
            variant=variant,
            kwargs=dict(variant_info.controller_kwargs),
        )

    def info(self) -> SchemeInfo:
        """The registry entry for this spec's base scheme."""
        return get_scheme(self.base)

    def recorded_kwargs(self) -> Dict[str, Any]:
        """The kwargs this spec fixes: the base scheme's declared defaults
        under the variant's — what cell identities record and flows run."""
        return {**self.info().kwarg_defaults, **self.kwargs}


def resolve_scheme_spec(spec: str) -> Tuple[str, Dict[str, Any]]:
    """Split a scheme spec into ``(base_scheme, controller_kwargs)``.

    A plain scheme name (``"pcc"``, ``"cubic"``) resolves to itself with no
    extra kwargs; ``"pcc:gradient"`` resolves via the variant registry.  This
    is the tuple-returning convenience over :meth:`SchemeSpec.parse`, kept for
    the historical ``repro.experiments.sweep`` call sites.
    """
    parsed = SchemeSpec.parse(spec)
    return parsed.base, dict(parsed.kwargs)
