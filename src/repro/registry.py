"""Shared name-registry primitives for the pluggable layers.

Schemes and utility functions are selected by JSON-serializable *name*:
sweep cells cross process boundaries carrying names, and every worker
resolves them against its own registry.  That imposes one shared contract —
entries must be registered at module import time (top level of an imported
module), because ``spawn``-method workers re-import modules from scratch —
and one shared error shape, both implemented once here instead of once per
registry.

Queue disciplines, topologies and workloads are selected by a name *plus
keyword options* that become cell identity; :class:`KwargRegistry` is their
one registry.  A builder's options are the keyword parameters of its own
signature, so a default is written once, where the builder uses it.
"""

from __future__ import annotations

import inspect
import json
from types import SimpleNamespace
from typing import Any, Callable, Dict, Generic, List, Tuple, TypeVar

__all__ = ["KwargRegistry", "NameRegistry"]

T = TypeVar("T")


class NameRegistry(Generic[T]):
    """A write-once mapping from names to entries with uniform error text."""

    def __init__(self, kind: str) -> None:
        #: Human-readable entry kind used in error messages ("scheme", ...).
        self.kind = kind
        self._entries: Dict[str, T] = {}

    def register(self, name: str, entry: T) -> None:
        """Add ``entry`` under ``name``; duplicate names are an error."""
        if name in self._entries:
            raise ValueError(f"{self.kind} {name!r} is already registered")
        self._entries[name] = entry

    def get(self, name: str) -> T:
        """Resolve ``name``, listing the valid names when it is unknown."""
        try:
            return self._entries[name]
        except KeyError:
            raise ValueError(
                f"unknown {self.kind} {name!r}; registered: "
                f"{', '.join(self.names())}"
            ) from None

    def discard(self, name: str) -> None:
        """Remove ``name`` if present.

        Exists solely so import-time registration blocks can roll back after
        a failed import (a half-registered catalog would turn every retry
        into a duplicate-name error masking the original exception); it is
        not a license to mutate registries at runtime.
        """
        self._entries.pop(name, None)

    def names(self) -> List[str]:
        """All registered names, sorted."""
        return sorted(self._entries)

    def items(self) -> List[Tuple[str, T]]:
        """``(name, entry)`` pairs, sorted by name."""
        return [(name, self._entries[name]) for name in self.names()]

    def __contains__(self, name: str) -> bool:
        return name in self._entries


class KwargRegistry:
    """Names to builders called as ``builder(*context, **options)``.

    ``context`` names the leading positional parameters the registry's owner
    supplies on every call (``("sim", "cell")`` for a topology); every
    parameter after them is an option and must declare a JSON-serializable
    default, because the resolved options are recorded in cell identities.
    ``*args`` / ``**kwargs`` are refused, so a key no builder declared fails
    in :meth:`resolve` instead of vanishing into a sink.
    """

    def __init__(self, kind: str, kwargs_field: str,
                 context: Tuple[str, ...]) -> None:
        #: The cell field the options arrive in ("qdisc_kwargs", ...), named
        #: by the unknown-key error.
        self.kwargs_field = kwargs_field
        self.context = context
        self._entries: NameRegistry[SimpleNamespace] = NameRegistry(kind)

    def register(self, name: str, builder: Callable[..., Any],
                 **entry_fields: Any) -> None:
        """Add ``builder`` under ``name``, reading its options off its
        signature; ``entry_fields`` ride along as attributes of the entry
        :meth:`get` returns."""
        def refuse(why: str) -> TypeError:
            label = getattr(builder, "__qualname__", repr(builder))
            return TypeError(f"{self._entries.kind} builder {label} {why}")

        parameters = list(inspect.signature(builder).parameters.values())
        leading = parameters[:len(self.context)]
        if len(leading) < len(self.context) or any(
                p.kind not in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
                for p in leading):
            raise refuse(f"must take ({', '.join(self.context)}) as its "
                         f"leading positional parameters")
        defaults: Dict[str, Any] = {}
        for p in parameters[len(self.context):]:
            if p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD):
                raise refuse(f"takes {p}: every option must be a named "
                             f"parameter, so that unknown keys are rejected")
            if p.default is p.empty:
                raise refuse(f"declares option {p.name!r} without a default")
            try:
                json.dumps(p.default)
            except (TypeError, ValueError):
                raise refuse(
                    f"declares option {p.name!r} with the default "
                    f"{p.default!r}; resolved options are recorded in cell "
                    f"identities and must be JSON-serializable") from None
            defaults[p.name] = p.default
        self._entries.register(name, SimpleNamespace(
            builder=builder, defaults=defaults, **entry_fields))

    def get(self, name: str) -> SimpleNamespace:
        """The entry for ``name``: ``builder``, ``defaults`` and the fields
        it was registered with."""
        return self._entries.get(name)

    def names(self) -> List[str]:
        """All registered names, sorted."""
        return self._entries.names()

    def resolve(self, name: str, kwargs: Dict[str, Any]) -> Dict[str, Any]:
        """Merge ``kwargs`` over the builder's declared defaults, rejecting
        keys it never declared."""
        defaults: Dict[str, Any] = self.get(name).defaults
        unknown = set(kwargs) - set(defaults)
        if unknown:
            raise ValueError(
                f"unknown {self.kwargs_field} for {name!r}: {sorted(unknown)}"
            )
        return {**defaults, **kwargs}

    def build(self, name: str, /, *context: Any, **kwargs: Any) -> Any:
        """Call the builder with ``context`` and its resolved options."""
        return self.get(name).builder(*context, **self.resolve(name, kwargs))
