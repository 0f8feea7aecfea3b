"""Shared lookup primitives for the name tables of the pluggable layers.

Schemes, utility functions, queue disciplines, topologies, workloads and
report specs are selected by JSON-serializable *name*: sweep cells cross
process boundaries carrying names, and every worker resolves them against
the same literal table, written once in the module that defines its
entries.  :func:`lookup` gives every table one error shape.

Queue disciplines, topologies and workloads are selected by a name *plus
keyword options* that become cell identity; :class:`KwargRegistry` is their
one table type.  A builder's options are the keyword parameters of its own
signature, so a default is written once, where the builder uses it.
"""

from __future__ import annotations

import inspect
import json
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Mapping, Tuple, TypeVar

__all__ = ["KwargRegistry", "lookup"]

T = TypeVar("T")


def lookup(table: Mapping[str, T], kind: str, name: str) -> T:
    """Resolve ``name`` in ``table``, listing the valid names when it is
    unknown."""
    try:
        return table[name]
    except KeyError:
        raise ValueError(
            f"unknown {kind} {name!r}; registered: {', '.join(sorted(table))}"
        ) from None


class KwargRegistry:
    """Names to builders called as ``builder(*context, **options)``.

    ``context`` names the leading positional parameters the registry's owner
    supplies on every call (``("sim", "cell")`` for a topology); every
    parameter after them is an option and must declare a JSON-serializable
    default, because the resolved options are recorded in cell identities.
    ``*args`` / ``**kwargs`` are refused, so a key no builder declared fails
    in :meth:`resolve` instead of vanishing into a sink.  Every builder is
    checked when the table is built, so a bad one fails at import.
    """

    def __init__(self, kind: str, kwargs_field: str,
                 context: Tuple[str, ...],
                 builders: Mapping[str, Callable[..., Any]]) -> None:
        self.kind = kind
        #: The cell field the options arrive in ("qdisc_kwargs", ...), named
        #: by the unknown-key error.
        self.kwargs_field = kwargs_field
        self.context = context
        self._entries: Dict[str, SimpleNamespace] = {
            name: SimpleNamespace(builder=builder,
                                  defaults=self._options(builder))
            for name, builder in builders.items()}

    def _options(self, builder: Callable[..., Any]) -> Dict[str, Any]:
        """The options ``builder`` declares, each with its default."""
        def refuse(why: str) -> TypeError:
            label = getattr(builder, "__qualname__", repr(builder))
            return TypeError(f"{self.kind} builder {label} {why}")

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
        return defaults

    def get(self, name: str) -> SimpleNamespace:
        """The entry for ``name``: its ``builder`` and option ``defaults``."""
        return lookup(self._entries, self.kind, name)

    def names(self) -> List[str]:
        """All names in the table, sorted."""
        return sorted(self._entries)

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
