"""``repro.devtools.units`` — the whole-program units-of-measure pass.

Every figure and claim verdict in this repo is arithmetic over quantities in
several unit conventions: rates in bits/s (``_bps``) and megabits/s
(``_mbps``), sizes in bytes (``_bytes``) and bits, times in seconds (``_s``)
and milliseconds (``_ms``).  A single bits/bytes or s/ms slip silently
corrupts every downstream number, and nothing at runtime can notice — the
arithmetic is perfectly legal Python.  :func:`check_program` makes the unit
contracts machine-checked; ``python -m repro.devtools.lint`` runs it next to
the per-module rules, over the same parsed trees and suppression table.

The pass uses stdlib ``ast`` only and never imports the checked code.  It
infers a *dimension* (rate, size, time, dimensionless) and *scale* (bps vs
Mbps, bits vs bytes, s vs ms) for every expression from

* name suffixes (``rtt_ms``, ``bandwidth_bps``, ``buffer_bytes``, ...; every
  spelling of a unit, ``_s``/``_sec``/``_seconds`` alike) and the ``bytes_``
  prefix family (``bytes_sent``, ``bytes_queued``),
* ``Annotated`` unit aliases from :mod:`repro.units` in parameter,
  return and variable annotations (``Bps``, ``Seconds``, ...),
* the named conversion constants (``BITS_PER_BYTE``, ``BPS_PER_MBPS``,
  ``MS_PER_S``, ``BYTES_PER_KB``), which are the only sanctioned way to
  change scale, and
* a function-level call graph across all checked files, so a call's return
  unit flows from its definition (``flow.goodput_bps(...)`` is a rate in
  bits/s wherever the call appears).
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

__all__ = [
    "CODES",
    "UnitInfo",
    "check_program",
]

#: The codes :func:`check_program` reports.
CODES = ("RPL011", "RPL012", "RPL013", "RPL014", "RPL015")

#: One finding as ``(path, line, col, code, message)``.
RawFinding = Tuple[str, int, int, str, str]

#: One parsed module as ``(path, tree)``.
ParsedFile = Tuple[str, ast.Module]


# --------------------------------------------------------------------------
# The unit algebra.
#
# A unit is a pair of base-dimension exponents (bits, seconds) plus a scale
# factor mapping the carried numeric value onto the base unit:
#
#     base_quantity = value * scale
#
# so bps is (bits=1, seconds=-1, scale=1), Mbps is the same dimension at
# scale 1e6, bytes is (bits=1, seconds=0, scale=8) and ms is (bits=0,
# seconds=1, scale=1e-3).  Multiplying two units adds exponents and
# multiplies scales; multiplying by a *conversion constant* divides the
# scale instead (the value grew, the quantity did not), which is exactly
# what makes ``x_mbps * BPS_PER_MBPS`` come out as bps and
# ``size_bytes * BITS_PER_BYTE / duration_s`` come out as bps too.


@dataclass(frozen=True)
class UnitInfo:
    """An inferred unit: dimension exponents over (bits, seconds) + scale."""

    bits: int
    seconds: int
    scale: float
    label: str

    def same_dimension(self, other: "UnitInfo") -> bool:
        return self.bits == other.bits and self.seconds == other.seconds

    def same_unit(self, other: "UnitInfo") -> bool:
        return (self.same_dimension(other)
                and math.isclose(self.scale, other.scale, rel_tol=1e-9))

    @property
    def dimensionless(self) -> bool:
        return self.bits == 0 and self.seconds == 0

    def mul(self, other: "UnitInfo") -> "UnitInfo":
        return _canonical(self.bits + other.bits, self.seconds + other.seconds,
                          self.scale * other.scale)

    def div(self, other: "UnitInfo") -> "UnitInfo":
        return _canonical(self.bits - other.bits, self.seconds - other.seconds,
                          self.scale / other.scale)

    def rescaled(self, factor: float) -> "UnitInfo":
        """The unit after the carried value was multiplied by ``factor``."""
        return _canonical(self.bits, self.seconds, self.scale / factor)


BPS = UnitInfo(1, -1, 1.0, "bps")
MBPS = UnitInfo(1, -1, 1e6, "Mbps")
GBPS = UnitInfo(1, -1, 1e9, "Gbps")
BITS = UnitInfo(1, 0, 1.0, "bits")
BYTES = UnitInfo(1, 0, 8.0, "bytes")
KB = UnitInfo(1, 0, 8000.0, "KB")  # repro-lint: disable=RPL004 unit-table scale (bits per KB), not a rate floor
SECONDS = UnitInfo(0, 1, 1.0, "s")
MS = UnitInfo(0, 1, 1e-3, "ms")
US = UnitInfo(0, 1, 1e-6, "us")
COUNT = UnitInfo(0, 0, 1.0, "count")

#: Canonical named units, for pretty labels.
_NAMED_UNITS = (BPS, MBPS, GBPS, BITS, BYTES, KB, SECONDS, MS, US, COUNT)


def _canonical(bits: int, seconds: int, scale: float) -> UnitInfo:
    """Build a unit, reusing the canonical label when one matches."""
    for known in _NAMED_UNITS:
        if (known.bits == bits and known.seconds == seconds
                and math.isclose(known.scale, scale, rel_tol=1e-9)):
            return known
    return UnitInfo(bits=bits, seconds=seconds, scale=scale,
                    label=f"<bits^{bits}·s^{seconds}·x{scale:g}>")


#: Suffix → unit.  Longest suffix wins; matching is done on the lower-cased
#: name so ``MIN_RATE_BPS`` and ``min_rate_bps`` agree.  Every spelling of a
#: unit is listed, so ``rtt_sec + delay_ms`` is a unit mismatch.
_SUFFIX_UNITS: Dict[str, UnitInfo] = {
    "_bps": BPS,
    "_mbps": MBPS,
    "_gbps": GBPS,
    "_bytes": BYTES,
    "_bits": BITS,
    "_kb": KB,
    "_s": SECONDS,
    "_sec": SECONDS,
    "_secs": SECONDS,
    "_seconds": SECONDS,
    "_ms": MS,
    "_msec": MS,
    "_msecs": MS,
    "_millis": MS,
    "_us": US,
    "_usec": US,
    "_usecs": US,
    "_packets": COUNT,
    "_pkts": COUNT,
}

#: Named conversion constants (repro.units) → the factor the carried
#: value is multiplied by.  ``x * FACTOR`` divides the scale; ``x / FACTOR``
#: multiplies it.
_CONVERSION_CONSTANTS: Dict[str, float] = {
    "BITS_PER_BYTE": 8.0,
    "BPS_PER_MBPS": 1e6,
    "BPS_PER_GBPS": 1e9,
    "MS_PER_S": 1000.0,
    "BYTES_PER_KB": 1000.0,
}

#: Bare literals that smell like unit conversions when multiplied into a
#: unit-carrying expression (RPL014).  Anything else (0.5, 2.0, 10.0 ...)
#: is ordinary arithmetic and leaves the unit unchanged.
_CONVERSION_LITERALS: Dict[float, str] = {
    8.0: "BITS_PER_BYTE",
    1e3: "MS_PER_S (time) / BYTES_PER_KB (size)",
    1e-3: "MS_PER_S (divide instead of multiplying by 1e-3)",
    1e6: "BPS_PER_MBPS",
    1e-6: "BPS_PER_MBPS (divide instead of multiplying by 1e-6)",
    1e9: "BPS_PER_GBPS",
}

#: Unit aliases from repro.units recognised in annotations.
_ANNOTATION_UNITS: Dict[str, UnitInfo] = {
    "Bps": BPS,
    "Mbps": MBPS,
    "Gbps": GBPS,
    "Bytes": BYTES,
    "Bits": BITS,
    "Seconds": SECONDS,
    "Ms": MS,
    "Packets": COUNT,
}


def suffix_unit(name: str) -> Optional[UnitInfo]:
    """The unit implied by ``name``'s suffix/prefix, or ``None``.

    Compound per-something names (``power_gbps_per_s``, ``packets_per_mi``)
    are left unknown rather than mis-read from their final component.
    """
    lowered = name.lower()
    if "_per_" in lowered or not lowered.strip("_"):
        return None
    if lowered.startswith("bytes_") or lowered.startswith("_bytes_"):
        return BYTES
    best: Optional[Tuple[int, UnitInfo]] = None
    for suffix, unit in _SUFFIX_UNITS.items():
        if lowered.endswith(suffix) and len(lowered) > len(suffix):
            if best is None or len(suffix) > best[0]:
                best = (len(suffix), unit)
    return best[1] if best is not None else None


def annotation_unit(node: Optional[ast.expr]) -> Optional[UnitInfo]:
    """The unit named by an annotation expression, if it is a unit alias.

    Recognises ``Bps``, ``units.Bps``, ``Optional[Seconds]`` and string
    annotations ``"Bps"`` (postponed evaluation).
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value.strip()
        return _ANNOTATION_UNITS.get(name.rsplit(".", 1)[-1])
    if isinstance(node, ast.Name):
        return _ANNOTATION_UNITS.get(node.id)
    if isinstance(node, ast.Attribute):
        return _ANNOTATION_UNITS.get(node.attr)
    if isinstance(node, ast.Subscript):  # Optional[Seconds] / Annotated[...]
        base = node.value
        base_name = base.attr if isinstance(base, ast.Attribute) else (
            base.id if isinstance(base, ast.Name) else "")
        if base_name in ("Optional", "Annotated", "Final", "ClassVar"):
            inner = node.slice
            if isinstance(inner, ast.Tuple) and inner.elts:
                inner = inner.elts[0]
            return annotation_unit(inner)
    return None


# --------------------------------------------------------------------------
# The cross-file symbol table: functions, methods, classes.


@dataclass
class FunctionSig:
    """One function/method definition's unit-relevant signature."""

    qualname: str                       # "repro.core.monitor.PerformanceMonitor.record_ack"
    bare_name: str                      # "record_ack"
    params: List[Tuple[str, Optional[UnitInfo]]]
    has_self: bool
    return_unit: Optional[UnitInfo]
    node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    path: str

    def bindable_params(self) -> List[Tuple[str, Optional[UnitInfo]]]:
        return self.params[1:] if self.has_self else self.params


@dataclass
class ProgramIndex:
    """Whole-program lookup tables built before any checking starts."""

    #: dotted qualname -> signature (methods under "module.Class.name").
    by_qualname: Dict[str, FunctionSig]
    #: bare name -> all signatures sharing it (for attribute-call binding).
    by_bare_name: Dict[str, List[FunctionSig]]
    #: dotted class qualname -> constructor signature (explicit __init__ or
    #: dataclass-style annotated fields).
    constructors: Dict[str, FunctionSig]


def _module_name(path: str) -> str:
    """``src/repro/core/monitor.py`` → ``repro.core.monitor``."""
    parts = list(Path(path.replace("\\", "/")).with_suffix("").parts)
    if "src" in parts:
        parts = parts[parts.index("src") + 1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _resolve_imports(tree: ast.Module, module: str) -> Dict[str, str]:
    """Local name → dotted origin, including *relative* imports.

    The lint checker's table skips relative imports (its banned names are
    absolute stdlib ones); unit flow is mostly through relative imports, so
    they are resolved against the importing module's package here.
    """
    package_parts = module.split(".")[:-1] if module else []
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imports[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package_parts[:len(package_parts) - (node.level - 1)] \
                    if node.level <= len(package_parts) + 1 else []
                origin_parts = base + (node.module.split(".") if node.module else [])
            else:
                origin_parts = node.module.split(".") if node.module else []
            origin = ".".join(origin_parts)
            for alias in node.names:
                imports[alias.asname or alias.name] = (
                    f"{origin}.{alias.name}" if origin else alias.name)
    return imports


def _signature_of(node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
                  qualname: str, path: str, in_class: bool) -> FunctionSig:
    params: List[Tuple[str, Optional[UnitInfo]]] = []
    args = node.args
    positional = list(args.posonlyargs) + list(args.args)
    for arg in positional + list(args.kwonlyargs):
        unit = annotation_unit(arg.annotation)
        if unit is None:
            unit = suffix_unit(arg.arg)
        params.append((arg.arg, unit))
    return_unit = annotation_unit(node.returns)
    if return_unit is None:
        return_unit = suffix_unit(node.name)
    has_self = bool(in_class and positional
                    and positional[0].arg in ("self", "cls")
                    and not any(isinstance(dec, ast.Name)
                                and dec.id == "staticmethod"
                                for dec in node.decorator_list))
    return FunctionSig(qualname=qualname, bare_name=node.name, params=params,
                       has_self=has_self, return_unit=return_unit,
                       node=node, path=path)


def _dataclass_constructor(node: ast.ClassDef, qualname: str,
                           path: str) -> Optional[FunctionSig]:
    """A synthetic __init__ signature from annotated class-body fields."""
    params: List[Tuple[str, Optional[UnitInfo]]] = [("self", None)]
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            unit = annotation_unit(stmt.annotation)
            if unit is None:
                unit = suffix_unit(stmt.target.id)
            params.append((stmt.target.id, unit))
    if len(params) == 1:
        return None
    synthetic = ast.FunctionDef(name="__init__")  # placeholder node
    return FunctionSig(qualname=f"{qualname}.__init__", bare_name="__init__",
                       params=params, has_self=True, return_unit=None,
                       node=synthetic, path=path)


def _build_index(modules: Sequence[ParsedFile]) -> ProgramIndex:
    by_qualname: Dict[str, FunctionSig] = {}
    by_bare_name: Dict[str, List[FunctionSig]] = {}
    constructors: Dict[str, FunctionSig] = {}
    for path, tree in modules:
        module = _module_name(path)

        def visit(body: Sequence[ast.stmt], prefix: str, in_class: bool) -> None:
            for stmt in body:
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{prefix}.{stmt.name}" if prefix else stmt.name
                    sig = _signature_of(stmt, qualname, path, in_class)
                    by_qualname[qualname] = sig
                    by_bare_name.setdefault(stmt.name, []).append(sig)
                elif isinstance(stmt, ast.ClassDef):
                    class_qual = f"{prefix}.{stmt.name}" if prefix else stmt.name
                    visit(stmt.body, class_qual, True)
                    init = by_qualname.get(f"{class_qual}.__init__")
                    if init is None:
                        init = _dataclass_constructor(stmt, class_qual, path)
                    if init is not None:
                        constructors[class_qual] = init

        visit(tree.body, module, False)
    return ProgramIndex(by_qualname=by_qualname, by_bare_name=by_bare_name,
                        constructors=constructors)


def _agreeing_signature(sigs: List[FunctionSig]) -> Optional[FunctionSig]:
    """The shared signature when every definition of a bare name agrees.

    Attribute calls (``obj.method(...)``) cannot be resolved to a class
    statically, so an argument is only checked when *all* definitions of
    that method name across the program carry identical parameter units —
    the common case for this tree's interface methods.
    """
    if not sigs:
        return None
    first = sigs[0]
    shape = [(name, unit.label if unit else None)
             for name, unit in first.bindable_params()]
    returns = first.return_unit.label if first.return_unit else None
    for sig in sigs[1:]:
        other = [(name, unit.label if unit else None)
                 for name, unit in sig.bindable_params()]
        other_returns = sig.return_unit.label if sig.return_unit else None
        if other != shape or other_returns != returns:
            return None
    return first


# --------------------------------------------------------------------------
# Expression inference + checking.

_ADDITIVE_OPS = (ast.Add, ast.Sub)
_SCALING_OPS = (ast.Mult, ast.Div)
_UNIT_PRESERVING_CALLS = {"min", "max", "abs", "float", "round", "sorted"}


class _Scope:
    """One function (or module) body being checked."""

    def __init__(self, checker: "_ModuleChecker",
                 env: Dict[str, UnitInfo],
                 return_unit: Optional[UnitInfo],
                 where: str) -> None:
        self.checker = checker
        self.env = env
        self.return_unit = return_unit
        self.where = where


class _ModuleChecker:
    """Runs the RPL01x checks over one parsed module."""

    def __init__(self, path: str, tree: ast.Module, index: ProgramIndex,
                 imports: Dict[str, str], module: str) -> None:
        self.path = path
        self.tree = tree
        self.index = index
        self.imports = imports
        self.module = module
        self.findings: List[RawFinding] = []
        #: Module-level names (functions/classes) for bare-call resolution.
        self.local_defs: Dict[str, str] = {}
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                self.local_defs[stmt.name] = f"{module}.{stmt.name}"

    # -- plumbing ----------------------------------------------------------
    def _emit(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append((self.path, getattr(node, "lineno", 1),
                              getattr(node, "col_offset", 0), code, message))

    def _resolve_qualname(self, node: ast.expr) -> Optional[str]:
        """Dotted program-index name for a Name/Attribute chain, if known."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root: Optional[str] = self.local_defs.get(node.id)
        if root is None:
            root = self.imports.get(node.id)
        if root is None:
            return None
        return ".".join([root, *reversed(parts)]) if parts else root

    def _conversion_factor(self, node: ast.expr) -> Optional[Tuple[str, float]]:
        """``(name, factor)`` when ``node`` is a named conversion constant."""
        name: Optional[str] = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        if name is None:
            return None
        factor = _CONVERSION_CONSTANTS.get(name)
        if factor is None:
            return None
        return name, factor

    # -- checking entry points --------------------------------------------
    def run(self) -> List[RawFinding]:
        self._check_body(self.tree.body,
                         _Scope(self, {}, None, f"module {self.module}"))
        return self.findings

    # -- statement walking -------------------------------------------------
    def _function_scope(self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef],
                        qualname_hint: str) -> None:
        env: Dict[str, UnitInfo] = {}
        for arg in (list(node.args.posonlyargs) + list(node.args.args)
                    + list(node.args.kwonlyargs)):
            unit = annotation_unit(arg.annotation)
            named = suffix_unit(arg.arg)
            if unit is not None and named is not None and not unit.same_unit(named):
                self._emit(arg, "RPL015",
                           f"parameter {arg.arg!r} is annotated "
                           f"{unit.label} but its suffix says {named.label}; "
                           f"rename the parameter or fix the annotation")
            resolved = unit or named
            if resolved is not None:
                env[arg.arg] = resolved
        return_unit = annotation_unit(node.returns) or suffix_unit(node.name)
        scope = _Scope(self, env, return_unit,
                       f"function {qualname_hint or node.name}")
        self._check_body(node.body, scope)

    def _check_body(self, body: Sequence[ast.stmt], scope: _Scope) -> None:
        for stmt in body:
            self._check_stmt(stmt, scope)

    def _check_stmt(self, stmt: ast.stmt, scope: _Scope) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._function_scope(stmt, stmt.name)
            return
        if isinstance(stmt, ast.ClassDef):
            class_scope = _Scope(self, {}, None, f"class {stmt.name}")
            self._check_body(stmt.body, class_scope)
            return
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                unit = self._infer(stmt.value, scope)
                declared = scope.return_unit
                if (declared is not None and isinstance(unit, UnitInfo)
                        and not unit.dimensionless
                        and not unit.same_unit(declared)):
                    kind = ("scale" if unit.same_dimension(declared)
                            else "dimension")
                    self._emit(stmt, "RPL013",
                               f"{scope.where} declares return unit "
                               f"{declared.label} but returns {unit.label} "
                               f"({kind} mismatch); convert with the named "
                               f"constants or fix the declaration")
            return
        if isinstance(stmt, ast.Assign):
            value_unit = self._infer(stmt.value, scope)
            for target in stmt.targets:
                self._bind_target(target, value_unit, stmt, scope)
            return
        if isinstance(stmt, ast.AnnAssign):
            declared = annotation_unit(stmt.annotation)
            if stmt.value is not None:
                value_unit = self._infer(stmt.value, scope)
            else:
                value_unit = None
            if isinstance(stmt.target, ast.Name):
                named = suffix_unit(stmt.target.id)
                if (declared is not None and named is not None
                        and not declared.same_unit(named)):
                    self._emit(stmt, "RPL015",
                               f"{stmt.target.id!r} is annotated "
                               f"{declared.label} but its suffix says "
                               f"{named.label}")
                resolved = declared or named
                if resolved is not None:
                    scope.env[stmt.target.id] = resolved
                if (resolved is not None and isinstance(value_unit, UnitInfo)
                        and not value_unit.dimensionless
                        and not value_unit.same_unit(resolved)):
                    self._emit_assign_mismatch(stmt, stmt.target.id,
                                               resolved, value_unit)
            return
        if isinstance(stmt, ast.AugAssign):
            target_unit = self._target_unit(stmt.target, scope)
            value_unit = self._infer(stmt.value, scope)
            if (isinstance(stmt.op, _ADDITIVE_OPS)
                    and target_unit is not None
                    and isinstance(value_unit, UnitInfo)
                    and not value_unit.same_unit(target_unit)):
                self._emit(stmt, "RPL011",
                           f"augmented {'+=' if isinstance(stmt.op, ast.Add) else '-='} "
                           f"mixes {target_unit.label} and {value_unit.label}")
            return
        if isinstance(stmt, ast.Expr):
            self._infer(stmt.value, scope)
            return
        if isinstance(stmt, (ast.If, ast.While)):
            self._infer(stmt.test, scope)
            self._check_body(stmt.body, scope)
            self._check_body(stmt.orelse, scope)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self._infer(stmt.iter, scope)
            self._check_body(stmt.body, scope)
            self._check_body(stmt.orelse, scope)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self._infer(item.context_expr, scope)
            self._check_body(stmt.body, scope)
            return
        if isinstance(stmt, ast.Try):
            self._check_body(stmt.body, scope)
            for handler in stmt.handlers:
                self._check_body(handler.body, scope)
            self._check_body(stmt.orelse, scope)
            self._check_body(stmt.finalbody, scope)
            return
        if isinstance(stmt, ast.Assert):
            self._infer(stmt.test, scope)
            return
        if isinstance(stmt, ast.Raise) and stmt.exc is not None:
            self._infer(stmt.exc, scope)
            return
        # Imports, pass, global, nonlocal, delete: nothing unit-relevant.

    def _target_unit(self, target: ast.expr, scope: _Scope) -> Optional[UnitInfo]:
        if isinstance(target, ast.Name):
            return scope.env.get(target.id) or suffix_unit(target.id)
        if isinstance(target, ast.Attribute):
            return suffix_unit(target.attr)
        if isinstance(target, ast.Subscript):
            key = target.slice
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                return suffix_unit(key.value)
        return None

    def _emit_assign_mismatch(self, node: ast.AST, name: str,
                              declared: UnitInfo, value: UnitInfo) -> None:
        kind = "scale" if value.same_dimension(declared) else "dimension"
        self._emit(node, "RPL015",
                   f"{name!r} says {declared.label} but is assigned a value "
                   f"in {value.label} ({kind} mismatch); convert with the "
                   f"named constants or rename the target")

    def _bind_target(self, target: ast.expr,
                     value_unit: Optional[object], stmt: ast.stmt,
                     scope: _Scope) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                self._bind_target(element, None, stmt, scope)
            return
        declared = self._target_unit(target, scope)
        name = (target.id if isinstance(target, ast.Name)
                else target.attr if isinstance(target, ast.Attribute) else None)
        if (declared is not None and isinstance(value_unit, UnitInfo)
                and not value_unit.dimensionless
                and not value_unit.same_unit(declared)):
            self._emit_assign_mismatch(stmt, name or "<target>",
                                       declared, value_unit)
        if isinstance(target, ast.Name):
            resolved = declared
            if resolved is None and isinstance(value_unit, UnitInfo) \
                    and not value_unit.dimensionless:
                resolved = value_unit
            if resolved is not None:
                scope.env[target.id] = resolved

    # -- expression inference ---------------------------------------------
    def _infer(self, node: ast.expr, scope: _Scope) -> Optional[object]:
        """Infer ``node``'s unit, emitting findings along the way.

        Returns a :class:`UnitInfo`, a ``float`` (bare numeric literal), or
        ``None`` (unknown).
        """
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(node.value, (int, float)):
                return None
            return float(node.value)
        if isinstance(node, ast.UnaryOp):
            operand = self._infer(node.operand, scope)
            if isinstance(node.op, (ast.USub, ast.UAdd)):
                if isinstance(operand, float):
                    return -operand if isinstance(node.op, ast.USub) else operand
                return operand
            return None
        if isinstance(node, ast.Name):
            bound = scope.env.get(node.id)
            if bound is not None:
                return bound
            conversion = self._conversion_factor(node)
            if conversion is not None:
                return None  # handled structurally inside BinOp
            return suffix_unit(node.id)
        if isinstance(node, ast.Attribute):
            self._infer(node.value, scope)
            conversion = self._conversion_factor(node)
            if conversion is not None:
                return None
            return suffix_unit(node.attr)
        if isinstance(node, ast.Subscript):
            self._infer(node.value, scope)
            if isinstance(node.slice, ast.expr) and not isinstance(node.slice, ast.Slice):
                self._infer(node.slice, scope)
            key = node.slice
            if isinstance(key, ast.Constant) and isinstance(key.value, str):
                return suffix_unit(key.value)
            return None
        if isinstance(node, ast.BinOp):
            return self._infer_binop(node, scope)
        if isinstance(node, ast.Compare):
            self._check_compare(node, scope)
            return None
        if isinstance(node, ast.BoolOp):
            for value in node.values:
                self._infer(value, scope)
            return None
        if isinstance(node, ast.Call):
            return self._infer_call(node, scope)
        if isinstance(node, ast.IfExp):
            self._infer(node.test, scope)
            body = self._infer(node.body, scope)
            orelse = self._infer(node.orelse, scope)
            if isinstance(body, UnitInfo):
                return body
            if isinstance(orelse, UnitInfo):
                return orelse
            return None
        if isinstance(node, ast.NamedExpr):
            value = self._infer(node.value, scope)
            self._bind_target(node.target, value, node, scope)
            return value
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            for element in node.elts:
                self._infer(element, scope)
            return None
        if isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if key is not None:
                    self._infer(key, scope)
                value_unit = self._infer(value, scope)
                if (key is not None and isinstance(key, ast.Constant)
                        and isinstance(key.value, str)):
                    declared = suffix_unit(key.value)
                    if (declared is not None and isinstance(value_unit, UnitInfo)
                            and not value_unit.dimensionless
                            and not value_unit.same_unit(declared)):
                        self._emit_assign_mismatch(value, key.value,
                                                   declared, value_unit)
            return None
        if isinstance(node, ast.JoinedStr):
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    self._infer(value.value, scope)
            return None
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            for gen in node.generators:
                self._infer(gen.iter, scope)
                for cond in gen.ifs:
                    self._infer(cond, scope)
            return self._infer(node.elt, scope)
        if isinstance(node, ast.DictComp):
            for gen in node.generators:
                self._infer(gen.iter, scope)
            self._infer(node.key, scope)
            self._infer(node.value, scope)
            return None
        if isinstance(node, ast.Starred):
            return self._infer(node.value, scope)
        if isinstance(node, ast.Lambda):
            return None
        return None

    def _infer_binop(self, node: ast.BinOp, scope: _Scope) -> Optional[object]:
        left = self._infer(node.left, scope)
        right = self._infer(node.right, scope)
        if isinstance(node.op, _ADDITIVE_OPS):
            if (isinstance(left, UnitInfo) and isinstance(right, UnitInfo)
                    and not left.dimensionless and not right.dimensionless
                    and not left.same_unit(right)):
                kind = "scale" if left.same_dimension(right) else "dimension"
                op = "+" if isinstance(node.op, ast.Add) else "-"
                self._emit(node, "RPL011",
                           f"'{op}' mixes {left.label} and {right.label} "
                           f"({kind} mismatch); convert one side with the "
                           f"named constants from repro.units first")
            if isinstance(left, UnitInfo):
                return left
            if isinstance(right, UnitInfo):
                return right
            return None
        if isinstance(node.op, _SCALING_OPS):
            dividing = isinstance(node.op, ast.Div)
            # Named conversion constants: declared scale changes.
            left_conv = self._conversion_factor(node.left)
            right_conv = self._conversion_factor(node.right)
            if right_conv is not None and isinstance(left, UnitInfo):
                factor = right_conv[1]
                return left.rescaled(1.0 / factor if dividing else factor)
            if left_conv is not None and isinstance(right, UnitInfo) and not dividing:
                return right.rescaled(left_conv[1])
            # Bare conversion-smelling literals next to a unit: RPL014.
            unit, literal, literal_node = None, None, None
            if isinstance(left, UnitInfo) and isinstance(right, float):
                unit, literal, literal_node = left, right, node.right
            elif isinstance(right, UnitInfo) and isinstance(left, float) \
                    and not dividing:
                unit, literal, literal_node = right, left, node.left
            if unit is not None and literal is not None and not unit.dimensionless:
                if literal in _CONVERSION_LITERALS:
                    suggestion = _CONVERSION_LITERALS[literal]
                    self._emit(literal_node, "RPL014",
                               f"magic conversion literal {literal:g} "
                               f"{'divides' if dividing else 'scales'} a "
                               f"quantity in {unit.label}; name the "
                               f"conversion ({suggestion}) so the unit "
                               f"change is declared and checkable")
                    return unit.rescaled(
                        1.0 / literal if dividing else literal)
                return unit  # ordinary arithmetic: unit unchanged
            if isinstance(left, UnitInfo) and isinstance(right, UnitInfo):
                return left.div(right) if dividing else left.mul(right)
            if isinstance(left, UnitInfo) and right is None:
                return None
            if isinstance(right, UnitInfo) and left is None:
                return None
            if isinstance(left, float) and isinstance(right, float):
                try:
                    return left / right if dividing else left * right
                except ZeroDivisionError:
                    return None
            return None
        return None

    def _check_compare(self, node: ast.Compare, scope: _Scope) -> None:
        operands = [self._infer(value, scope)
                    for value in [node.left, *node.comparators]]
        units = [u for u in operands if isinstance(u, UnitInfo)
                 and not u.dimensionless]
        for first, second in zip(units, units[1:]):
            if not first.same_unit(second):
                kind = "scale" if first.same_dimension(second) else "dimension"
                self._emit(node, "RPL011",
                           f"comparison mixes {first.label} and "
                           f"{second.label} ({kind} mismatch)")

    # -- call handling -----------------------------------------------------
    def _infer_call(self, node: ast.Call, scope: _Scope) -> Optional[object]:
        arg_units = [self._infer(arg, scope) for arg in node.args]
        kw_units = {kw.arg: self._infer(kw.value, scope)
                    for kw in node.keywords if kw.arg is not None}
        for kw in node.keywords:
            if kw.arg is None:
                self._infer(kw.value, scope)

        func = node.func
        func_name = (func.id if isinstance(func, ast.Name)
                     else func.attr if isinstance(func, ast.Attribute) else None)

        # Unit-preserving builtins: min/max/abs/float/round keep their
        # argument's unit; mixing units inside min/max is an RPL011.
        if isinstance(func, ast.Name) and func_name in _UNIT_PRESERVING_CALLS:
            units = [u for u in arg_units if isinstance(u, UnitInfo)
                     and not u.dimensionless]
            if func_name in ("min", "max") and len(units) >= 2:
                for first, second in zip(units, units[1:]):
                    if not first.same_unit(second):
                        kind = ("scale" if first.same_dimension(second)
                                else "dimension")
                        self._emit(node, "RPL011",
                                   f"{func_name}() mixes {first.label} and "
                                   f"{second.label} ({kind} mismatch)")
            return units[0] if units else None

        sig = self._resolve_call_signature(func)
        if sig is None:
            return None
        self._check_binding(node, sig, arg_units, kw_units)
        return sig.return_unit

    def _resolve_call_signature(self, func: ast.expr) -> Optional[FunctionSig]:
        qualname = self._resolve_qualname(func)
        if qualname is not None:
            sig = self.index.by_qualname.get(qualname)
            if sig is not None:
                return sig
            ctor = self.index.constructors.get(qualname)
            if ctor is not None:
                return ctor
        if isinstance(func, ast.Attribute):
            # Method call on an unknown object: bind only when every
            # definition of this method name agrees on parameter units.
            candidates = self.index.by_bare_name.get(func.attr, [])
            methods = [sig for sig in candidates if sig.has_self]
            return _agreeing_signature(methods)
        return None

    def _check_binding(self, node: ast.Call, sig: FunctionSig,
                       arg_units: Sequence[Optional[object]],
                       kw_units: Dict[str, Optional[object]]) -> None:
        params = sig.bindable_params()
        for position, unit in enumerate(arg_units):
            if position >= len(params):
                break  # *args / mismatched arity: not this checker's concern
            self._check_one_binding(node, sig, params[position][0],
                                    params[position][1], unit)
        by_name = dict(params)
        for name, unit in sorted(kw_units.items()):
            if name in by_name:
                self._check_one_binding(node, sig, name, by_name[name], unit)

    def _check_one_binding(self, node: ast.Call, sig: FunctionSig,
                           param_name: str, param_unit: Optional[UnitInfo],
                           arg_unit: Optional[object]) -> None:
        if param_unit is None or not isinstance(arg_unit, UnitInfo):
            return
        if arg_unit.dimensionless and not param_unit.dimensionless:
            return
        if arg_unit.same_unit(param_unit):
            return
        kind = ("scale" if arg_unit.same_dimension(param_unit) else "dimension")
        self._emit(node, "RPL012",
                   f"argument in {arg_unit.label} bound to parameter "
                   f"{param_name!r} of {sig.qualname}(), which expects "
                   f"{param_unit.label} ({kind} mismatch); convert at the "
                   f"call site with the named constants")


# --------------------------------------------------------------------------
# Driver.


def check_program(modules: Sequence[ParsedFile]) -> List[RawFinding]:
    """Run RPL011–RPL015 over every ``(path, tree)``; return raw findings.

    One call graph is built over all modules first, so a unit flows across
    files.  The caller filters suppressions.  The contracts:

    RPL011 — no ``+``, ``-``, comparison, ``+=``/``-=`` or ``min``/``max``
    between mismatched units.  ``rate_bps + rate_mbps``, ``rtt_ms < rtt_s``
    and ``rtt_sec + delay_ms`` are off by the conversion factor, and Python
    cannot notice.  Multiplication and division compose dimensions
    (``size_bytes * BITS_PER_BYTE / duration_s`` is a rate in bps).

    RPL012 — an argument must match its parameter's unit across the call
    graph: ``measure(rtt_ms)`` into ``def measure(rtt_s)`` is a 1000x error
    inside the callee.  Calls resolve through imports (relative ones too) and
    module-level definitions; a method call on an unknown object is checked
    only when every definition of that method name agrees on parameter
    units, and dataclass keyword construction binds like a call.

    RPL013 — a function whose name carries a unit suffix (``goodput_bps``)
    or whose return annotation is a :mod:`repro.units` alias (``-> Bps``)
    must return that unit; a wrong return poisons every caller at once.

    RPL014 — unit conversions use the named constants, not bare literals.
    An anonymous ``* 8.0``, ``/ 1e6`` or ``* 1000`` next to a dimensioned
    quantity hides a conversion (1024 vs 1000, ``*`` vs ``/``) from review;
    with the named constant the scale change is declared and tracked.
    Ordinary arithmetic (``rate / 2.0``, ``* 10``) is untouched.

    RPL015 — a name's unit suffix must agree with its annotation and with
    the unit of what is assigned to it (dict literals with suffixed string
    keys included): ``rtt_s: Ms`` or ``goodput_mbps = flow.goodput_bps(t)``
    makes two contradictory unit claims.
    """
    index = _build_index(modules)
    findings: List[RawFinding] = []
    for path, tree in modules:
        module = _module_name(path)
        imports = _resolve_imports(tree, module)
        findings.extend(_ModuleChecker(path, tree, index, imports, module).run())
    return findings
