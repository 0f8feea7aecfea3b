"""``repro.devtools.lint`` — AST contract checker for determinism invariants.

Every reproduced claim in this repo rests on invariants that used to be
enforced only by convention: simulations draw time and randomness exclusively
from the engine clock and attached RNGs, registries are populated at import
time so ``spawn``-method workers can resolve names, every ordering that
reaches a result record or rendered report row is canonical, and no numeric
literal quietly shadows a configured constant (the seed's duplicated 8 kbps
MI floor was exactly that bug).  This module turns those unwritten contracts
into a standalone static-analysis pass::

    python -m repro.devtools.lint src
    python -m repro.devtools.lint --explain RPL003
    python -m repro.devtools.lint --json src

Rules are plain functions over a parsed module, registered into a
:class:`~repro.registry.NameRegistry` exactly like schemes, topologies and
policies — a third-party check is one ``register_lint_rule`` call away.  Only
the standard library (``ast`` + ``tokenize``) is used: the linter never
imports the code it checks.

Findings print as ``path:line:col RPLnnn message`` and the process exits
non-zero when any finding survives.  A finding is suppressed only by an
inline comment naming the rule *and* a reason::

    t0 = time.perf_counter()  # repro-lint: disable=RPL001 wall-time telemetry

A reasonless or malformed suppression is itself a finding (RPL008).
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import re
import sys
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from ..registry import NameRegistry

__all__ = [
    "Finding",
    "LintRule",
    "lint_paths",
    "lint_sources",
    "lint_rule_names",
    "get_lint_rule",
    "main",
    "register_lint_rule",
]


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        """The human-readable ``path:line:col RPLnnn message`` form."""
        return f"{self.path}:{self.line}:{self.col} {self.code} {self.message}"

    def as_json(self) -> Dict[str, Union[str, int]]:
        """The machine-readable form emitted by ``--json``."""
        return {"path": self.path, "line": self.line, "col": self.col,
                "code": self.code, "message": self.message}

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)


@dataclass(frozen=True)
class _ConstantDef:
    """A module-level ``ALL_CAPS = <number>`` definition (RPL004's targets)."""

    name: str
    value: Union[int, float]
    path: str
    line: int


@dataclass
class ModuleContext:
    """Everything one rule needs to check one parsed module.

    Built once per file by :func:`lint_sources`; ``constants`` is the
    cross-file table of named numeric constants collected from *every* file
    in the run, so RPL004 catches shadow copies across module boundaries
    (the monitor-vs-controller rate-floor bug class).
    """

    path: str
    source: str
    tree: ast.Module
    lines: List[str]
    parents: Dict[int, ast.AST]
    imports: Dict[str, str]
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    suppression_issues: List[Tuple[int, int, str]] = field(default_factory=list)
    constants: Dict[Union[int, float], _ConstantDef] = field(default_factory=dict)
    own_constant_nodes: Set[int] = field(default_factory=set)

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        """The syntactic parent of ``node`` (``None`` for the module)."""
        return self.parents.get(id(node))

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Resolve a ``Name``/``Attribute`` chain to its imported dotted name.

        ``time.perf_counter`` resolves through ``import time``;
        ``np.random.rand`` resolves through ``import numpy as np``;
        ``self.rng.random`` resolves to ``None`` (not import-rooted), which
        is what keeps attached-RNG calls out of RPL001.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        origin = self.imports.get(node.id)
        if origin is None:
            return None
        parts.append(origin)
        return ".".join(reversed(parts))


@dataclass(frozen=True)
class LintRule:
    """A registered contract check: stable code, one-line summary, rationale.

    ``check`` is the per-module rule function run by :func:`lint_sources`.
    Whole-program rules (the RPL01x units checks, which need a cross-file
    call graph) register with ``check=None``: they share this registry — one
    code universe for ``--explain``, ``--list`` and suppression validation —
    but are driven by their own pass (:mod:`repro.devtools.units`).
    """

    code: str
    name: str
    summary: str
    explain: str
    check: Optional[Callable[[ModuleContext], Iterable[Finding]]] = None


RULES: NameRegistry[LintRule] = NameRegistry("lint rule")

_CODE_PATTERN = re.compile(r"RPL\d{3}\Z")


def register_lint_rule(code: str, name: str, summary: str, explain: str,
                       check: Optional[Callable[[ModuleContext],
                                                Iterable[Finding]]] = None) -> None:
    """Register a rule under its stable ``RPLnnn`` code.

    Like every other registry in this repo, registration must happen at
    module import time; the built-in rules below are the example.  Rules
    without a per-module ``check`` are documentation-and-suppression entries
    for a separate whole-program pass.
    """
    if not _CODE_PATTERN.match(code):
        raise ValueError(f"lint rule codes look like 'RPL001', got {code!r}")
    RULES.register(code, LintRule(code=code, name=name, summary=summary,
                                  explain=explain, check=check))


def _ensure_all_rules() -> None:
    """Import every module that registers rules into :data:`RULES`.

    The units checker registers RPL011–RPL016 at import time; loading it
    lazily (mirroring ``repro.schemes._ensure_builtins``) keeps suppression
    validation and ``--explain`` aware of those codes without a circular
    import at module load.
    """
    from . import units  # noqa: F401  (import-time registration side effect)


def lint_rule_names() -> List[str]:
    """All registered rule codes, sorted."""
    return RULES.names()


def get_lint_rule(code: str) -> LintRule:
    """Resolve one rule by its ``RPLnnn`` code."""
    return RULES.get(code)


# --------------------------------------------------------------------------
# Module parsing: imports, suppression comments, constant table.

_SUPPRESS_RE = re.compile(r"#\s*repro-lint:\s*(?P<directive>.*?)\s*$")
_CONST_NAME_RE = re.compile(r"_?[A-Z][A-Z0-9_]+\Z")


def _collect_imports(tree: ast.Module) -> Dict[str, str]:
    """Map each import-bound local name to the dotted origin it references."""
    imports: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    imports[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    imports[root] = root
        elif isinstance(node, ast.ImportFrom):
            if node.module is None or node.level:
                continue  # relative imports never reach the banned stdlib names
            for alias in node.names:
                imports[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return imports


def _collect_suppressions(ctx: ModuleContext) -> None:
    """Parse ``# repro-lint: disable=RPLnnn <reason>`` comments.

    A trailing comment applies to its own line; a comment alone on a line
    applies to the line directly below it.  Malformed directives — no codes,
    an unknown or non-``RPLnnn`` code, a missing reason — are recorded as
    suppression issues for RPL008 rather than silently ignored.
    """
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(ctx.source).readline))
    except tokenize.TokenError:
        return  # ast.parse succeeded, so this is unreachable in practice
    for tok in tokens:
        if tok.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.match(tok.string)
        if match is None:
            continue
        line, col = tok.start
        standalone = ctx.lines[line - 1][:col].strip() == ""
        target = line + 1 if standalone else line
        directive = match.group("directive")
        if not directive.startswith("disable="):
            ctx.suppression_issues.append(
                (line, col, f"unknown repro-lint directive {directive!r}; "
                            f"only 'disable=RPLnnn <reason>' is supported"))
            continue
        codes_part, _, reason = directive[len("disable="):].partition(" ")
        codes = [code.strip() for code in codes_part.split(",") if code.strip()]
        if not codes:
            ctx.suppression_issues.append(
                (line, col, "suppression names no rule codes"))
            continue
        if not reason.strip():
            ctx.suppression_issues.append(
                (line, col, f"suppression of {', '.join(codes)} carries no "
                            f"reason; write '# repro-lint: disable="
                            f"{codes_part} <why this is safe>'"))
            continue
        valid: Set[str] = set()
        for code in codes:
            if not _CODE_PATTERN.match(code):
                ctx.suppression_issues.append(
                    (line, col, f"{code!r} is not an RPLnnn rule code"))
            elif code == "RPL008":
                ctx.suppression_issues.append(
                    (line, col, "RPL008 (suppression hygiene) cannot itself "
                                "be suppressed"))
            elif code not in RULES:
                ctx.suppression_issues.append(
                    (line, col, f"unknown lint rule {code!r}; known rules: "
                                f"{', '.join(RULES.names())}"))
            else:
                valid.add(code)
        if valid:
            ctx.suppressions.setdefault(target, set()).update(valid)


def _collect_constant_defs(ctx: ModuleContext) -> List[_ConstantDef]:
    """Module-level ``ALL_CAPS = <numeric literal>`` definitions.

    The definition sites themselves are remembered in
    ``ctx.own_constant_nodes`` so RPL004 never flags a constant for
    *being* defined (two constants may legitimately share a value).
    """
    defs: List[_ConstantDef] = []
    for stmt in ctx.tree.body:
        targets: List[ast.expr]
        if isinstance(stmt, ast.Assign):
            targets, value = stmt.targets, stmt.value
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            targets, value = [stmt.target], stmt.value
        else:
            continue
        literal = _numeric_literal(value)
        if literal is None:
            continue
        node, number = literal
        ctx.own_constant_nodes.add(id(node))
        for target in targets:
            if isinstance(target, ast.Name) and _CONST_NAME_RE.match(target.id):
                defs.append(_ConstantDef(name=target.id, value=number,
                                         path=ctx.path, line=stmt.lineno))
    return defs


def _numeric_literal(node: ast.expr) -> Optional[Tuple[ast.Constant, Union[int, float]]]:
    """``(constant_node, value)`` when ``node`` is a (possibly negated) number."""
    sign = 1
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
        sign = -1
    if (isinstance(node, ast.Constant)
            and isinstance(node.value, (int, float))
            and not isinstance(node.value, bool)):
        return node, sign * node.value
    return None


def _distinctive(value: Union[int, float]) -> bool:
    """Whether a constant's value is specific enough to match literals against.

    Small counts, thresholds and round powers of ten (``3``, ``100``,
    ``1e6``) recur coincidentally all over numeric code; values like
    ``8_000.0`` or ``1500`` do not — they are identities.  Only the latter
    participate in RPL004 matching, which keeps the rule's signal high.
    """
    magnitude = abs(value)
    if magnitude < 1000:
        return False
    while magnitude >= 10 and magnitude % 10 == 0:
        magnitude /= 10
    return magnitude != 1


def _parse_module(path: str, source: str) -> ModuleContext:
    tree = ast.parse(source, filename=path)
    parents: Dict[int, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    ctx = ModuleContext(path=path, source=source, tree=tree,
                        lines=source.splitlines() or [""],
                        parents=parents, imports=_collect_imports(tree))
    _collect_suppressions(ctx)
    return ctx


# --------------------------------------------------------------------------
# Shared AST helpers.

_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _call_name(node: ast.Call) -> Optional[str]:
    """The bare called name: ``f(...)`` -> ``f``; ``a.b.f(...)`` -> ``f``."""
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _in_scope(ctx: ModuleContext, scopes: Tuple[str, ...]) -> bool:
    normalized = ctx.path.replace("\\", "/")
    return any(scope in normalized for scope in scopes)


def _finding(ctx: ModuleContext, node: ast.AST, code: str, message: str) -> Finding:
    return Finding(path=ctx.path, line=getattr(node, "lineno", 1),
                   col=getattr(node, "col_offset", 0), code=code,
                   message=message)


# --------------------------------------------------------------------------
# RPL001 — wall-clock / global-RNG calls inside the simulation tree.

_SIM_SCOPES = ("repro/netsim/", "repro/core/", "repro/cc/",
               "repro/experiments/", "repro/report/")

_WALL_CLOCK = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.localtime", "time.gmtime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
}

_GLOBAL_RNG_ALLOWED = {"random.Random"}

_NUMPY_RNG_ALLOWED = {
    "numpy.random.default_rng", "numpy.random.Generator",
    "numpy.random.SeedSequence", "numpy.random.PCG64",
    "numpy.random.MT19937", "numpy.random.Philox",
}


def _check_wall_clock(ctx: ModuleContext) -> Iterable[Finding]:
    if not _in_scope(ctx, _SIM_SCOPES):
        return
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        resolved = ctx.resolve(node.func)
        if resolved is None:
            continue
        if resolved in _WALL_CLOCK:
            yield _finding(
                ctx, node, "RPL001",
                f"wall-clock call {resolved}(): simulation results must be "
                f"a pure function of (cell, seed) — take time from the "
                f"engine clock")
        elif (resolved.startswith("random.")
              and resolved not in _GLOBAL_RNG_ALLOWED):
            yield _finding(
                ctx, node, "RPL001",
                f"global-RNG call {resolved}(): draw randomness from an "
                f"attached, seeded random.Random instance")
        elif (resolved.startswith("numpy.random.")
              and resolved not in _NUMPY_RNG_ALLOWED):
            yield _finding(
                ctx, node, "RPL001",
                f"global numpy RNG call {resolved}(): use an attached "
                f"numpy.random.Generator (default_rng(seed)) instead")


# --------------------------------------------------------------------------
# RPL002 — registration must execute at module import time.


def _check_import_time_registration(ctx: ModuleContext) -> Iterable[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        if name is None or not name.startswith("register_"):
            continue
        ancestor = ctx.parent(node)
        while ancestor is not None:
            if isinstance(ancestor, _FUNCTION_NODES):
                where = getattr(ancestor, "name", "<lambda>")
                yield _finding(
                    ctx, node, "RPL002",
                    f"{name}() inside function {where!r} does not run at "
                    f"import time, so spawn-method workers re-importing the "
                    f"module cannot resolve the name; move it to module "
                    f"top level")
                break
            if isinstance(ancestor, ast.ClassDef):
                yield _finding(
                    ctx, node, "RPL002",
                    f"{name}() inside class {ancestor.name!r} body; move "
                    f"registration to module top level")
                break
            if isinstance(ancestor, ast.If):
                yield _finding(
                    ctx, node, "RPL002",
                    f"{name}() under a conditional registers the name only "
                    f"on some import paths; spawn-method workers need "
                    f"unconditional module-top-level registration")
                break
            ancestor = ctx.parent(ancestor)


# --------------------------------------------------------------------------
# RPL003 — orderings that feed outputs must be explicit.

_ORDER_FREE_CONSUMERS = {"sum", "min", "max", "any", "all", "set",
                         "frozenset", "sorted", "len"}

_SET_OPS = (ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)


def _unordered_reason(node: ast.expr) -> Optional[str]:
    """Why iterating ``node`` has no canonical order, or ``None`` if it does."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set"
    if isinstance(node, ast.Call):
        name = _call_name(node)
        if name in ("set", "frozenset"):
            return f"{name}(...)"
        if (isinstance(node.func, ast.Attribute)
                and node.func.attr == "values" and not node.args):
            return ".values() of a dict filled in completion order"
    if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
        return (_unordered_reason(node.left)
                or _unordered_reason(node.right))
    return None


def _check_unsorted_iteration(ctx: ModuleContext) -> Iterable[Finding]:
    for node in ast.walk(ctx.tree):
        iters: List[ast.expr] = []
        if isinstance(node, (ast.For, ast.AsyncFor)):
            iters = [node.iter]
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            parent = ctx.parent(node)
            if (isinstance(parent, ast.Call)
                    and _call_name(parent) in _ORDER_FREE_CONSUMERS):
                continue  # sum(... for ... in set(...)) is order-insensitive
            iters = [gen.iter for gen in node.generators]
        for candidate in iters:
            reason = _unordered_reason(candidate)
            if reason is not None:
                yield _finding(
                    ctx, candidate, "RPL003",
                    f"iteration over {reason} has no canonical order; wrap "
                    f"it in sorted(...) so records, JSONL lines and report "
                    f"rows never depend on completion or hash order")


# --------------------------------------------------------------------------
# RPL004 — numeric literals shadowing named constants.


def _check_shadow_constants(ctx: ModuleContext) -> Iterable[Finding]:
    if not ctx.constants:
        return
    for node in ast.walk(ctx.tree):
        if not (isinstance(node, ast.Constant)
                and isinstance(node.value, (int, float))
                and not isinstance(node.value, bool)):
            continue
        if id(node) in ctx.own_constant_nodes:
            continue
        definition = ctx.constants.get(node.value)
        if definition is None:
            continue
        yield _finding(
            ctx, node, "RPL004",
            f"numeric literal {node.value!r} duplicates named constant "
            f"{definition.name} ({definition.path}:{definition.line}); use "
            f"the constant (or a configured parameter) so the two can "
            f"never drift apart")


# --------------------------------------------------------------------------
# RPL005 — broad excepts must not swallow exceptions.

_BROAD_EXCEPTIONS = {"Exception", "BaseException"}


def _is_broad(node: Optional[ast.expr]) -> bool:
    if node is None:
        return True
    if isinstance(node, ast.Name):
        return node.id in _BROAD_EXCEPTIONS
    if isinstance(node, ast.Tuple):
        return any(_is_broad(element) for element in node.elts)
    return False


def _check_swallowed_exceptions(ctx: ModuleContext) -> Iterable[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            yield _finding(
                ctx, node, "RPL005",
                "bare 'except:' catches SystemExit/KeyboardInterrupt too; "
                "name the exception type (and re-raise what you cannot "
                "handle)")
            continue
        if not _is_broad(node.type):
            continue
        if any(isinstance(sub, ast.Raise) for sub in ast.walk(node)):
            continue  # catch-log-reraise and exception-translation are fine
        yield _finding(
            ctx, node, "RPL005",
            "broad except swallows the exception (no raise in the "
            "handler); in worker/executor paths this turns crashes into "
            "silently missing cells — narrow it or re-raise")


# --------------------------------------------------------------------------
# RPL006 — mutable default arguments.

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                     ast.SetComp)

_MUTABLE_FACTORIES = {"list", "dict", "set", "bytearray", "defaultdict",
                      "deque", "Counter", "OrderedDict"}


def _check_mutable_defaults(ctx: ModuleContext) -> Iterable[Finding]:
    for node in ast.walk(ctx.tree):
        if not isinstance(node, _FUNCTION_NODES):
            continue
        defaults = list(node.args.defaults)
        defaults.extend(d for d in node.args.kw_defaults if d is not None)
        for default in defaults:
            mutable = isinstance(default, _MUTABLE_LITERALS) or (
                isinstance(default, ast.Call)
                and _call_name(default) in _MUTABLE_FACTORIES)
            if mutable:
                yield _finding(
                    ctx, default, "RPL006",
                    "mutable default argument is shared across calls (and "
                    "across sweep cells within a worker); default to None "
                    "and construct inside the function")


# --------------------------------------------------------------------------
# RPL007 — registered factories must not swallow **kwargs.


def _module_functions(ctx: ModuleContext) -> Dict[str, ast.AST]:
    functions: Dict[str, ast.AST] = {}
    for stmt in ctx.tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions[stmt.name] = stmt
        elif (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
              and isinstance(stmt.targets[0], ast.Name)
              and isinstance(stmt.value, ast.Lambda)):
            functions[stmt.targets[0].id] = stmt.value
    return functions


def _swallows_kwargs(fn: ast.AST) -> Optional[str]:
    """The ``**kwargs`` name when ``fn`` accepts but never reads it."""
    args = fn.args if isinstance(fn, _FUNCTION_NODES) else None
    if args is None or args.kwarg is None:
        return None
    kwarg = args.kwarg.arg
    body = fn.body if isinstance(fn.body, list) else [fn.body]
    for stmt in body:
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Name) and sub.id == kwarg:
                return None
    return kwarg


def _check_kwargs_swallowing_factories(ctx: ModuleContext) -> Iterable[Finding]:
    functions = _module_functions(ctx)
    for node in ast.walk(ctx.tree):
        if not isinstance(node, ast.Call):
            continue
        name = _call_name(node)
        if name is None or not name.startswith("register_"):
            continue
        candidates: List[ast.expr] = list(node.args)
        candidates.extend(kw.value for kw in node.keywords
                          if kw.arg is not None)
        for arg in candidates:
            fn: Optional[ast.AST] = None
            if isinstance(arg, ast.Lambda):
                fn = arg
            elif isinstance(arg, ast.Name):
                fn = functions.get(arg.id)
            if fn is None:
                continue
            kwarg = _swallows_kwargs(fn)
            if kwarg is not None:
                yield _finding(
                    ctx, arg, "RPL007",
                    f"factory registered by {name}() accepts **{kwarg} but "
                    f"never uses it, so misspelled or stale config keys "
                    f"vanish silently; drop **{kwarg} or forward it")


# --------------------------------------------------------------------------
# RPL017 — qdisc factories draw no randomness at construction time.

_RNG_DRAW_METHODS = frozenset({
    "random", "randint", "randrange", "uniform", "expovariate",
    "paretovariate", "gauss", "normalvariate", "lognormvariate",
    "betavariate", "gammavariate", "triangular", "vonmisesvariate",
    "weibullvariate", "choice", "choices", "sample", "shuffle",
    "getrandbits", "randbytes",
})


def _check_qdisc_factory_rng(ctx: ModuleContext) -> Iterable[Finding]:
    functions = _module_functions(ctx)
    for node in ast.walk(ctx.tree):
        if (not isinstance(node, ast.Call)
                or _call_name(node) != "register_qdisc"):
            continue
        candidates: List[ast.expr] = list(node.args)
        candidates.extend(kw.value for kw in node.keywords
                          if kw.arg is not None)
        for arg in candidates:
            fn: Optional[ast.AST] = None
            if isinstance(arg, ast.Lambda):
                fn = arg
            elif isinstance(arg, ast.Name):
                fn = functions.get(arg.id)
            if fn is None:
                continue
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            for stmt in body:
                for sub in ast.walk(stmt):
                    if (isinstance(sub, ast.Call)
                            and isinstance(sub.func, ast.Attribute)
                            and sub.func.attr in _RNG_DRAW_METHODS):
                        yield _finding(
                            ctx, sub, "RPL017",
                            f"qdisc factory draws randomness "
                            f"(.{sub.func.attr}()) at construction time; "
                            f"disciplines are built RNG-free and receive "
                            f"the engine RNG via attach_rng() after the "
                            f"link wires them")


# --------------------------------------------------------------------------
# RPL008 — suppression hygiene.


def _check_suppression_hygiene(ctx: ModuleContext) -> Iterable[Finding]:
    for line, col, message in ctx.suppression_issues:
        yield Finding(path=ctx.path, line=line, col=col, code="RPL008",
                      message=message)


# --------------------------------------------------------------------------
# Rule registration (module top level — the contract RPL002 itself enforces).

register_lint_rule(
    "RPL001", "no-wall-clock-or-global-rng",
    "No wall-clock or global-RNG calls inside the simulation tree.",
    """Simulation, experiment and report code (src/repro/{netsim,core,cc,
experiments,report}) must produce results that are a pure function of the
cell parameters and the derived seed.  Reading the wall clock (time.time,
time.perf_counter, datetime.now, ...) or the process-global RNG
(random.random, random.seed, numpy.random.* without an attached Generator)
injects state that differs across runs, worker counts and resume -- which
breaks the byte-identity guarantee every golden file and CI smoke job pins.
Take simulated time from the engine clock and randomness from a seeded
random.Random / numpy Generator attached to the component.  Wall-time
*telemetry* that is stripped from canonical output (ResultSet timings) is
the one legitimate exception: suppress it with a reason.""",
    _check_wall_clock)

register_lint_rule(
    "RPL002", "import-time-registration",
    "register_*() calls must execute at module top level.",
    """Sweep cells cross process boundaries carrying registry *names*;
spawn-method workers re-import modules from scratch and then resolve those
names.  A register_*() call inside a function or class body, or under a
conditional, runs on some import paths and not others -- the worker imports
the module and still cannot resolve the name (or resolves it only when some
unrelated code path ran first).  Registration belongs at module top level;
top-level loops and try blocks are fine because they still execute at
import.""",
    _check_import_time_registration)

register_lint_rule(
    "RPL003", "no-unsorted-unordered-iteration",
    "Iterating sets or dict .values() requires an explicit sorted(...).",
    """Everything this repo emits -- result records, JSONL lines, rendered
report rows -- must be byte-identical across worker counts, completion
orders and resume.  Iterating a set (hash order) or a dict's .values()
(insertion order, i.e. completion order when workers fill the dict) bakes
an accidental ordering into the output.  Wrap the iterable in sorted(...)
with an explicit key.  Aggregations that cannot observe order (sum, min,
max, any, all, len, or feeding set/sorted) are exempt; anything else that
is genuinely order-free deserves a suppression comment saying why.""",
    _check_unsorted_iteration)

register_lint_rule(
    "RPL004", "no-shadow-constants",
    "Numeric literals must not duplicate named constants.",
    """The seed's worst control-loop bug was a duplicated constant: the
monitor hard-coded an 8 kbps MI floor while the controller honoured a
configured min_rate_bps of 16 kbps, and the two silently disagreed.  This
rule collects every module-level ALL_CAPS numeric constant across the
linted tree and flags literals elsewhere that repeat a distinctive value
(small counts and round powers of ten are ignored as coincidental).  Use
the named constant, or thread the configured parameter through, so the
value has exactly one owner.""",
    _check_shadow_constants)

register_lint_rule(
    "RPL005", "no-swallowed-broad-except",
    "No bare/broad except that swallows the exception.",
    """A bare 'except:' or 'except Exception:' without a re-raise turns a
crashed worker cell into a silently missing record -- a sweep that
"succeeds" with holes is far worse than one that fails loudly, because
resume will never re-run the hole.  Catch the narrowest exception you can
handle; if a broad catch is genuinely required (a claim evaluator that
must convert any error into a FAIL verdict), suppress with the reason.""",
    _check_swallowed_exceptions)

register_lint_rule(
    "RPL006", "no-mutable-default-arguments",
    "No mutable default arguments in function signatures.",
    """A mutable default ([], {}, set(), dict(), ...) is created once at
definition time and shared by every call -- state leaks across calls, and
in a pooled worker across *cells*, which is exactly the cross-cell
contamination the per-cell derived seeds exist to prevent.  Default to
None and construct the container inside the function.""",
    _check_mutable_defaults)

register_lint_rule(
    "RPL007", "no-kwargs-swallowing-factories",
    "Registered factories must not accept **kwargs they never use.",
    """A factory registered into a NameRegistry is called with config
resolved from cell identity JSON.  If it accepts **kwargs and never reads
them, a misspelled knob or a stale key is absorbed without error: the cell
*records* a configuration it never applied, poisoning every archived
result.  PRs 3-4 closed this class case by case (droppable min_rate_bps,
policy kwargs); this rule closes it for every future registration.  Drop
the **kwargs, or forward it to a constructor that validates keys.""",
    _check_kwargs_swallowing_factories)

register_lint_rule(
    "RPL008", "suppression-hygiene",
    "Suppressions need a rule code and a reason; nothing else is honoured.",
    """The only way to silence a finding is an inline
'# repro-lint: disable=RPLnnn <reason>' comment on the flagged line (or
alone on the line above).  The reason is mandatory: a suppression is a
reviewed, documented exception to a determinism contract, not an opt-out.
Malformed directives, unknown codes and reasonless disables are findings
themselves, and RPL008 cannot be suppressed.""",
    _check_suppression_hygiene)

register_lint_rule(
    "RPL017", "qdisc-factories-attach-rng",
    "Qdisc factories must not draw randomness at construction time.",
    """A queue discipline is constructed by its registered factory before
the link wires it to a simulator, so at construction time there is no
engine RNG to draw from -- the shared random.Random arrives afterwards via
QueueDiscipline.attach_rng().  A factory that draws at build time either
reaches the process-global RNG (breaking byte-identity across workers and
resume, the RPL001 failure mode) or seeds a private stream the cell
identity does not record.  Keep factories pure constructors; random-drop
decisions belong in enqueue/dequeue paths guarded by the attached rng
(which raises RuntimeError when missing).  Import-time registration of the
factory itself is RPL002's job; this rule pins the attach-rng half of the
qdisc contract.""",
    _check_qdisc_factory_rng)


# --------------------------------------------------------------------------
# Driver.


def lint_sources(sources: Dict[str, str]) -> List[Finding]:
    """Lint ``{path: source}`` pairs and return surviving findings, sorted.

    The path is significant: RPL001's scope (the simulation tree) and
    RPL004's cross-file constant table both key off it.  Raises
    ``SyntaxError`` if any source does not parse.
    """
    _ensure_all_rules()
    contexts = [_parse_module(path, source)
                for path, source in sorted(sources.items())]
    constants: Dict[Union[int, float], _ConstantDef] = {}
    for ctx in contexts:
        for definition in _collect_constant_defs(ctx):
            if _distinctive(definition.value):
                constants.setdefault(definition.value, definition)
    findings: List[Finding] = []
    for ctx in contexts:
        ctx.constants = constants
        for _code, rule in RULES.items():
            if rule.check is None:
                continue  # whole-program rule, driven by repro.devtools.units
            for finding in rule.check(ctx):
                if (finding.code != "RPL008"
                        and finding.code in ctx.suppressions.get(finding.line,
                                                                 set())):
                    continue
                findings.append(finding)
    return sorted(findings, key=Finding.sort_key)


def _collect_files(paths: Sequence[str]) -> List[Path]:
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            # Skip compiled-bytecode dirs: a stale __pycache__/*.py (editor
            # artifacts, extraction tools) must never enter the contract
            # check, and walking the dirs at all is wasted I/O.
            files.extend(sorted(
                candidate for candidate in path.rglob("*.py")
                if "__pycache__" not in candidate.parts))
        elif path.is_file():
            files.append(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
    return files


def lint_paths(paths: Sequence[str]) -> List[Finding]:
    """Lint every ``.py`` file under ``paths`` (files or directories)."""
    files = _collect_files(paths)
    return lint_sources({str(path): path.read_text() for path in files})


def _print_explanations(codes: Sequence[str]) -> None:
    expanded = RULES.names() if list(codes) == ["all"] else list(codes)
    for position, code in enumerate(expanded):
        rule = RULES.get(code)
        if position:
            print()
        print(f"{rule.code} ({rule.name})")
        print(f"  {rule.summary}")
        for line in rule.explain.splitlines():
            print(f"  {line}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    0: no findings.  1: findings reported.  2: usage or parse error.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.lint",
        description="AST contract checker for the repro determinism and "
                    "registry invariants.")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as a JSON array for CI annotation")
    parser.add_argument("--explain", nargs="+", metavar="RPLnnn",
                        help="print the rationale for the given rule codes "
                             "('all' for every rule) and exit")
    parser.add_argument("--list", action="store_true",
                        help="list every registered rule code and exit")
    args = parser.parse_args(argv)
    _ensure_all_rules()

    if args.list:
        for code in RULES.names():
            rule = RULES.get(code)
            print(f"{rule.code}  {rule.name:36s} {rule.summary}")
        return 0
    if args.explain:
        try:
            _print_explanations(args.explain)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        return 0

    try:
        findings = lint_paths(args.paths)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except SyntaxError as exc:
        print(f"{exc.filename}:{exc.lineno}:{exc.offset or 0} "
              f"syntax error: {exc.msg}", file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps([finding.as_json() for finding in findings],
                         indent=2))
    else:
        for finding in findings:
            print(finding.render())
        if findings:
            count = len(findings)
            print(f"\n{count} finding{'s' if count != 1 else ''} "
                  f"(see --explain <code> for the contract behind each rule)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
