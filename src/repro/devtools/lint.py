"""``repro.devtools.lint`` — the repo's one static checker.

Every reproduced claim in this repo rests on invariants that used to be
enforced only by convention: simulations draw time and randomness exclusively
from the engine clock and attached RNGs, every ordering that reaches a
result record or rendered report row is canonical, no numeric literal
quietly shadows a configured constant (the seed's duplicated 8 kbps MI floor
was exactly that bug), and every rate, size and time is combined in one
unit.  One command checks all of it::

    python -m repro.devtools.lint src

Each file is parsed once.  The per-module rules in :data:`CHECKS` run on
every module, the whole-program units pass (:mod:`repro.devtools.units`,
RPL011–RPL015) runs over all of them, and one suppression table per module
filters both.  Each rule's contract is its check function's docstring; the
README's "Static analysis" table is the one-line index.  Only the standard
library (``ast`` + ``tokenize``) is used: the checker never imports the code
it checks.

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

from . import units

__all__ = [
    "CHECKS",
    "CODES",
    "Finding",
    "lint_paths",
    "lint_sources",
    "main",
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


_CODE_PATTERN = re.compile(r"RPL\d{3}\Z")


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
            elif code not in CODES:
                ctx.suppression_issues.append(
                    (line, col, f"unknown lint rule {code!r}; known rules: "
                                f"{', '.join(sorted(CODES))}"))
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
    """RPL001: no wall-clock or global-RNG calls inside the simulation tree.

    Simulation, experiment and report code (``src/repro/{netsim,core,cc,
    experiments,report}``) must produce results that are a pure function of
    the cell parameters and the derived seed.  Reading the wall clock
    (``time.time``, ``time.perf_counter``, ``datetime.now``, ...) or the
    process-global RNG (``random.random``, ``numpy.random.*`` without an
    attached Generator) injects state that differs across runs, worker counts
    and resume, which breaks the byte-identity every golden file pins.  Take
    simulated time from the engine clock and randomness from a seeded
    ``random.Random`` / numpy Generator attached to the component.  Wall-time
    *telemetry* stripped from canonical output (``ResultSet`` timings) is the
    one legitimate exception: suppress it with a reason.
    """
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
    """RPL003: iterating a set or ``dict.values()`` needs ``sorted(...)``.

    Everything this repo emits — result records, JSONL lines, rendered
    report rows — must be byte-identical across worker counts, completion
    orders and resume.  Iterating a set (hash order) or a dict's
    ``.values()`` (insertion order, i.e. completion order when workers fill
    the dict) bakes an accidental ordering into the output.  Aggregations
    that cannot observe order (``sum``, ``min``, ``max``, ``any``, ``all``,
    ``len``, or feeding ``set``/``sorted``) are exempt; anything else that is
    genuinely order-free deserves a suppression saying why.
    """
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
    """RPL004: numeric literals must not duplicate named constants.

    The seed's worst control-loop bug was a duplicated constant: the monitor
    hard-coded an 8 kbps MI floor while the controller honoured a configured
    ``min_rate_bps`` of 16 kbps, and the two silently disagreed.  Every
    module-level ALL_CAPS numeric constant across the checked tree is
    collected, and literals elsewhere that repeat a distinctive value are
    flagged (small counts and round powers of ten are coincidental).  Use the
    named constant, or thread the configured parameter through, so the value
    has exactly one owner.
    """
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
    """RPL005: no bare or broad ``except`` that swallows the exception.

    A bare ``except:`` or ``except Exception:`` without a re-raise turns a
    crashed worker cell into a silently missing record — a sweep that
    "succeeds" with holes is far worse than one that fails loudly.  Catch
    the narrowest exception you can handle; if a broad catch is genuinely
    required (a claim evaluator that converts any error into a FAIL
    verdict), suppress with the reason.
    """
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
# RPL008 — suppression hygiene.


def _check_suppression_hygiene(ctx: ModuleContext) -> Iterable[Finding]:
    """RPL008: suppressions need a known rule code and a reason.

    The only way to silence a finding is an inline
    ``# repro-lint: disable=RPLnnn <reason>`` comment on the flagged line
    (or alone on the line above).  The reason is mandatory: a suppression is
    a reviewed, documented exception to a contract, not an opt-out.
    Malformed directives, unknown codes and reasonless disables are findings
    themselves, and RPL008 cannot be suppressed.
    """
    for line, col, message in ctx.suppression_issues:
        yield Finding(path=ctx.path, line=line, col=col, code="RPL008",
                      message=message)


#: The per-module rules, by code.
CHECKS: Dict[str, Callable[[ModuleContext], Iterable[Finding]]] = {
    "RPL001": _check_wall_clock,
    "RPL003": _check_unsorted_iteration,
    "RPL004": _check_shadow_constants,
    "RPL005": _check_swallowed_exceptions,
    "RPL008": _check_suppression_hygiene,
}

#: Every code the checker reports: the per-module rules plus the units pass.
CODES = frozenset(CHECKS) | frozenset(units.CODES)


# --------------------------------------------------------------------------
# Driver.


def lint_sources(sources: Dict[str, str]) -> List[Finding]:
    """Check ``{path: source}`` pairs and return surviving findings, sorted.

    The path is significant: RPL001's scope, RPL004's cross-file constant
    table and the units pass's module names all key off it.  Raises
    ``SyntaxError`` if any source does not parse.
    """
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
        for code in sorted(CHECKS):
            findings.extend(CHECKS[code](ctx))
    findings.extend(Finding(*raw) for raw in units.check_program(
        [(ctx.path, ctx.tree) for ctx in contexts]))
    suppressions = {ctx.path: ctx.suppressions for ctx in contexts}
    return sorted(
        (finding for finding in findings
         if finding.code not in suppressions[finding.path].get(finding.line, ())),
        key=Finding.sort_key)


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
    """Check every ``.py`` file under ``paths`` (files or directories)."""
    files = _collect_files(paths)
    return lint_sources({str(path): path.read_text() for path in files})


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    0: no findings.  1: findings reported.  2: usage or parse error.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.devtools.lint",
        description="Static checker for the repro determinism and "
                    "units-of-measure contracts.")
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to check (default: src)")
    args = parser.parse_args(argv)

    try:
        findings = lint_paths(args.paths)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except SyntaxError as exc:
        print(f"{exc.filename}:{exc.lineno}:{exc.offset or 0} "
              f"syntax error: {exc.msg}", file=sys.stderr)
        return 2

    for finding in findings:
        print(finding.render())
    if findings:
        count = len(findings)
        print(f"\n{count} finding{'s' if count != 1 else ''} (each rule's "
              f"contract is its check's docstring in repro.devtools)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
