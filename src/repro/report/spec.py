"""Declarative report specs: one paper figure/table per :class:`ReportSpec`.

A spec bundles everything needed to regenerate one piece of the paper's
evidence as a machine-checkable artifact:

* **what to run** — either a :class:`GridRun` (one or more
  :class:`~repro.experiments.sweep.SweepGrid`\\ s enumerated under one base
  seed) or a :class:`ScenarioRun` (an explicit list of pinned-seed cells:
  :class:`~repro.experiments.sweep.SweepCell`\\ s, or
  :class:`ScenarioCell`\\ s naming a registered scenario runner plus
  JSON-friendly parameters);
* **what to extract** — a ``rows`` function turning the resulting
  :class:`~repro.experiments.results.ResultSet` into the table the figure
  plots;
* **what to assert** — :class:`Claim`\\ s, each a predicate over the results
  mirroring the paper's quantitative statement, evaluated into
  PASS / FAIL / DEVIATION for the generated ``REPORT.md`` claim ledger.

Specs register in a :class:`~repro.registry.NameRegistry`-backed catalog
(:func:`register_report_spec`); the built-in catalog in
:mod:`repro.report.specs` covers every figure/table of the paper's evaluation
and is loaded lazily on first lookup.  Like every registry in this codebase,
registration must happen at module import time so spawn-method worker
processes can re-resolve scenario-runner names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..experiments.results import ResultSet
from ..experiments.sweep import SweepCell, SweepGrid
from ..registry import NameRegistry

__all__ = [
    "CLAIM_STATUSES",
    "Claim",
    "ClaimResult",
    "GridRun",
    "ReportSpec",
    "ScenarioCell",
    "ScenarioRun",
    "get_report_spec",
    "get_scenario_runner",
    "list_report_specs",
    "register_report_spec",
    "register_scenario_runner",
    "report_spec_ids",
    "scenario_runner_names",
]

#: The three claim-ledger verdicts: the claim held as asserted (``PASS``),
#: held only in the weakened form documented in EXPERIMENTS.md
#: (``DEVIATION``), or did not hold (``FAIL``).
CLAIM_STATUSES = ("PASS", "DEVIATION", "FAIL")

#: A claim check returns ``(ok, measured)``: whether the predicate held, and
#: a deterministic human-readable rendering of the measured values.
ClaimCheckResult = Tuple[bool, str]

#: Claim predicates receive the extracted table rows and the full result set.
ClaimCheckFn = Callable[[List[Dict[str, Any]], ResultSet], ClaimCheckResult]


@dataclass(frozen=True)
class Claim:
    """One quantitative statement from the paper, made machine-checkable.

    ``check(rows, result)`` returns ``(ok, measured)``.  A claim whose
    reproduction is deliberately weaker than the paper's number (scaled
    durations, idealized baselines, ...) carries a ``deviation`` pointer to
    the EXPERIMENTS.md note documenting why; a passing check then reports
    ``DEVIATION`` instead of ``PASS``, so the ledger never overstates what
    was reproduced.
    """

    claim_id: str
    text: str
    check: ClaimCheckFn
    deviation: Optional[str] = None

    def expected_status(self) -> str:
        """The status this claim asserts when its check passes."""
        return "DEVIATION" if self.deviation else "PASS"


@dataclass(frozen=True)
class ClaimResult:
    """The ledger entry an evaluated :class:`Claim` produces."""

    claim: Claim
    measured: str
    status: str

    def __post_init__(self) -> None:
        """Reject verdicts outside the PASS / DEVIATION / FAIL vocabulary."""
        if self.status not in CLAIM_STATUSES:
            raise ValueError(
                f"claim status must be one of {CLAIM_STATUSES}, "
                f"got {self.status!r}"
            )


@dataclass(frozen=True)
class GridRun:
    """Sweep-grid execution: one or more grids sharing one base seed.

    Most figures are a single grid; a spec that sweeps a non-axis parameter
    (e.g. the bundled bandwidth traces, which live in ``topology_kwargs``)
    lists one grid per value.  All grids run under ``base_seed`` and their
    cells stream into one result set / JSONL file; identities stay unique
    because the varied parameter is part of each cell's identity.
    """

    grids: Tuple[SweepGrid, ...]
    base_seed: int

    def __post_init__(self) -> None:
        """Require at least one grid."""
        if not self.grids:
            raise ValueError("a GridRun needs at least one SweepGrid")

    def cells(self) -> List[Any]:
        """Enumerate every grid's cells, concatenated in grid order."""
        out: List[Any] = []
        for grid in self.grids:
            out.extend(grid.cells(self.base_seed))
        return out


_RESERVED_IDENTITY_KEYS = ("index", "scenario", "seed")


@dataclass(frozen=True)
class ScenarioCell:
    """One scenario invocation of a :class:`ScenarioRun`.

    ``runner`` names a function registered via
    :func:`register_scenario_runner`; ``kwargs`` are its JSON-serializable
    keyword arguments and — together with ``index``, the runner name and the
    ``seed`` — form the cell's identity, which keys it in the
    :class:`~repro.experiments.store.CellStore`.  Unlike
    grid cells, the seed is pinned explicitly per cell (not derived), because
    the catalog pins seeds per scenario where trajectories are
    seed-sensitive.
    """

    index: int
    runner: str
    seed: int
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        """Reject kwargs that would collide with the identity's fixed keys."""
        clash = set(self.kwargs) & set(_RESERVED_IDENTITY_KEYS)
        if clash:
            raise ValueError(
                f"scenario kwargs cannot use reserved identity keys "
                f"{sorted(clash)}"
            )

    def params(self) -> Dict[str, Any]:
        """The JSON-friendly identity of this cell (everything but results).

        Same contract as :meth:`repro.experiments.sweep.SweepCell.params`,
        which is what lets :func:`repro.experiments.execute.execute_cells`
        treat grid and scenario cells uniformly.
        """
        return {"index": self.index, "scenario": self.runner,
                "seed": self.seed, **self.kwargs}


@dataclass(frozen=True)
class ScenarioRun:
    """Explicit-cell execution: listed cells, each with a pinned seed.

    A cell is either a :class:`ScenarioCell` or a hand-listed
    :class:`~repro.experiments.sweep.SweepCell` (a figure that is one
    single-bottleneck cell per point but pins its seeds instead of deriving
    them from a grid position).  ``base_seed`` is recorded in the stream
    header; the per-cell seeds live in the cell identities.
    """

    cells_list: Tuple[Union[ScenarioCell, SweepCell], ...]
    base_seed: int

    def cells(self) -> List[Union[ScenarioCell, SweepCell]]:
        """The cells in execution (and canonical) order."""
        return list(self.cells_list)


@dataclass(frozen=True)
class ReportSpec:
    """One paper figure/table: what to run, extract, assert, and render.

    ``rows(result)`` turns the executed :class:`ResultSet` into the list of
    dict rows the figure's table shows, rendered under ``columns``;
    ``claims`` are evaluated against ``(rows, result)`` into the claim
    ledger.  ``sim_seconds`` is a rough cost estimate (total simulated
    seconds) used for ``--list`` and for picking cheap specs in smoke tests.
    """

    spec_id: str
    title: str
    paper_section: str
    run: Union[GridRun, ScenarioRun]
    rows: Callable[[ResultSet], List[Dict[str, Any]]]
    columns: Tuple[str, ...]
    claims: Tuple[Claim, ...]
    sim_seconds: float
    notes: str = ""


_SPECS: NameRegistry[ReportSpec] = NameRegistry("report spec")
_SPEC_ORDER: List[str] = []

_SCENARIO_RUNNERS: NameRegistry[Callable[..., Dict[str, Any]]] = (
    NameRegistry("report scenario runner")
)

_catalog_loaded = False


def _ensure_catalog() -> None:
    """Import the built-in spec catalog exactly once before any lookup."""
    global _catalog_loaded
    if _catalog_loaded:
        return
    # Set the flag before importing: the catalog module calls back into this
    # module's register functions, and the guard keeps that re-entrancy from
    # recursing.  A failed import resets it *and rolls back any partial
    # registrations* (Python drops the half-initialized module from
    # sys.modules, so the next lookup re-runs specs.py from the top; stale
    # entries would turn that retry into a duplicate-name error masking the
    # original exception).
    _catalog_loaded = True
    specs_before = list(_SPEC_ORDER)
    runners_before = set(_SCENARIO_RUNNERS.names())
    try:
        from . import specs  # noqa: F401  (registration side effects)
    except BaseException:
        _catalog_loaded = False
        for spec_id in sorted(set(_SPEC_ORDER) - set(specs_before)):
            _SPECS.discard(spec_id)
        _SPEC_ORDER[:] = specs_before
        for name in sorted(set(_SCENARIO_RUNNERS.names()) - runners_before):
            _SCENARIO_RUNNERS.discard(name)
        raise


def register_report_spec(spec: ReportSpec) -> None:
    """Add ``spec`` to the catalog (duplicate ids are an error).

    Catalog order is registration order, which the built-in catalog keeps
    aligned with the paper's presentation order.
    """
    _SPECS.register(spec.spec_id, spec)
    _SPEC_ORDER.append(spec.spec_id)


def register_scenario_runner(name: str,
                             fn: Callable[..., Dict[str, Any]]) -> None:
    """Register ``fn`` as a scenario runner resolvable from worker processes.

    The runner is called as ``fn(seed=cell.seed, **cell.kwargs)`` (the
    identity-only keys ``index`` and ``scenario`` are *not* passed) and must
    return a JSON-serializable metrics dict that is a pure function of its
    arguments — that purity is what makes report output byte-identical across
    worker counts and store reuse.  Like scheme/topology builders, runners
    must be registered at module import time.
    """
    _SCENARIO_RUNNERS.register(name, fn)


def get_report_spec(spec_id: str) -> ReportSpec:
    """Resolve a spec id, listing the valid ids when it is unknown."""
    _ensure_catalog()
    return _SPECS.get(spec_id)


def get_scenario_runner(name: str) -> Callable[..., Dict[str, Any]]:
    """Resolve a registered scenario-runner name."""
    _ensure_catalog()
    return _SCENARIO_RUNNERS.get(name)


def scenario_runner_names() -> List[str]:
    """All registered scenario-runner names, sorted."""
    _ensure_catalog()
    return _SCENARIO_RUNNERS.names()


def report_spec_ids() -> List[str]:
    """All registered spec ids, in catalog (paper presentation) order."""
    _ensure_catalog()
    return list(_SPEC_ORDER)


def list_report_specs() -> List[ReportSpec]:
    """All registered specs, in catalog order."""
    _ensure_catalog()
    return [_SPECS.get(spec_id) for spec_id in _SPEC_ORDER]
