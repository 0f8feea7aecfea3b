"""Declarative report specs: one paper figure/table per :class:`ReportSpec`.

A spec bundles everything needed to regenerate one piece of the paper's
evidence as a machine-checkable artifact:

* **what to run** — either a :class:`GridRun` (one or more
  :class:`~repro.experiments.sweep.SweepGrid`\\ s enumerated under one base
  seed) or a :class:`ScenarioRun` (an explicit list of
  :class:`~repro.experiments.sweep.SweepCell`\\ s, each with a pinned seed);
  either way every cell is a ``SweepCell`` that
  :func:`~repro.experiments.sweep.run_cell` simulates;
* **what to extract** — a ``rows`` function turning the resulting
  :class:`~repro.experiments.results.ResultSet` into the table the figure
  plots (the analytical ``theorems`` spec runs no cells and computes its
  rows from :mod:`repro.analysis` here);
* **what to assert** — :class:`Claim`\\ s, each the paper's quantitative
  statement as numeric bounds over those rows (never over the result set),
  evaluated into PASS / FAIL / DEVIATION for the generated ``REPORT.md``
  claim ledger.

The catalog is one tuple, ``CATALOG`` in :mod:`repro.report.specs`; it
covers every figure/table of the paper's evaluation and is imported on first
lookup, so a process that never looks a spec up never pays for it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from ..experiments.results import ResultSet
from ..experiments.sweep import SweepCell, SweepGrid
from ..registry import lookup

__all__ = [
    "CLAIM_STATUSES",
    "Claim",
    "ClaimResult",
    "GridRun",
    "ReportSpec",
    "ScenarioRun",
    "get_report_spec",
    "list_report_specs",
    "report_spec_ids",
]

#: The three claim-ledger verdicts: the claim held as asserted (``PASS``),
#: held only in the weakened form documented in EXPERIMENTS.md
#: (``DEVIATION``), or did not hold (``FAIL``).
CLAIM_STATUSES = ("PASS", "DEVIATION", "FAIL")

#: One extracted table row.
Row = Dict[str, Any]

#: What a claim judges: ``(key, value)`` picks the one row whose ``key``
#: equals ``value``, a function of the rows returns one dict or a list of
#: them, and ``None`` is every row.
Pick = Union[None, Tuple[str, Any], Callable[[List[Row]], Union[Row, List[Row]]]]

#: ``(name, op, limit)`` holds when ``v[name] op limit``; ``(name, op,
#: factor, other)`` when ``v[name] op factor * v[other]``.
Bound = Union[Tuple[str, str, Any], Tuple[str, str, float, str]]

_OPS: Dict[str, Callable[[Any, Any], bool]] = {
    ">": operator.gt, "<": operator.lt, "<=": operator.le, "==": operator.eq}


def _holds(values: Row, bound: Bound) -> bool:
    """Whether ``values`` meet one bound."""
    name, op, *rest = bound
    limit = rest[0] if len(rest) == 1 else rest[0] * values[rest[1]]
    return _OPS[op](values[name], limit)


@dataclass(frozen=True)
class Claim:
    """One quantitative statement from the paper, as data over its rows.

    ``pick`` chooses the values to judge from the spec's rows, every bound
    in ``need`` must hold for each of them, and ``measured`` is a
    :meth:`str.format` template over each (a list pick joins its items'
    texts with ``"; "``).  A claim whose reproduction is deliberately weaker
    than the paper's number (scaled durations, idealized baselines, ...)
    carries a ``deviation`` pointer to the EXPERIMENTS.md note documenting
    why; a passing check then reports ``DEVIATION`` instead of ``PASS``, so
    the ledger never overstates what was reproduced.
    """

    claim_id: str
    text: str
    pick: Pick
    need: Tuple[Bound, ...]
    measured: str
    deviation: Optional[str] = None

    def __post_init__(self) -> None:
        """Reject a pick or bound that :meth:`check` could not read."""
        pick = self.pick
        if not (pick is None or callable(pick) or (
                isinstance(pick, tuple) and len(pick) == 2
                and isinstance(pick[0], str))):
            raise ValueError(f"claim {self.claim_id!r}: pick must be None, "
                             f"(key, value) or a function, got {pick!r}")
        for bound in self.need:
            if not (isinstance(bound, tuple) and len(bound) in (3, 4)
                    and isinstance(bound[0], str) and bound[1] in _OPS
                    and (len(bound) == 3 or isinstance(bound[3], str))):
                raise ValueError(
                    f"claim {self.claim_id!r}: a bound is (name, op, limit) "
                    f"or (name, op, factor, other) with op one of "
                    f"{' '.join(_OPS)}, got {bound!r}")

    def expected_status(self) -> str:
        """The status this claim asserts when its check passes."""
        return "DEVIATION" if self.deviation else "PASS"

    def check(self, rows: List[Row]) -> Tuple[bool, str]:
        """``(ok, measured)``: whether every bound held on what was picked."""
        picked = self._pick(rows)
        items = picked if isinstance(picked, list) else [picked]
        ok = all(_holds(item, bound) for item in items for bound in self.need)
        return ok, "; ".join(self.measured.format(**item) for item in items)

    def _pick(self, rows: List[Row]) -> Union[Row, List[Row]]:
        """The row, dict or list of them this claim judges."""
        if self.pick is None:
            return list(rows)
        if callable(self.pick):
            return self.pick(rows)
        key, value = self.pick
        matches = [row for row in rows if row.get(key) == value]
        if len(matches) != 1:
            raise LookupError(f"{len(matches)} rows have {key}={value!r}, "
                              f"expected 1")
        return matches[0]


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

    def cells(self) -> List[SweepCell]:
        """Enumerate every grid's cells, concatenated in grid order."""
        out: List[SweepCell] = []
        for grid in self.grids:
            out.extend(grid.cells(self.base_seed))
        return out


@dataclass(frozen=True)
class ScenarioRun:
    """Explicit-cell execution: hand-listed cells, each with a pinned seed.

    Each cell is a :class:`~repro.experiments.sweep.SweepCell` (a figure that
    is one cell per point but pins its seeds instead of deriving them from a
    grid position).  ``base_seed`` is recorded in the stream header; the
    per-cell seeds live in the cell identities.  The list may be empty: the
    analytical spec runs nothing and computes its rows directly.
    """

    cells_list: Tuple[SweepCell, ...]
    base_seed: int

    def cells(self) -> List[SweepCell]:
        """The cells in execution (and canonical) order."""
        return list(self.cells_list)


@dataclass(frozen=True)
class ReportSpec:
    """One paper figure/table: what to run, extract, assert, and render.

    ``rows(result)`` turns the executed :class:`ResultSet` into the list of
    dict rows the figure's table shows (reading each record it needs with
    :meth:`ResultSet.one`), rendered under ``columns`` (a row may carry more
    keys, for its claims); ``claims`` are evaluated against those rows alone
    into the claim ledger.  What a spec costs follows from ``run``:
    ``--list`` prints its cells and the sum of their durations.
    """

    spec_id: str
    title: str
    paper_section: str
    run: Union[GridRun, ScenarioRun]
    rows: Callable[[ResultSet], List[Dict[str, Any]]]
    columns: Tuple[str, ...]
    claims: Tuple[Claim, ...]
    notes: str = ""


def get_report_spec(spec_id: str) -> ReportSpec:
    """Resolve a spec id, listing the valid ids when it is unknown."""
    from .specs import CATALOG

    return lookup({spec.spec_id: spec for spec in CATALOG}, "report spec",
                  spec_id)


def report_spec_ids() -> List[str]:
    """All spec ids, in catalog (paper presentation) order."""
    from .specs import CATALOG

    return [spec.spec_id for spec in CATALOG]


def list_report_specs() -> List[ReportSpec]:
    """All specs, in catalog order."""
    from .specs import CATALOG

    return list(CATALOG)
