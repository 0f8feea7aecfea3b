"""Execute report specs into result sets, rows, and evaluated claims.

Every spec's cells are :class:`~repro.experiments.sweep.SweepCell`\\ s
handed to :func:`repro.experiments.execute.execute_cells` with
:func:`~repro.experiments.sweep.run_cell`, exactly as
:func:`~repro.experiments.sweep.sweep` does, so every spec inherits the sweep
layer's guarantees verbatim: cell-exact reuse of a prior (possibly
interrupted) run's cell store, and results that are byte-identical for any
worker count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Union

from ..experiments.execute import execute_cells
from ..experiments.results import ResultSet
from ..experiments.store import CellStore
from ..experiments.sweep import run_cell
from .spec import ClaimResult, ReportSpec, get_report_spec

__all__ = ["SpecOutcome", "evaluate_claims", "run_report_spec"]


@dataclass
class SpecOutcome:
    """Everything one executed spec contributes to the report."""

    spec: ReportSpec
    result: ResultSet
    rows: List[Dict[str, Any]]
    claims: List[ClaimResult]

    def status_counts(self) -> Dict[str, int]:
        """``{status: count}`` over this spec's evaluated claims."""
        counts = {"PASS": 0, "DEVIATION": 0, "FAIL": 0}
        for claim in self.claims:
            counts[claim.status] += 1
        return counts

    def failed(self) -> List[ClaimResult]:
        """The claims whose checks did not hold."""
        return [claim for claim in self.claims if claim.status == "FAIL"]


def evaluate_claims(spec: ReportSpec,
                    rows: List[Dict[str, Any]]) -> List[ClaimResult]:
    """Evaluate every claim of ``spec`` against its extracted rows.

    A pick, comparison or template that raises is reported as FAIL with the
    exception text as the measurement — a claim that cannot even be
    evaluated certainly did not reproduce — so one broken extraction cannot
    abort the whole report.
    """
    out: List[ClaimResult] = []
    for claim in spec.claims:
        try:
            ok, measured = claim.check(rows)
        except Exception as exc:  # repro-lint: disable=RPL005 converted, not swallowed: any check error becomes a FAIL verdict below
            ok, measured = False, f"check raised {type(exc).__name__}: {exc}"
        status = claim.expected_status() if ok else "FAIL"
        out.append(ClaimResult(claim=claim, measured=measured, status=status))
    return out


def run_report_spec(
    spec: Union[str, ReportSpec],
    workers: int = 1,
    jsonl_path: Optional[str] = None,
    profile: bool = False,
    store: Union[str, CellStore, None] = None,
    progress: Optional[bool] = None,
) -> SpecOutcome:
    """Execute one spec (by id or instance) and evaluate its claims.

    ``jsonl_path`` / ``store`` behave exactly as in
    :func:`repro.experiments.sweep.sweep`: records stream to ``jsonl_path``
    as cells complete, and cells already in the content-addressed cell
    ``store`` are not re-simulated, so a report re-run over a warm store
    executes zero cells.  The extracted rows — and therefore the rendered
    report — are byte-identical for any ``workers`` value and for restarted
    versus uninterrupted runs.

    ``profile`` prints each cell's hottest functions to stderr (serial only;
    see :func:`repro.experiments.execute.execute_cells`).
    """
    if isinstance(spec, str):
        spec = get_report_spec(spec)
    run = spec.run
    result = execute_cells(run.cells(), run_cell, run.base_seed,
                           workers=workers, jsonl_path=jsonl_path,
                           profile=profile, store=store, progress=progress)
    rows = spec.rows(result)
    claims = evaluate_claims(spec, rows)
    return SpecOutcome(spec=spec, result=result, rows=rows, claims=claims)
