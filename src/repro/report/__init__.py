"""Declarative report layer: regenerate every paper figure/table on command.

``python -m repro.report`` executes the
:class:`~repro.report.spec.ReportSpec` catalog — each spec one figure/table
of the paper's evaluation, expressed as a sweep grid or a list of pinned
sweep cells plus metric extraction and claim predicates — into per-figure
ResultSet JSONL and a single generated ``REPORT.md`` claim ledger with per-claim
PASS / FAIL / DEVIATION status.  Execution reuses the sweep subsystem's
machinery end to end, so reports stream to disk as cells complete, resume
cell-exactly from interrupted runs, and render byte-identically for any
worker count.
"""

from .render import (
    MATRIX_BEGIN,
    MATRIX_END,
    matrix_drift,
    render_matrix,
    render_report,
    render_spec_section,
)
from .run import SpecOutcome, evaluate_claims, run_report_spec
from .spec import (
    CLAIM_STATUSES,
    Claim,
    ClaimResult,
    GridRun,
    ReportSpec,
    ScenarioRun,
    get_report_spec,
    list_report_specs,
    report_spec_ids,
)

__all__ = [
    "CLAIM_STATUSES",
    "Claim",
    "ClaimResult",
    "GridRun",
    "MATRIX_BEGIN",
    "MATRIX_END",
    "ReportSpec",
    "ScenarioRun",
    "SpecOutcome",
    "evaluate_claims",
    "get_report_spec",
    "list_report_specs",
    "matrix_drift",
    "render_matrix",
    "render_report",
    "render_spec_section",
    "report_spec_ids",
    "run_report_spec",
]
