"""Render executed report specs into the REPORT.md claim ledger.

Everything emitted here is a pure function of the deterministic result
payloads: scalar values go through one fixed formatting helper, rows arrive
in canonical cell order, and nothing time- or host-dependent (wall times,
dates, worker counts) enters the text.  That is what extends the sweep
layer's byte-identity guarantee to the rendered report itself.
"""

from __future__ import annotations

import re
from typing import Any, List, Optional, Sequence

from .run import SpecOutcome
from .spec import list_report_specs

__all__ = [
    "MATRIX_BEGIN",
    "MATRIX_END",
    "matrix_drift",
    "render_matrix",
    "render_report",
    "render_spec_section",
]

#: Markers delimiting the generated claim matrix inside EXPERIMENTS.md; CI
#: regenerates the matrix and fails when the checked-in block drifts.
MATRIX_BEGIN = "<!-- BEGIN CLAIM MATRIX (generated by `python -m repro.report --matrix`; checked in CI) -->"
MATRIX_END = "<!-- END CLAIM MATRIX -->"


def _fmt(value: Any) -> str:
    """Format one table scalar deterministically.

    Floats use ``%.4g`` (enough to tell the paper's ratios apart, short
    enough to read); ``None`` renders as ``n/a``; everything else is ``str``.
    """
    if value is None:
        return "n/a"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


def _table(header: Sequence[str], rows: List[Sequence[Any]]) -> List[str]:
    """Build a GitHub-flavored markdown table as a list of lines."""
    lines = ["| " + " | ".join(str(h) for h in header) + " |",
             "| " + " | ".join("---" for _ in header) + " |"]
    for row in rows:
        lines.append("| " + " | ".join(_fmt(value) for value in row) + " |")
    return lines


def render_spec_section(outcome: SpecOutcome) -> str:
    """Render one spec's section: results table plus its claim ledger."""
    spec = outcome.spec
    lines = [f"## `{spec.spec_id}` — {spec.title} (§{spec.paper_section})", ""]
    if spec.notes:
        lines += [f"*{spec.notes}*", ""]
    lines += _table(spec.columns,
                    [[row.get(column) for column in spec.columns]
                     for row in outcome.rows])
    lines += ["", "**Claims**", ""]
    claim_rows = [
        [claim.status, claim.claim.text, claim.measured,
         claim.claim.deviation or ""]
        for claim in outcome.claims
    ]
    lines += _table(("status", "claim", "measured", "deviation note"),
                    claim_rows)
    return "\n".join(lines)


def render_report(outcomes: List[SpecOutcome]) -> str:
    """Render the full claim ledger for the given executed specs.

    Sections appear in the order given (the CLI passes catalog order); the
    leading summary table counts each spec's claims by status.
    """
    totals = {"PASS": 0, "DEVIATION": 0, "FAIL": 0}
    summary_rows = []
    for outcome in outcomes:
        counts = outcome.status_counts()
        for status, count in counts.items():
            totals[status] += count
        summary_rows.append([
            f"[`{outcome.spec.spec_id}`](#{_anchor(outcome)})",
            outcome.spec.title,
            f"§{outcome.spec.paper_section}",
            len(outcome.result),
            counts["PASS"], counts["DEVIATION"], counts["FAIL"],
        ])
    lines = [
        "# REPORT — reproduced paper claims",
        "",
        "Generated by `python -m repro.report`; do not edit by hand.",
        "Each section regenerates one figure/table of the paper's evaluation",
        "and grades its claims **PASS** (held as asserted), **DEVIATION**",
        "(held in the weakened form documented in EXPERIMENTS.md), or",
        "**FAIL**.  Output is byte-identical for any `--workers` value and",
        "across `--store` restarts.",
        "",
        f"Claims: {totals['PASS']} PASS, {totals['DEVIATION']} DEVIATION, "
        f"{totals['FAIL']} FAIL.",
        "",
    ]
    lines += _table(("spec", "title", "paper", "cells",
                     "PASS", "DEVIATION", "FAIL"), summary_rows)
    for outcome in outcomes:
        lines += ["", render_spec_section(outcome)]
    return "\n".join(lines) + "\n"


def _anchor(outcome: SpecOutcome) -> str:
    """The GitHub anchor slug for a spec's section heading.

    Mirrors GitHub's slugger: lowercase, punctuation removed, every space
    mapped to its own hyphen (runs are *not* collapsed — a removed em-dash
    leaves two spaces and therefore two hyphens).
    """
    heading = (f"{outcome.spec.spec_id} — {outcome.spec.title} "
               f"(§{outcome.spec.paper_section})")
    slug = re.sub(r"[^\w\- ]", "", heading.lower())
    return slug.replace(" ", "-")


def render_matrix() -> str:
    """Render the static claim-status matrix for EXPERIMENTS.md.

    One row per registered claim: which spec regenerates it, which status the
    claim *asserts* when the report runs green (``PASS``, or ``DEVIATION``
    for claims whose thresholds are deliberately weakened), and the deviation
    note.  Purely a function of the spec catalog — no simulation — so CI can
    cheaply verify the checked-in block matches the code.
    """
    rows = []
    for spec in list_report_specs():
        for claim in spec.claims:
            rows.append([
                f"`{spec.spec_id}`",
                f"§{spec.paper_section}",
                f"`{claim.claim_id}`",
                claim.text,
                claim.expected_status(),
                claim.deviation or "",
            ])
    lines = [MATRIX_BEGIN, ""]
    lines += _table(("spec", "paper", "claim id", "claim",
                     "asserted status", "deviation note"), rows)
    lines += ["", MATRIX_END]
    return "\n".join(lines)


def matrix_drift(path: str) -> Optional[str]:
    """Compare the claim matrix block in ``path`` against the catalog.

    Returns ``None`` when the block matches :func:`render_matrix` exactly,
    otherwise a message describing the drift (missing markers count as
    drift).  Used by ``python -m repro.report --matrix --check`` in CI.
    """
    with open(path) as handle:
        text = handle.read()
    begin = text.find(MATRIX_BEGIN)
    end = text.find(MATRIX_END)
    if begin == -1 or end == -1:
        return (f"{path} does not contain the claim-matrix markers; "
                f"insert the output of `python -m repro.report --matrix`")
    checked_in = text[begin:end + len(MATRIX_END)]
    expected = render_matrix()
    if checked_in != expected:
        return (f"claim matrix in {path} is out of date with the spec "
                f"catalog; regenerate it with `python -m repro.report "
                f"--matrix` and paste the block between the markers")
    return None
