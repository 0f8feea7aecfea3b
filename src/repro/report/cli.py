"""Command-line interface: ``python -m repro.report``.

One command regenerates the paper's evidence::

    python -m repro.report                         # every spec -> REPORT.md
    python -m repro.report --only fig7,table1 \\
        --report subset.md                         # a subset (explicit path)
    python -m repro.report --workers 4 \\
        --jsonl out/ --store cells/                # streamed + restartable
    python -m repro.report --list                  # catalog with costs
    python -m repro.report --matrix                # claim matrix (static)
    python -m repro.report --matrix --check EXPERIMENTS.md   # CI drift gate

``--jsonl`` takes a *directory*; each spec streams to
``<dir>/<spec_id>.jsonl``.  The rendered report is byte-identical for any
``--workers`` value and across ``--store`` restarts.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from ..experiments.execute import PROFILE_TOP_N
from ..experiments.results import write_atomic
from ..experiments.store import CellStore
from .render import matrix_drift, render_matrix, render_report
from .run import SpecOutcome, run_report_spec
from .spec import ReportSpec, list_report_specs, report_spec_ids

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (spec ids resolved dynamically)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.report",
        description="Regenerate the paper's figures/tables as a claim ledger.",
    )
    parser.add_argument("--only", default=None, metavar="IDS",
                        help="comma-separated spec ids to run (default: all); "
                             f"registered: {', '.join(report_spec_ids())}")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes per spec (rendered output is "
                             "identical for any value)")
    parser.add_argument("--profile", action="store_true",
                        help="profile each cell with cProfile and print the "
                             f"top {PROFILE_TOP_N} cumulative entries to "
                             "stderr (serial only; canonical output is "
                             "untouched)")
    parser.add_argument("--report", default=None, metavar="PATH",
                        help="write the rendered claim ledger here (default: "
                             "REPORT.md for full runs; --only subsets must "
                             "name a path explicitly so a partial ledger "
                             "cannot silently overwrite the checked-in full "
                             "one)")
    parser.add_argument("--jsonl", default=None, metavar="DIR",
                        help="stream per-cell records to <DIR>/<spec>.jsonl "
                             "as cells complete")
    parser.add_argument("--store", default=None, metavar="DIR",
                        help="content-addressed cell store shared by every "
                             "spec: stored cells skip execution (across "
                             "runs and sweeps alike), fresh cells are "
                             "stored back as they finish, so re-running an "
                             "interrupted report executes only the rest")
    parser.add_argument("--progress", action="store_true",
                        help="force the live progress/ETA line on stderr "
                             "(default: only when stderr is a terminal)")
    parser.add_argument("--list", action="store_true",
                        help="list the registered specs with cell counts and "
                             "cost estimates, then exit")
    parser.add_argument("--matrix", action="store_true",
                        help="print the static claim-status matrix (no "
                             "simulation), then exit")
    parser.add_argument("--check", default=None, metavar="PATH",
                        help="with --matrix: verify that PATH contains the "
                             "current matrix block; exit 1 on drift")
    return parser


def _select_specs(parser: argparse.ArgumentParser,
                  only: Optional[str]) -> List[ReportSpec]:
    """Resolve ``--only`` into catalog-ordered specs, erroring on unknowns."""
    specs = list_report_specs()
    if only is None:
        return specs
    wanted = [spec_id.strip() for spec_id in only.split(",")
              if spec_id.strip()]
    valid = {spec.spec_id for spec in specs}
    unknown = [spec_id for spec_id in wanted if spec_id not in valid]
    if unknown:
        parser.error(
            f"unknown report spec id(s) {', '.join(sorted(unknown))}; "
            f"valid ids: {', '.join(report_spec_ids())}"
        )
    if not wanted:
        parser.error("--only needs at least one spec id")
    picked = set(wanted)
    return [spec for spec in specs if spec.spec_id in picked]


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the report CLI; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.check is not None and not args.matrix:
        parser.error("--check requires --matrix")
    if args.matrix:
        if args.check is not None:
            drift = matrix_drift(args.check)
            if drift is not None:
                print(drift, file=sys.stderr)
                return 1
            print(f"claim matrix in {args.check} matches the spec catalog")
            return 0
        print(render_matrix())
        return 0
    specs = _select_specs(parser, args.only)
    if args.list:
        print(f"{'spec':<16} {'§':<6} {'cells':>5} {'sim_s':>7}  title")
        for spec in specs:
            cells = len(spec.run.cells())
            print(f"{spec.spec_id:<16} {spec.paper_section:<6} {cells:>5} "
                  f"{spec.sim_seconds:>7.0f}  {spec.title}")
        return 0
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    if args.profile and args.workers != 1:
        parser.error("--profile requires --workers 1 (per-cell profiles from "
                     "concurrent workers would interleave)")
    report_path = args.report
    if report_path is None:
        if args.only is not None:
            # A subset ledger written to the default path would replace the
            # checked-in full-catalog REPORT.md without any warning.
            parser.error("--only produces a partial ledger; name its "
                         "destination explicitly with --report PATH")
        report_path = "REPORT.md"
    if args.jsonl is not None:
        os.makedirs(args.jsonl, exist_ok=True)
    # One store instance spans every spec, so the segment scan happens once
    # and cells computed by an earlier spec in this very run are reusable by
    # a later one.
    store = CellStore(args.store) if args.store is not None else None
    outcomes: List[SpecOutcome] = []
    try:
        for spec in specs:
            jsonl_path = (None if args.jsonl is None else
                          os.path.join(args.jsonl, f"{spec.spec_id}.jsonl"))
            outcome = run_report_spec(spec, workers=args.workers,
                                      jsonl_path=jsonl_path,
                                      profile=args.profile, store=store,
                                      progress=(True if args.progress
                                                else None))
            outcomes.append(outcome)
            counts = outcome.status_counts()
            print(f"{spec.spec_id}: {len(outcome.result)} cells; claims "
                  f"{counts['PASS']} PASS, {counts['DEVIATION']} DEVIATION, "
                  f"{counts['FAIL']} FAIL")
            for failed in outcome.failed():
                print(f"  FAIL {failed.claim.claim_id}: {failed.measured}")
    finally:
        if store is not None:
            store.close()
    # Rendered in full before the destination is touched, and renamed into
    # place: a row that fails to format cannot empty the checked-in ledger.
    write_atomic(report_path, (render_report(outcomes),))
    print(f"wrote {report_path}")
    return 1 if any(outcome.failed() for outcome in outcomes) else 0


if __name__ == "__main__":
    sys.exit(main())
