"""Compare BENCH_e2e.json files of a parent (A) and a change (B).

    python3 bench/compare.py A.json B.json
    python3 bench/compare.py A1.json B1.json A2.json B2.json ...

Files alternate sides, in the order the paired protocol produces them
(parent, change, parent, change...).  With one file per side the samples of
a metric are the repeats inside each file; with several, the samples are the
per-file medians and file ``i`` of A is paired with file ``i`` of B.

One row per (workload, end-to-end metric) with each side's median and
quartiles and a verdict against the metric's bound in ``BENCHMARK.json``:

``unresolved``  the spread of a side's median is wider than the bound and
                the two sides' samples interleave, so nothing can be said;
``regressed``   B's median is worse than A's by more than the bound;
``improved``    B wins at least nine comparisons in ten and the medians
                differ by more than A's own interquartile range (and, with
                one file per side, by more than the bound: two single runs
                are a look, not a claim — a claim needs ten pairs);
``unchanged``   otherwise.

The spread of a median is (q3 - q1) / median over the per-file medians; with
one file per side it is estimated from the n repeats inside the file as
(q3 - q1) / median / sqrt(n).

Exit status is 1 when any row is ``regressed`` or B fails more cells than A.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
from typing import Any, Dict, List, Optional, Tuple

REPO_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: In the result files but not declared end to end in BENCHMARK.json: at a
#: few milliseconds of file reads it is too unsteady for the pipeline's accept
#: test.  Medians of same-code runs on the reference box differ by up to 2x,
#: so only more than a doubling counts as a regression.
FILE_ONLY_METRICS = (
    {"name": "warm_wall_s", "unit": "s", "better": "lower", "bound": 1.0},
)


def _iqr(samples: List[float]) -> float:
    if len(samples) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q3 - q1


def verdict(a: List[float], b: List[float], bound: float, better: str,
            paired: bool) -> str:
    """Judge B against A for one metric; see the module docstring."""
    sign = 1.0 if better == "lower" else -1.0
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse_by = sign * (med_b - med_a) / med_a
    spread = max(_iqr(a) / med_a, _iqr(b) / med_b)
    if not paired:
        spread /= math.sqrt(min(len(a), len(b)))
    duels = list(zip(a, b)) if paired else [(x, y) for x in a for y in b]
    b_wins = sum(sign * y < sign * x for x, y in duels)
    a_wins = sum(sign * y > sign * x for x, y in duels)
    if spread > bound and 0 < b_wins and 0 < a_wins:
        return "unresolved"
    if worse_by > bound:
        return "regressed"
    if b_wins >= 0.9 * len(duels) and sign * (med_a - med_b) > _iqr(a) \
            and (paired or -worse_by > bound):
        return "improved"
    return "unchanged"


def _by_workload(doc: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    return {entry["workload"]: entry for entry in doc["workloads"]}


def _samples(entries: List[Dict[str, Any]], metric: str) -> List[float]:
    if len(entries) == 1:
        return list(entries[0]["metrics"][metric]["samples"])
    return [entry["metrics"][metric]["value"] for entry in entries]


def _show(samples: List[float]) -> str:
    med = statistics.median(samples)
    if len(samples) < 2:
        return f"{med:.5g} (n=1)"
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return f"{med:.5g} [{q1:.5g}, {q3:.5g}] (n={len(samples)})"


def compare(a_docs: List[Dict[str, Any]], b_docs: List[Dict[str, Any]],
            declared: Dict[str, Any]) -> Tuple[List[str], bool]:
    """The report lines and whether the comparison fails."""
    lines: List[str] = []
    bad = False
    paired = len(a_docs) > 1
    a_sides = [_by_workload(doc) for doc in a_docs]
    b_sides = [_by_workload(doc) for doc in b_docs]
    for workload in [w["name"] for w in declared["workloads"]]:
        a_entries = [side[workload] for side in a_sides if workload in side]
        b_entries = [side[workload] for side in b_sides if workload in side]
        if not a_entries or not b_entries:
            lines.append(f"{workload}: missing on one side, not compared")
            continue
        noisy = [side for side, entries in (("A", a_entries), ("B", b_entries))
                 if any(entry["noisy"] for entry in entries)]
        same = {e["result_digest"] for e in a_entries} == \
            {e["result_digest"] for e in b_entries}
        lines.append(
            f"{workload}: result_digest "
            f"{'identical' if same else 'DIFFERS (simulated results changed)'}"
            + (f"; NOISY runs on side {' and '.join(noisy)}" if noisy else ""))
        for metric in (*declared["end_to_end"], *FILE_ONLY_METRICS):
            name = metric["name"]
            a = _samples(a_entries, name)
            b = _samples(b_entries, name)
            med_a, med_b = statistics.median(a), statistics.median(b)
            word = verdict(a, b, metric["bound"], metric["better"], paired)
            bad = bad or word == "regressed"
            lines.append(
                f"  {name:<16} A {_show(a):<40} B {_show(b):<40} "
                f"B/A {med_b / med_a:.3f} of {med_a:.5g} {metric['unit']}"
                f"  bound {metric['bound']:g}  {word}")
        fail_a = max(entry["fail_share"] for entry in a_entries)
        fail_b = max(entry["fail_share"] for entry in b_entries)
        worse = fail_b > fail_a
        bad = bad or worse
        lines.append(f"  {'fail_share':<16} A {fail_a:g}  B {fail_b:g}  "
                     f"{'LARGER ON B' if worse else 'ok'}")
    return lines, bad


def main(argv: Optional[List[str]] = None) -> int:
    paths = list(sys.argv[1:] if argv is None else argv)
    if len(paths) < 2 or len(paths) % 2:
        print(__doc__, file=sys.stderr)
        return 2
    docs = []
    for path in paths:
        with open(path) as handle:
            docs.append(json.load(handle))
    with open(os.path.join(REPO_DIR, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    lines, bad = compare(docs[0::2], docs[1::2], declared)
    print("\n".join(lines))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
