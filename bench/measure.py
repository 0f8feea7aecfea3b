"""Untraced measurement of one workload: timed passes, output checks, set-up.

A *pass* runs every part of a workload cold into a fresh ``CellStore`` and
JSONL stream (timed: ``wall_s``, ``cpu_s``), checks the records, then re-runs
the parts against the now warm store and renders the result
(``warm_wall_s``).  Passes repeat until the time budget is spent; each metric
is the median over passes, reported with its quartiles, sample count and the
samples themselves.
"""

from __future__ import annotations

import contextlib
import cProfile
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.netsim import DEFAULT_MSS

from workloads import Part, Workload, render, result_of

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
#: Scratch space for stores and streams; inside the checkout, git-ignored.
WORK_DIR = os.path.join(BENCH_DIR, ".work")

#: Fresh interpreters timed for ``setup_s``.
SETUP_RUNS = 7
#: Seconds of warm re-runs per pass (at most ``MAX_WARM_RERUNS``): the warm
#: half is milliseconds of file reads with a heavy tail, so its median needs
#: many samples.
WARM_SECONDS = 0.4
MAX_WARM_RERUNS = 50
#: Iterations of the calibration spin loop (about 0.1 s on the reference box).
SPIN_ITERATIONS = 2_000_000
#: A workload whose two spins differ by more than this is marked noisy.
SPIN_TOLERANCE = 0.10

CellKey = Tuple[str, int]


def spin() -> float:
    """Seconds a fixed pure-Python loop takes: the machine's speed right now."""
    start = time.perf_counter()
    total = 0
    for i in range(SPIN_ITERATIONS):
        total += i * i
    return time.perf_counter() - start


def summarize(samples: List[float], unit: str) -> Dict[str, Any]:
    """Median, quartiles and count of ``samples`` (quartiles need two)."""
    q1 = q3 = None
    if len(samples) >= 2:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    return {"value": statistics.median(samples), "unit": unit, "q1": q1,
            "q3": q3, "n": len(samples), "samples": list(samples)}


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(["git", *args], cwd=BENCH_DIR, timeout=10,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.SubprocessError):
        return None  # the driver's checkout is not a git repository
    return done.stdout.strip()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> Dict[str, Any]:
    """Where and on what a result file was measured."""
    status = _git("status", "--porcelain")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_1min_start": os.getloadavg()[0],
        "seed": seed,
    }


# --------------------------------------------------------------------------- #
# Output checks
# --------------------------------------------------------------------------- #
def record_digest(record: Dict[str, Any]) -> str:
    """sha256 of a record's identity and simulated statistics.

    The ``engine`` counters are left out: a change that delivers the same
    packets in fewer events must keep this digest.
    """
    kept = {key: value for key, value in record.items() if key != "engine"}
    return hashlib.sha256(
        json.dumps(kept, sort_keys=True).encode()).hexdigest()


def _all_finite(value: Any) -> bool:
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return True
    if isinstance(value, (int, float)):
        return math.isfinite(value)
    if isinstance(value, dict):
        return all(_all_finite(item) for item in value.values())
    if isinstance(value, (list, tuple)):
        return all(_all_finite(item) for item in value)
    return False


def invariant_error(record: Dict[str, Any]) -> Optional[str]:
    """Why a record is physically impossible, or ``None`` if it is sound."""
    if not _all_finite(record):
        return "a value is not finite"
    flows = record.get("flows")
    if flows is None:
        return None
    capacity_mbps = record["cell"]["bandwidth_bps"] / 1e6
    for row in flows:
        if not 0.0 <= row["loss_rate"] <= 1.0:
            return f"loss rate {row['loss_rate']} outside [0, 1]"
        if not 0.0 <= row["goodput_mbps"] <= capacity_mbps * (1 + 1e-9):
            return (f"goodput {row['goodput_mbps']} Mbps outside "
                    f"[0, {capacity_mbps}]")
    if flows and not any(row["goodput_mbps"] > 0 for row in flows):
        return "no flow of the cell delivered anything"
    return None


def delivered_packets(record: Dict[str, Any]) -> float:
    """Simulated MSS-sized packets the record's flows delivered."""
    duration = record["cell"]["duration"]
    return sum(row["goodput_mbps"] for row in record.get("flows", ())) \
        * 1e6 * duration / 8 / DEFAULT_MSS


# --------------------------------------------------------------------------- #
# One pass
# --------------------------------------------------------------------------- #
class PassResult(NamedTuple):
    """What one cold + warm pass over a workload's parts measured."""

    wall_s: float
    cpu_s: float
    warm_wall_s: List[float]
    part_wall_s: Dict[str, float]
    digests: Dict[CellKey, str]
    failed: Dict[CellKey, str]
    packets: float
    flow_cell_wall_s: float
    events: int
    warm_hits: int
    warm_misses: int
    cold_profile: Optional[cProfile.Profile]
    warm_profile: Optional[cProfile.Profile]


def _fail_part(failed: Dict[CellKey, str], part: Part, reason: str) -> None:
    for index in range(part.cells):
        failed.setdefault((part.part_id, index), reason)


def _check_cold(parts: List[Part], cold_outs: Dict[str, Any],
                failed: Dict[CellKey, str],
                ) -> Tuple[Dict[CellKey, str], float, float, int]:
    """Digest and check every cold record; returns the digests and, over the
    cells that report flows, delivered packets, host wall and events."""
    digests: Dict[CellKey, str] = {}
    packets = flow_cell_wall = 0.0
    events = 0
    for part in parts:
        if part.part_id not in cold_outs:
            continue
        result = result_of(cold_outs[part.part_id])
        if len(result) != part.cells:
            _fail_part(failed, part,
                       f"{len(result)} records for {part.cells} cells")
        for record, cell_wall in zip(result.cells, result.timings):
            key = (part.part_id, record["cell"]["index"])
            digests[key] = record_digest(record)
            error = invariant_error(record)
            if error is not None:
                failed.setdefault(key, error)
            if "flows" in record:
                packets += delivered_packets(record)
                flow_cell_wall += cell_wall
                events += record["engine"]["events_processed"]
    return digests, packets, flow_cell_wall, events


def run_pass(parts: List[Part], warm_seconds: float = 0.0,
             profile: bool = False) -> PassResult:
    """Run ``parts`` cold into a fresh store, check them, then run them warm.

    A part that raises fails all its cells and the pass goes on, so the other
    parts are still measured.  The warm half is re-run until ``warm_seconds``
    are spent (once if 0).  With ``profile`` the cold and the warm half each
    run under their own ``cProfile.Profile``.
    """
    os.makedirs(WORK_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK_DIR)
    store_dir = os.path.join(workdir, "store")
    failed: Dict[CellKey, str] = {}
    cold_outs: Dict[str, Any] = {}
    part_wall: Dict[str, float] = {}
    cold_profile = cProfile.Profile() if profile else None
    warm_profile = cProfile.Profile() if profile else None
    program_stderr = io.StringIO()  # the program's "reused N cells" lines
    try:
        gc.collect()
        wall_start, cpu_start = time.perf_counter(), time.process_time()
        with cold_profile or contextlib.nullcontext():
            for part in parts:
                part_start = time.perf_counter()
                try:
                    with contextlib.redirect_stderr(program_stderr):
                        cold_outs[part.part_id] = part.run(
                            os.path.join(workdir, part.part_id + ".jsonl"),
                            store_dir)
                except Exception as exc:  # boundary: reported, not swallowed
                    traceback.print_exc()
                    _fail_part(failed, part, f"raised {type(exc).__name__}")
                part_wall[part.part_id] = time.perf_counter() - part_start
        wall = time.perf_counter() - wall_start
        cpu = time.process_time() - cpu_start
        digests, packets, flow_cell_wall, events = _check_cold(
            parts, cold_outs, failed)

        warm_walls: List[float] = []
        warm_hits = warm_misses = 0
        live = [part for part in parts if part.part_id in cold_outs]
        gc.collect()
        while len(warm_walls) < MAX_WARM_RERUNS:
            warm_start = time.perf_counter()
            try:
                with warm_profile or contextlib.nullcontext(), \
                        contextlib.redirect_stderr(program_stderr):
                    warm_outs = [part.run(None, store_dir) for part in live]
                    render(warm_outs)
            except Exception as exc:  # boundary: reported, not swallowed
                traceback.print_exc()
                for part in live:
                    _fail_part(failed, part,
                               f"warm run raised {type(exc).__name__}")
                break
            warm_walls.append(time.perf_counter() - warm_start)
            reuses = [result_of(out).reuse for out in warm_outs]
            warm_hits = sum(reuse["store_hits"] for reuse in reuses)
            warm_misses = sum(reuse["executed"] for reuse in reuses)
            for part, out, reuse in zip(live, warm_outs, reuses):
                # Every re-run reads the same store, so comparing the bytes
                # once per pass is enough.
                same = len(warm_walls) > 1 or result_of(out).to_json() == \
                    result_of(cold_outs[part.part_id]).to_json()
                if reuse["executed"] or not same:
                    _fail_part(failed, part, "warm result differs from cold")
            if sum(warm_walls) >= warm_seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return PassResult(wall, cpu, warm_walls, part_wall, digests, failed,
                      packets, flow_cell_wall, events, warm_hits, warm_misses,
                      cold_profile, warm_profile)


def describe_failures(failed: Dict[CellKey, str]) -> List[str]:
    """One readable line per failed cell."""
    return [f"{part_id}[{index}]: {reason}"
            for (part_id, index), reason in sorted(failed.items())]


# --------------------------------------------------------------------------- #
# Set-up time
# --------------------------------------------------------------------------- #
def measure_setup(workload_name: str, seed: int, runs: int) -> List[float]:
    """Seconds a fresh interpreter needs before the first cell can start:
    importing the program (catalog and registry registration) and
    enumerating the workload's cells."""
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
               "--workload", workload_name, "--seed", str(seed),
               "--enumerate"]
    samples = []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run(command, check=True, capture_output=True, timeout=120)
        samples.append(time.perf_counter() - start)
    return samples


# --------------------------------------------------------------------------- #
# One workload, end to end
# --------------------------------------------------------------------------- #
def repeat_passes(parts: List[Part], seconds: float, smoke: bool = False,
                  ) -> Tuple[List[PassResult], Dict[CellKey, str]]:
    """Repeat :func:`run_pass` while the next pass still fits in ``seconds``
    (at least twice, so that determinism across repeats is checked; exactly
    once with ``smoke``).  Returns the passes and every failed cell: its
    part raised, an invariant broke, its digest differs between two passes,
    or its warm result differs from the cold one."""
    passes: List[PassResult] = []
    failed: Dict[CellKey, str] = {}
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        done = run_pass(parts, 0.0 if smoke else WARM_SECONDS)
        passes.append(done)
        for key, reason in done.failed.items():
            failed.setdefault(key, reason)
        for key, digest in done.digests.items():
            if passes[0].digests.get(key) != digest:
                failed.setdefault(key, "digest differs between repeats")
        now = time.perf_counter()
        if smoke or (len(passes) >= 2
                     and now - start + (now - pass_start) > seconds):
            return passes, failed


def measure_workload(workload: Workload, seed: int, seconds: float,
                     smoke: bool = False) -> Dict[str, Any]:
    """Every end-to-end metric of ``workload`` at ``seed``, with its checks
    and the noise guard (load average and calibration spins)."""
    loadavg = os.getloadavg()[0]
    spin_before = spin()
    setup = measure_setup(workload.name, seed, 1 if smoke else SETUP_RUNS)
    parts = workload.parts(seed, smoke)
    attempted = sum(part.cells for part in parts)
    passes, failed = repeat_passes(parts, seconds, smoke)
    spin_after = spin()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    first = passes[0]
    all_digests = sorted(first.digests.items())
    result_digest = hashlib.sha256(
        json.dumps(all_digests).encode()).hexdigest()
    metrics = {
        "setup_s": summarize(setup, "s"),
        "wall_s": summarize([p.wall_s for p in passes], "s"),
        "cpu_s": summarize([p.cpu_s for p in passes], "s"),
        "host_us_per_pkt": summarize(
            [p.flow_cell_wall_s / p.packets * 1e6 for p in passes
             if p.packets > 0] or [0.0], "us"),
        "warm_wall_s": summarize(
            [w for p in passes for w in p.warm_wall_s] or [0.0], "s"),
        "peak_rss_mb": summarize([peak_rss_mb], "MB"),
    }
    return {
        "workload": workload.name,
        "seed": seed,
        "repeats": len(passes),
        "attempted": attempted,
        "failed": len(failed),
        "fail_share": len(failed) / attempted,
        "failed_cells": describe_failures(failed),
        "result_digest": result_digest,
        "metrics": metrics,
        "counts": {"packets": first.packets, "events": first.events,
                   "warm_store_hits": first.warm_hits,
                   "warm_store_misses": first.warm_misses},
        "loadavg_1min_start": loadavg,
        "calib_spin_s": [spin_before, spin_after],
        "noisy": bool(
            abs(spin_after - spin_before) / min(spin_before, spin_after)
            > SPIN_TOLERANCE or loadavg > (os.cpu_count() or 1)),
    }
