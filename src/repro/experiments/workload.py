"""Workload generators: declarative :class:`FlowSpec` schedules for sweeps.

The paper's figures mostly run a handful of long bulk flows, but its FCT
experiment (Figure 15) and its incast one (Figure 10) need arrival processes:
web-style short-flow storms and N-sender incast waves.  This module puts
those generators behind a :class:`~repro.registry.KwargRegistry` — the same
pluggable-by-JSON-name pattern schemes, topologies and queue disciplines
use — so a sweep cell selects its traffic with a ``workload``
name plus declarative kwargs.

Determinism contract: :func:`build_workload` hands every builder a private
``random.Random`` seeded from ``derive_seed(cell.seed, _WORKLOAD_STREAM)``.
The stream is decoupled from the simulator RNG, so generating the schedule
never perturbs the event stream, and it depends only on the cell identity —
the same cell emits a byte-identical schedule regardless of worker count
or restarts, exactly like every other per-cell random stream.

Builders receive ``(cell, rng, **resolved_kwargs)`` and return the list of
:class:`FlowSpec` to run.  ``run_cell`` layers the cell's scheme kwargs
*under* each spec's ``controller_kwargs`` afterwards, so builders only set
per-flow overrides.  The default ``"bulk"`` workload reproduces the
long-running staggered flows every archived sweep ran, and cell identities
record ``workload`` only when it differs from the default, so golden JSON
artifacts stay byte-comparable.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional

from ..registry import KwargRegistry
from ..schemes import get_scheme
from ..units import BITS_PER_BYTE, BYTES_PER_KB
from ..netsim import DEFAULT_MSS, FlowSpec

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .sweep import SweepCell

__all__ = [
    "DEFAULT_WORKLOAD",
    "build_workload",
    "register_workload",
    "resolve_workload_kwargs",
    "validate_workload",
    "workload_names",
]

#: The workload every entry point uses unless told otherwise.  Cell
#: identities record ``workload`` only when it differs from this.
DEFAULT_WORKLOAD = "bulk"

#: Stream tag ("WKLD") mixed into ``derive_seed`` so the workload's random
#: stream never collides with the simulator RNG seeded from the cell seed.
_WORKLOAD_STREAM = 0x574B4C44

#: A workload builder: ``builder(cell, rng, **kwargs) -> List[FlowSpec]``.
WorkloadBuilder = Callable[..., List[FlowSpec]]

_WORKLOADS = KwargRegistry("workload", "workload_kwargs", ("cell", "rng"))


def register_workload(name: str, builder: WorkloadBuilder) -> None:
    """Register ``builder`` under ``name`` for use as a cell's ``workload``.

    ``builder(cell, rng, **kwargs)`` must derive its schedule only from the
    cell's identity fields and the provided ``rng`` (never wall clock or
    global randomness), so the schedule is byte-identical across worker
    counts.  The keyword parameters after ``cell, rng`` in its signature are
    the kwargs it accepts, each with its default; unknown keys are rejected
    at grid-construction time.

    Cells cross the process boundary carrying only the workload *name*;
    each worker resolves it against its own registry, so custom workloads
    must be registered at module import time (top level of an imported
    module) — otherwise multi-worker sweeps fail with "unknown workload".
    """
    _WORKLOADS.register(name, builder)


def resolve_workload_kwargs(name: str, kwargs: Dict[str, Any]) -> Dict[str, Any]:
    """Merge ``kwargs`` over the workload's declared defaults, rejecting keys
    the builder never declared."""
    return _WORKLOADS.resolve(name, kwargs)


def validate_workload(cell: "SweepCell") -> None:
    """Reject, when the cell is constructed, workload kwargs it cannot run.

    Undeclared keys raise ``ValueError``, and so does a per-flow ``schemes``
    list (``bulk``) that names an unknown scheme, has another length than
    ``num_flows``, or puts a non-PCC flow under the cell's ``utility`` — each
    would otherwise fail in a worker.
    """
    kwargs = resolve_workload_kwargs(cell.workload, cell.workload_kwargs)
    schemes = kwargs.get("schemes")
    if schemes is None:
        return
    if len(schemes) != cell.num_flows:
        raise ValueError(
            f"workload {cell.workload!r} lists {len(schemes)} schemes for "
            f"{cell.num_flows} flows; name one per flow")
    for scheme in schemes:
        info = get_scheme(scheme)  # raises when unknown
        # The rule a cell applies to its own scheme: a utility only
        # configures PCC flows.
        if cell.utility is not None and info.name != "pcc":
            raise ValueError(
                f"the utilities axis applies only to pcc schemes, not "
                f"workload scheme {scheme!r}")


def build_workload(cell: "SweepCell") -> List[FlowSpec]:
    """Emit the cell's flow schedule from its registered workload.

    The builder's random stream is derived from the cell seed (not drawn
    from the simulator RNG), so schedule generation leaves the event stream
    untouched and two runs of the same cell — any worker count, restarted
    or not — emit byte-identical schedules.
    """
    from .sweep import derive_seed  # runtime import: sweep imports this module

    rng = random.Random(derive_seed(cell.seed, _WORKLOAD_STREAM))
    return _WORKLOADS.build(cell.workload, cell, rng, **cell.workload_kwargs)


def workload_names() -> List[str]:
    """All registered workload names, sorted."""
    return _WORKLOADS.names()


# --------------------------------------------------------------------------- #
# Built-in workloads
# --------------------------------------------------------------------------- #


def _bulk(cell: "SweepCell", rng: random.Random,
          schemes: Optional[List[str]] = None) -> List[FlowSpec]:
    """The classic sweep traffic: ``num_flows`` long-running flows, flow ``i``
    starting at ``i * stagger`` on path ``i`` — exactly the schedule every
    archived grid ran, so the default workload changes nothing.  ``schemes``
    names flow ``i``'s scheme where the flows differ (Figure 14's one TCP flow
    against selfish competitors); by default every flow runs ``cell.scheme``.
    """
    return [
        FlowSpec(
            scheme=scheme,
            start_time=i * cell.stagger,
            path_index=i,
            label=f"{scheme}-{i}",
        )
        for i, scheme in enumerate(schemes or [cell.scheme] * cell.num_flows)
    ]


def _web(cell: "SweepCell", rng: random.Random, load: float = 0.5,
         size_kb: float = 100.0) -> List[FlowSpec]:
    """Web-style short-flow storm: fixed-size requests arriving Poisson at
    ``load`` of the bottleneck until the cell's duration — Figure 15's
    FCT-vs-load traffic, generalized beyond its four hand-built cells."""
    if not 0.0 < load:
        raise ValueError("load must be positive")
    request_bytes = size_kb * BYTES_PER_KB
    # Flow arrivals per second that offer ``load`` of the bottleneck.
    rate = load * cell.bandwidth_bps / (request_bytes * BITS_PER_BYTE)
    size_bytes = int(round(max(request_bytes, float(DEFAULT_MSS))))
    specs: List[FlowSpec] = []
    now = 0.0
    while True:
        now += rng.expovariate(rate)
        if now >= cell.duration:
            break
        index = len(specs)
        specs.append(FlowSpec(
            scheme=cell.scheme,
            size_bytes=size_bytes,
            start_time=now,
            path_index=index,
            label=f"{cell.scheme}-web-{index}",
        ))
    return specs


def _incast(cell: "SweepCell", rng: random.Random, waves: int = 5,
            wave_interval: float = 1.0, size_kb: float = 50.0,
            jitter: float = 0.0005) -> List[FlowSpec]:
    """N-sender incast: every ``wave_interval`` seconds all ``num_flows``
    senders fire a ``size_kb`` response toward the same sink, each jittered
    by up to ``jitter`` seconds — the synchronized burst that hammers
    shallow buffers."""
    if waves < 1:
        raise ValueError("waves must be at least 1")
    size = int(round(size_kb * BYTES_PER_KB))
    specs: List[FlowSpec] = []
    for wave in range(waves):
        base = wave * wave_interval
        if base >= cell.duration:
            break
        for i in range(cell.num_flows):
            specs.append(FlowSpec(
                scheme=cell.scheme,
                size_bytes=size,
                start_time=base + rng.uniform(0.0, jitter),
                path_index=i,
                label=f"{cell.scheme}-incast-w{wave}-{i}",
            ))
    return specs


register_workload("bulk", _bulk)
register_workload("web", _web)
register_workload("incast", _incast)
