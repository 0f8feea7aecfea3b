"""The runner and the sweep/result machinery."""

from .runner import FlowResult, ScenarioResult, available_schemes, run_flows
from .results import ResultSet, ResultSetWriter, cell_identity_key
from .store import CellStore, store_key
from .workload import (
    DEFAULT_WORKLOAD,
    build_workload,
    resolve_workload_kwargs,
    workload_names,
)

#: Lazily re-exported from :mod:`.sweep` (PEP 562) so that running the sweep
#: CLI as ``python -m repro.experiments.sweep`` does not import the module
#: twice (once here, once as ``__main__``), which would trigger a runpy
#: warning and duplicate its module-level state.  The ``sweep()`` *function*
#: is deliberately not re-exported at package level — ``repro.experiments.sweep``
#: names the submodule (like ``os.path``); import the function from it:
#: ``from repro.experiments.sweep import sweep``.
_SWEEP_EXPORTS = (
    "SweepCell",
    "SweepGrid",
    "derive_seed",
    "resolve_topology_kwargs",
    "topology_names",
)


def __getattr__(name):
    """Resolve the lazily re-exported sweep names (PEP 562)."""
    if name == "sweep" or name in _SWEEP_EXPORTS:
        import importlib

        module = importlib.import_module(".sweep", __name__)
        # "sweep" resolves to the submodule itself (like os.path) even when it
        # is the first attribute touched; importlib only sets the submodule
        # attribute as a side effect of the first import.
        return module if name == "sweep" else getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "FlowResult",
    "ScenarioResult",
    "available_schemes",
    "run_flows",
    "ResultSet",
    "ResultSetWriter",
    "cell_identity_key",
    "CellStore",
    "store_key",
    "DEFAULT_WORKLOAD",
    "build_workload",
    "resolve_workload_kwargs",
    "workload_names",
    "SweepCell",
    "SweepGrid",
    "derive_seed",
    "resolve_topology_kwargs",
    "topology_names",
]
