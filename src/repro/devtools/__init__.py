"""Developer tooling that machine-enforces the repo's unwritten contracts.

The reproduction's guarantees — byte-identical sweeps across worker counts
and resume, spawn-worker-resolvable registries, canonical orderings in every
rendered artifact, one unit per quantity — rest on coding invariants that
runtime tests can only probe after the fact.  ``python -m
repro.devtools.lint`` is the one static checker: :mod:`repro.devtools.lint`
holds the per-module rules, the driver and the CLI, and
:mod:`repro.devtools.units` the whole-program pass that dimension- and
scale-checks every rate, size and time, so a bits/bytes or s/ms slip is a
finding, not a silently corrupted figure.  ``python -m
repro.devtools.rebaseline STORE_DIR`` regenerates every behaviour golden
and prints each value that moved.
"""

__all__ = ["lint", "rebaseline", "units"]
