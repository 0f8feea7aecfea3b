"""Developer tooling that machine-enforces the repo's unwritten contracts.

The reproduction's guarantees — byte-identical sweeps across worker counts
and resume, spawn-worker-resolvable registries, canonical orderings in every
rendered artifact — rest on coding invariants that runtime tests can only
probe after the fact.  :mod:`repro.devtools.lint` turns them into static,
import-free checks over the AST, so the bug classes behind the seed's worst
defects (shadow constants, wall-clock reads inside the simulation, orderings
that depend on completion order) are caught before a sweep ever runs.
:mod:`repro.devtools.units` extends the same machinery to units of measure —
dimension- and scale-checking every rate, size and time so a bits/bytes or
s/ms slip is a finding, not a silently corrupted figure.
:mod:`repro.devtools.bench_delta` closes the performance loop: it compares
CI's uploaded pytest-benchmark reports run-over-run and prints a warn-only
wall-time delta, so speed regressions surface on the PR instead of hiding in
an unopened artifact.  :mod:`repro.devtools.bench_trajectory` keeps the
longer view: every CI run appends its report (means plus each benchmark's
``extra_info``) to a rolling ``BENCH_trajectory.json``, so slow drifts that
never trip the pairwise delta threshold show up as a series.
"""

__all__ = ["bench_delta", "bench_trajectory", "lint", "units"]
