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
"""

__all__ = ["lint", "units"]
