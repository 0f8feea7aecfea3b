"""Tests for the first-class scheme registry (``repro.schemes``).

The acceptance property is end-to-end pluggability: a scheme registered once
is usable, untouched elsewhere, from ``run_flows``, a ``SweepGrid`` scheme
entry, and the sweep CLI.
"""

import json

import pytest

from repro.cc import NewRenoController
from repro.experiments import run_flows
from repro.experiments.sweep import SweepGrid, main, sweep
from repro.netsim import FlowSpec, Simulator, single_bottleneck
from repro.schemes import available_schemes, get_scheme, register_scheme


# A third-party scheme registered once, at module import time (the same
# contract every registry in the repo imposes, so spawn-method sweep workers
# could re-import it).  A plain Reno subclass keeps the simulation cheap.
class _HalfBetaReno(NewRenoController):
    def __init__(self, beta: float = 0.7, **kwargs):
        super().__init__(**kwargs)
        self.beta = beta


register_scheme("halfreno", _HalfBetaReno, "windowed",
                kwarg_defaults={"beta": 0.7},
                description="test-only Reno with a gentler backoff")


class TestRegistry:
    def test_builtin_base_schemes_registered(self):
        names = available_schemes()
        for name in ["pcc", "cubic", "reno", "newreno", "illinois", "hybla",
                     "vegas", "westwood", "reno_paced", "sabul", "pcp",
                     "parallel_tcp", "halfreno"]:
            assert name in names

    def test_sender_kind_metadata(self):
        assert get_scheme("cubic").sender_kind == "windowed"
        assert get_scheme("pcc").sender_kind == "rate"
        assert get_scheme("sabul").sender_kind == "rate"
        assert get_scheme("parallel_tcp").sender_kind == "bundle"

    def test_unknown_scheme_error_lists_known_schemes(self):
        with pytest.raises(ValueError, match="known schemes: .*halfreno.*pcc"):
            get_scheme("no-such-scheme")
        # A scheme string is a registered name and nothing more.
        with pytest.raises(ValueError, match="known schemes"):
            get_scheme("pcc:latency")

    def test_scheme_strings_are_case_insensitive(self):
        assert get_scheme("CUBIC").name == "cubic"
        assert get_scheme(" Pcc ").name == "pcc"

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scheme("cubic", NewRenoController, "windowed")

    def test_invalid_sender_kind_rejected(self):
        with pytest.raises(ValueError, match="sender_kind"):
            register_scheme("bogus_kind_scheme", NewRenoController, "warped")

    def test_uppercase_names_rejected(self):
        with pytest.raises(ValueError, match="lowercase"):
            register_scheme("Cubic2", NewRenoController, "windowed")


class TestThirdPartySchemeEndToEnd:
    """One registration, three consumers — the tentpole acceptance property."""

    def test_run_flows_builds_the_scheme(self):
        sim = Simulator(seed=1)
        topo = single_bottleneck(sim, 10e6, 0.02, buffer_bytes=50_000)
        result = run_flows(sim, [topo.path], [FlowSpec(scheme="halfreno")],
                           duration=3.0)
        controller = result.flow(0).schemes[0]
        assert isinstance(controller, _HalfBetaReno)
        assert controller.beta == 0.7  # registry default applied
        assert result.flow(0).goodput_bps(3.0) > 1e6

    def test_flow_spec_kwargs_override_registry_defaults(self):
        sim = Simulator(seed=1)
        topo = single_bottleneck(sim, 10e6, 0.02, buffer_bytes=50_000)
        spec = FlowSpec(scheme="halfreno", controller_kwargs={"beta": 0.5})
        result = run_flows(sim, [topo.path], [spec], duration=1.0)
        assert result.flow(0).schemes[0].beta == 0.5

    def test_sweep_grid_accepts_the_scheme_and_records_its_defaults(self):
        grid = SweepGrid(schemes=("halfreno",),
                         bandwidths_bps=(5e6,), duration=2.0)
        result = sweep(grid, base_seed=3, workers=1)
        assert result.goodput_mbps(scheme="halfreno") > 1.0
        (cell,) = result.find(scheme="halfreno")
        assert cell["cell"]["scheme_kwargs"] == {"beta": 0.7}

    def test_cli_accepts_the_scheme(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = main([
            "--schemes", "halfreno",
            "--bandwidth-mbps", "5",
            "--duration", "2",
            "--output", str(out),
        ])
        assert code == 0
        (cell,) = json.loads(out.read_text())["cells"]
        assert cell["cell"]["scheme"] == "halfreno"
        assert cell["cell"]["scheme_kwargs"] == {"beta": 0.7}

    def test_unknown_scheme_fails_at_grid_construction(self):
        """Pre-registry, a typo'd scheme survived grid construction and died
        mid-sweep inside a worker; now the grid rejects it immediately."""
        with pytest.raises(ValueError, match="known schemes"):
            SweepGrid(schemes=("cubik",))


class TestBundleSchemes:
    def test_bundle_kwargs_split_from_subflow_kwargs(self):
        """Registry-declared kwargs configure the bundle; everything else is
        forwarded to the sub-flow controllers."""
        sim = Simulator(seed=2)
        topo = single_bottleneck(sim, 20e6, 0.02, buffer_bytes=75_000)
        spec = FlowSpec(scheme="parallel_tcp",
                        controller_kwargs={"bundle_size": 3,
                                           "bundle_scheme": "reno"})
        result = run_flows(sim, [topo.path], [spec], duration=2.0)
        assert len(result.flow(0).senders) == 3
        assert all(isinstance(c, NewRenoController)
                   for c in result.flow(0).schemes)

    def test_bundle_over_rate_scheme_rejected(self):
        sim = Simulator(seed=2)
        topo = single_bottleneck(sim, 20e6, 0.02, buffer_bytes=75_000)
        spec = FlowSpec(scheme="parallel_tcp",
                        controller_kwargs={"bundle_scheme": "pcc"})
        with pytest.raises(ValueError, match="windowed"):
            run_flows(sim, [topo.path], [spec], duration=1.0)


class TestBundleSubSchemeDefaults:
    def test_subflow_controllers_receive_the_subscheme_registry_defaults(self):
        """The bundle path must merge the sub-scheme's kwarg_defaults exactly
        like the direct path does."""
        sim = Simulator(seed=3)
        topo = single_bottleneck(sim, 20e6, 0.02, buffer_bytes=75_000)
        spec = FlowSpec(scheme="parallel_tcp",
                        controller_kwargs={"bundle_scheme": "halfreno",
                                           "bundle_size": 2})
        result = run_flows(sim, [topo.path], [spec], duration=1.0)
        assert [c.beta for c in result.flow(0).schemes] == [0.7, 0.7]
