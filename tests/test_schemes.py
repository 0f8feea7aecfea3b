"""Tests for the scheme table (``repro.schemes``).

The acceptance property is end-to-end pluggability: a scheme that is one
line in the table is usable, untouched elsewhere, from ``run_flows``, a
``SweepGrid`` scheme entry, and the sweep CLI.
"""

import json

import pytest

from repro.cc import NewRenoController
from repro.experiments import run_flows
from repro import schemes
from repro.experiments.sweep import SweepCell, SweepGrid, main, sweep
from repro.netsim import FlowSpec, Simulator, single_bottleneck
from repro.schemes import SchemeInfo, available_schemes, get_scheme


# A scheme the table does not hold, added as one more line for the tests that
# use it; a plain Reno subclass with a declared kwarg keeps the simulation
# cheap.
class _HalfBetaReno(NewRenoController):
    def __init__(self, beta: float = 0.7, **kwargs):
        super().__init__(**kwargs)
        self.beta = beta


@pytest.fixture
def halfreno(monkeypatch):
    monkeypatch.setitem(schemes._SCHEMES, "halfreno", SchemeInfo(
        "halfreno", _HalfBetaReno, "windowed", {"beta": 0.7}))


class TestRegistry:
    def test_builtin_base_schemes_registered(self):
        names = available_schemes()
        for name in ["pcc", "cubic", "reno", "newreno", "illinois", "hybla",
                     "vegas", "westwood", "reno_paced", "sabul", "pcp",
                     "parallel_tcp"]:
            assert name in names

    def test_sender_kind_metadata(self):
        assert get_scheme("cubic").sender_kind == "windowed"
        assert get_scheme("pcc").sender_kind == "rate"
        assert get_scheme("sabul").sender_kind == "rate"
        assert get_scheme("parallel_tcp").sender_kind == "bundle"

    def test_unknown_scheme_error_lists_known_schemes(self):
        with pytest.raises(ValueError, match="known schemes: cubic, .*, pcc, "):
            get_scheme("no-such-scheme")
        # A scheme string is a registered name and nothing more.
        with pytest.raises(ValueError, match="known schemes"):
            get_scheme("pcc:latency")

    def test_one_spelling_of_a_scheme_is_one_simulation(self):
        """A cell records its scheme verbatim, so a second spelling of the
        same scheme would label one simulation under two store keys; names
        are looked up exactly as spelled, and a cell refuses any other."""
        for spelling in ("CUBIC", " Pcc ", "cubic "):
            with pytest.raises(ValueError, match="known schemes"):
                get_scheme(spelling)
        with pytest.raises(ValueError, match="unknown congestion-control "
                                             "scheme ' CUBIC'"):
            SweepCell(index=0, scheme=" CUBIC", bandwidth_bps=5e6, rtt=0.03,
                      loss_rate=0.0, buffer_bytes=None, num_flows=1,
                      duration=1.0, seed=1)


@pytest.mark.parametrize("name", available_schemes())
def test_every_table_line_builds_a_flow_that_delivers(name):
    """Nothing checks a table line when it is written: its sender kind must
    be one the runner builds, and a flow of the scheme must move data."""
    assert get_scheme(name).sender_kind in ("windowed", "rate", "bundle")
    sim = Simulator(seed=1)
    topo = single_bottleneck(sim, 10e6, 0.02, buffer_bytes=50_000)
    result = run_flows(sim, [topo.path], [FlowSpec(scheme=name)], duration=2.0)
    assert result.flow(0).goodput_bps(2.0) > 0


class TestNewSchemeEndToEnd:
    """One table line, three consumers — the tentpole acceptance property."""

    def test_run_flows_builds_the_scheme(self, halfreno):
        sim = Simulator(seed=1)
        topo = single_bottleneck(sim, 10e6, 0.02, buffer_bytes=50_000)
        result = run_flows(sim, [topo.path], [FlowSpec(scheme="halfreno")],
                           duration=3.0)
        controller = result.flow(0).schemes[0]
        assert isinstance(controller, _HalfBetaReno)
        assert controller.beta == 0.7  # the table's default applied
        assert result.flow(0).goodput_bps(3.0) > 1e6

    def test_flow_spec_kwargs_override_registry_defaults(self, halfreno):
        sim = Simulator(seed=1)
        topo = single_bottleneck(sim, 10e6, 0.02, buffer_bytes=50_000)
        spec = FlowSpec(scheme="halfreno", controller_kwargs={"beta": 0.5})
        result = run_flows(sim, [topo.path], [spec], duration=1.0)
        assert result.flow(0).schemes[0].beta == 0.5

    def test_sweep_grid_accepts_the_scheme_and_records_its_defaults(
            self, halfreno):
        grid = SweepGrid(schemes=("halfreno",),
                         bandwidths_bps=(5e6,), duration=2.0)
        result = sweep(grid, base_seed=3, workers=1)
        assert result.goodput_mbps(scheme="halfreno") > 1.0
        cell = result.one(scheme="halfreno")
        assert cell["cell"]["scheme_kwargs"] == {"beta": 0.7}

    def test_cli_accepts_the_scheme(self, tmp_path, halfreno):
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
        """A typo'd scheme must not survive grid construction to die
        mid-sweep inside a worker; the grid rejects it immediately."""
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
    def test_subflow_controllers_receive_the_subscheme_registry_defaults(
            self, halfreno):
        """The bundle path must merge the sub-scheme's kwarg_defaults exactly
        like the direct path does."""
        sim = Simulator(seed=3)
        topo = single_bottleneck(sim, 20e6, 0.02, buffer_bytes=75_000)
        spec = FlowSpec(scheme="parallel_tcp",
                        controller_kwargs={"bundle_scheme": "halfreno",
                                           "bundle_size": 2})
        result = run_flows(sim, [topo.path], [spec], duration=1.0)
        assert [c.beta for c in result.flow(0).schemes] == [0.7, 0.7]
