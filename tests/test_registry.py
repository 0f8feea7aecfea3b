"""Tests for the shared name-table primitives."""

import pytest

from repro.core import make_utility, utility_names
from repro.experiments.sweep import (
    SweepCell,
    SweepGrid,
    resolve_topology_kwargs,
    topology_names,
)
from repro.experiments.workload import resolve_workload_kwargs, workload_names
from repro.netsim import make_qdisc, qdisc_names
from repro.registry import KwargRegistry, lookup
from repro.report import get_report_spec, report_spec_ids
from repro.schemes import available_schemes, get_scheme


class TestLookup:
    def test_unknown_name_lists_the_table_sorted(self):
        assert lookup({"b": 2, "a": 1}, "widget", "a") == 1
        with pytest.raises(ValueError, match="unknown widget 'c'; registered: a, b"):
            lookup({"b": 2, "a": 1}, "widget", "c")

    @pytest.mark.parametrize("resolve, names, message", [
        (get_scheme, available_schemes,
         "unknown congestion-control scheme 'nope'; known schemes: {}"),
        (make_utility, utility_names, "unknown utility 'nope'; registered: {}"),
        (lambda name: make_qdisc(name, 1e4), qdisc_names,
         "unknown queue discipline 'nope'; registered: {}"),
        (lambda name: resolve_topology_kwargs(name, {}), topology_names,
         "unknown topology 'nope'; registered: {}"),
        (lambda name: resolve_workload_kwargs(name, {}), workload_names,
         "unknown workload 'nope'; registered: {}"),
        (get_report_spec, report_spec_ids,
         "unknown report spec 'nope'; registered: {}"),
    ], ids=["scheme", "utility", "qdisc", "topology", "workload", "report_spec"])
    def test_each_table_names_itself_and_lists_its_names_sorted(
            self, resolve, names, message):
        with pytest.raises(ValueError) as caught:
            resolve("nope")
        assert str(caught.value) == message.format(", ".join(sorted(names())))


def _widgets(**builders):
    return KwargRegistry("widget", "widget_kwargs", ("size",), builders)


# Builders whose options cannot all be read off their signatures.
def _sink(size, **options): ...
def _star(size, *rest): ...
def _no_context(): ...
def _keyword_only_context(*, size=1): ...
def _object_default(size, probe=object()): ...
def _no_default(size, colour="red", *, probe): ...


class TestKwargRegistry:
    def test_options_are_the_builders_keyword_parameters(self):
        def make(size, colour="red", *, weight=1.5):
            return (size, colour, weight)

        registry = _widgets(plain=make)
        assert registry.names() == ["plain"]
        assert registry.get("plain").builder is make
        assert registry.resolve("plain", {}) == {"colour": "red", "weight": 1.5}
        assert registry.resolve("plain", {"weight": 2}) == {
            "colour": "red", "weight": 2}
        assert registry.build("plain", 3, colour="blue") == (3, "blue", 1.5)

    def test_a_class_registers_as_its_own_builder(self):
        class Widget:
            def __init__(self, size, colour="red"):
                self.made = (size, colour)

        registry = _widgets(widget=Widget)
        assert registry.resolve("widget", {}) == {"colour": "red"}
        assert registry.build("widget", 2).made == (2, "red")

    def test_unknown_keys_are_rejected_by_name(self):
        registry = _widgets(plain=lambda size, colour="red": None)
        with pytest.raises(
                ValueError,
                match=r"unknown widget_kwargs for 'plain': \['color', 'hue'\]"):
            registry.resolve("plain", {"hue": 1, "color": 2})
        with pytest.raises(ValueError, match="unknown widget_kwargs"):
            registry.build("plain", 1, hue=1)
        with pytest.raises(ValueError, match="unknown widget 'other'"):
            registry.resolve("other", {})

    def test_resolve_leaves_its_inputs_alone(self):
        registry = _widgets(plain=lambda size, colour="red": None)
        given = {"colour": "blue"}
        resolved = registry.resolve("plain", given)
        resolved["colour"] = "green"
        assert given == {"colour": "blue"}
        assert registry.resolve("plain", {}) == {"colour": "red"}

    @pytest.mark.parametrize("builder, message", [
        (_sink, r"takes \*\*options"),
        (_star, r"takes \*rest"),
        (_no_context, r"must take \(size\) as its leading positional"),
        (_keyword_only_context, r"must take \(size\) as its leading"),
        (_object_default, "option 'probe' with the default <object .*must "
                          "be JSON-serializable"),
        (_no_default, "declares option 'probe' without a default"),
    ], ids=["sink", "star", "no_context", "keyword_only_context",
            "object_default", "no_default"])
    def test_a_builder_that_hides_its_options_is_refused_at_build(
            self, builder, message):
        """Whatever cannot be read off the signature would be simulated but
        never recorded (or never rejected), so it fails where the table is
        built, naming the builder."""
        with pytest.raises(TypeError, match=message) as caught:
            _widgets(fine=lambda size: None, bad=builder)
        assert f"widget builder {builder.__qualname__}" in str(caught.value)

    @pytest.mark.parametrize("fields, message", [
        (dict(qdisc="fq", qdisc_kwargs={"chidl": "codel"}),
         r"unknown qdisc_kwargs for 'fq': \['chidl'\]"),
        (dict(workload="web", workload_kwargs={"laod": 0.5}),
         r"unknown workload_kwargs for 'web': \['laod'\]"),
        (dict(topology="parking_lot", topology_kwargs={"hops": 2}),
         r"unknown topology_kwargs for 'parking_lot': \['hops'\]"),
        (dict(qdisc="nope"), "unknown queue discipline 'nope'; registered: "),
        (dict(qdisc="fq", qdisc_kwargs={"child": "nope"}),
         "unknown queue discipline 'nope'; registered: "),
        (dict(qdisc="fq", qdisc_kwargs={"child": "fq_codel"}),
         "fq children must be non-composed disciplines"),
        (dict(workload="nope"), "unknown workload 'nope'; registered: bulk"),
        (dict(topology="nope"), "unknown topology 'nope'; registered: "),
    ])
    def test_unknown_names_and_keys_fail_where_a_cell_or_grid_is_built(
            self, fields, message):
        with pytest.raises(ValueError, match=message):
            SweepGrid(schemes=("cubic",), **fields)
        with pytest.raises(ValueError, match=message):
            SweepCell(index=0, scheme="cubic", bandwidth_bps=5e6, rtt=0.03,
                      loss_rate=0.0, buffer_bytes=None, num_flows=1,
                      duration=1.0, seed=1, **fields)
