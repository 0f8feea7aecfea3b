"""Tests for the shared name-registry primitives."""

import pytest

from repro.experiments.sweep import SweepCell, SweepGrid, register_topology
from repro.experiments.workload import register_workload
from repro.netsim import register_qdisc
from repro.registry import KwargRegistry, NameRegistry


class TestNameRegistry:
    def test_register_get_names(self):
        registry = NameRegistry("widget")
        registry.register("b", 2)
        registry.register("a", 1)
        assert registry.get("a") == 1
        assert registry.names() == ["a", "b"]
        assert "a" in registry and "c" not in registry

    def test_duplicate_rejected_with_kind_in_message(self):
        registry = NameRegistry("widget")
        registry.register("a", 1)
        with pytest.raises(ValueError, match="widget 'a' is already registered"):
            registry.register("a", 2)

    def test_unknown_name_lists_registered(self):
        registry = NameRegistry("widget")
        registry.register("a", 1)
        registry.register("b", 2)
        with pytest.raises(ValueError, match="unknown widget 'c'; registered: a, b"):
            registry.get("c")


def _widgets():
    return KwargRegistry("widget", "widget_kwargs", ("size",))


class TestKwargRegistry:
    def test_options_are_the_builders_keyword_parameters(self):
        registry = _widgets()

        def make(size, colour="red", *, weight=1.5):
            return (size, colour, weight)

        registry.register("plain", make, tested=True)
        assert registry.names() == ["plain"]
        assert registry.get("plain").tested is True
        assert registry.resolve("plain", {}) == {"colour": "red", "weight": 1.5}
        assert registry.resolve("plain", {"weight": 2}) == {
            "colour": "red", "weight": 2}
        assert registry.build("plain", 3, colour="blue") == (3, "blue", 1.5)

    def test_a_class_registers_as_its_own_builder(self):
        class Widget:
            def __init__(self, size, colour="red"):
                self.made = (size, colour)

        registry = _widgets()
        registry.register("widget", Widget)
        assert registry.resolve("widget", {}) == {"colour": "red"}
        assert registry.build("widget", 2).made == (2, "red")

    def test_unknown_keys_are_rejected_by_name(self):
        registry = _widgets()
        registry.register("plain", lambda size, colour="red": None)
        with pytest.raises(
                ValueError,
                match=r"unknown widget_kwargs for 'plain': \['color', 'hue'\]"):
            registry.resolve("plain", {"hue": 1, "color": 2})
        with pytest.raises(ValueError, match="unknown widget_kwargs"):
            registry.build("plain", 1, hue=1)
        with pytest.raises(ValueError, match="unknown widget 'other'"):
            registry.resolve("other", {})

    def test_resolve_leaves_its_inputs_alone(self):
        registry = _widgets()
        registry.register("plain", lambda size, colour="red": None)
        given = {"colour": "blue"}
        resolved = registry.resolve("plain", given)
        resolved["colour"] = "green"
        assert given == {"colour": "blue"}
        assert registry.resolve("plain", {}) == {"colour": "red"}

    def test_a_builder_that_hides_its_options_is_refused_at_register(self):
        """Whatever cannot be read off the signature would be simulated but
        never recorded (or never rejected), so it fails where the builder is
        registered, naming the builder."""
        def sink(size, **options): ...
        def star(size, *rest): ...
        def no_context(): ...
        def keyword_only_context(*, size=1): ...
        def object_default(size, probe=object()): ...
        def no_default(size, colour="red", *, probe): ...

        registry = _widgets()
        for builder, message in [
            (sink, r"takes \*\*options"),
            (star, r"takes \*rest"),
            (no_context, r"must take \(size\) as its leading positional"),
            (keyword_only_context, r"must take \(size\) as its leading"),
            (object_default, "option 'probe' with the default <object .*must "
                             "be JSON-serializable"),
            (no_default, "declares option 'probe' without a default"),
        ]:
            with pytest.raises(TypeError, match=message) as caught:
                registry.register(builder.__name__, builder)
            assert f"widget builder {builder.__qualname__}" in str(caught.value)
        assert registry.names() == []

    @pytest.mark.parametrize("register", [
        register_qdisc, register_topology, register_workload])
    def test_the_three_public_registers_refuse_the_same_way(self, register):
        def sink(*args, **kwargs): ...
        def undeclared(a, b, c, probe): ...

        for builder in (sink, undeclared):
            with pytest.raises(TypeError, match=builder.__qualname__):
                register("never_registered", builder)

    @pytest.mark.parametrize("fields, message", [
        (dict(qdisc="codel", qdisc_kwargs={"targett": 0.01}),
         r"unknown qdisc_kwargs for 'codel': \['targett'\]"),
        (dict(workload="web", workload_kwargs={"laod": 0.5}),
         r"unknown workload_kwargs for 'web': \['laod'\]"),
        (dict(topology="parking_lot", topology_kwargs={"hops": 2}),
         r"unknown topology_kwargs for 'parking_lot': \['hops'\]"),
        (dict(qdisc="nope"), "unknown queue discipline 'nope'; registered: "),
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
