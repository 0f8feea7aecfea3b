"""Fixture-snippet tests for the RPL01x units-of-measure rules, run through
the one checker (suppressions, CLI and self-check live in ``test_lint.py``)."""

import pytest

from repro.devtools.lint import lint_sources

SNIP_PATH = "src/repro/netsim/snippet.py"


def codes_for(source, path=SNIP_PATH, extra=None):
    """Check one snippet (plus optional extra files) and return finding codes."""
    sources = {path: source}
    if extra:
        sources.update(extra)
    return [f.code for f in lint_sources(sources)]


# --------------------------------------------------------------------------
# RPL011 — additive / comparison mixing of incompatible units


class TestRPL011:
    def test_adding_bps_to_mbps_triggers(self):
        snippet = "def f(rate_bps, rate_mbps):\n    return rate_bps + rate_mbps\n"
        assert "RPL011" in codes_for(snippet)

    def test_comparing_ms_to_s_triggers(self):
        snippet = "def f(rtt_ms, rtt_s):\n    return rtt_ms < rtt_s\n"
        assert "RPL011" in codes_for(snippet)

    def test_subtracting_bytes_from_bits_triggers(self):
        snippet = "def f(size_bytes, size_bits):\n    return size_bits - size_bytes\n"
        assert "RPL011" in codes_for(snippet)

    def test_dimension_mismatch_triggers(self):
        snippet = "def f(rate_bps, rtt_s):\n    return rate_bps + rtt_s\n"
        assert "RPL011" in codes_for(snippet)

    def test_same_unit_addition_is_clean(self):
        snippet = "def f(a_bps, b_bps):\n    return a_bps + b_bps\n"
        assert codes_for(snippet) == []

    def test_unit_plus_unitless_is_clean(self):
        snippet = "def f(rtt_s, epsilon):\n    return rtt_s + epsilon\n"
        assert codes_for(snippet) == []

    def test_converted_operand_is_clean(self):
        snippet = (
            "from repro.units import BPS_PER_MBPS\n\n"
            "def f(rate_bps, rate_mbps):\n"
            "    return rate_bps + rate_mbps * BPS_PER_MBPS\n"
        )
        assert codes_for(snippet) == []

    def test_augmented_assignment_mixing_units_triggers(self):
        snippet = (
            "def f(total_bytes, size_bits):\n"
            "    total_bytes += size_bits\n"
            "    return total_bytes\n"
        )
        assert codes_for(snippet) == ["RPL011"]

    def test_min_max_arguments_are_checked(self):
        snippet = "def f(rtt_ms, rtt_s):\n    return min(rtt_ms, rtt_s)\n"
        assert "RPL011" in codes_for(snippet)

    def test_every_suffix_spelling_is_unit_checked(self):
        snippet = "def f(rtt_sec, delay_ms):\n    return rtt_sec + delay_ms\n"
        assert codes_for(snippet) == ["RPL011"]

    @pytest.mark.parametrize("first, second", [
        ("rtt_msecs", "delay_s"),
        ("rtt_millis", "delay_seconds"),
        ("rtt_usec", "delay_ms"),
    ])
    def test_other_spellings_mix_like_canonical_ones(self, first, second):
        snippet = f"def f({first}, {second}):\n    return {first} < {second}\n"
        assert codes_for(snippet) == ["RPL011"]

    def test_spellings_of_one_unit_agree(self):
        snippet = "def f(rtt_sec, delay_s):\n    return rtt_sec + delay_s\n"
        assert codes_for(snippet) == []


# --------------------------------------------------------------------------
# RPL012 — call-site argument/parameter unit mismatch (inter-procedural)


class TestRPL012:
    def test_ms_into_seconds_parameter_triggers(self):
        snippet = (
            "def g(rtt_s):\n    return rtt_s\n\n"
            "def f(rtt_ms):\n    return g(rtt_ms)\n"
        )
        assert "RPL012" in codes_for(snippet)

    def test_cross_module_call_triggers(self):
        helper = "def measure(rtt_s):\n    return rtt_s * 2.0\n"
        caller = (
            "from repro.netsim.helper import measure\n\n"
            "def f(rtt_ms):\n    return measure(rtt_ms)\n"
        )
        assert codes_for(
            caller,
            path="src/repro/netsim/caller.py",
            extra={"src/repro/netsim/helper.py": helper},
        ) == ["RPL012"]

    def test_relative_import_call_triggers(self):
        helper = "def measure(rtt_s):\n    return rtt_s * 2.0\n"
        caller = (
            "from .helper import measure\n\n"
            "def f(rtt_ms):\n    return measure(rtt_ms)\n"
        )
        assert codes_for(
            caller,
            path="src/repro/netsim/caller.py",
            extra={"src/repro/netsim/helper.py": helper},
        ) == ["RPL012"]

    def test_dataclass_keyword_construction_triggers(self):
        config = (
            "from dataclasses import dataclass\n\n"
            "@dataclass\nclass Cfg:\n    delay_s: float\n"
        )
        use = (
            "from repro.netsim.cfg import Cfg\n\n"
            "def f(delay_ms):\n    return Cfg(delay_s=delay_ms)\n"
        )
        assert codes_for(
            use,
            path="src/repro/netsim/use.py",
            extra={"src/repro/netsim/cfg.py": config},
        ) == ["RPL012"]

    def test_kb_attribute_into_bytes_field_triggers(self):
        # The one bug in the history: ``--buffer-kb`` reached a
        # ``buffers_bytes`` field unconverted.
        grid = (
            "from dataclasses import dataclass\n\n"
            "@dataclass\nclass Grid:\n    buffers_bytes: float\n"
        )
        use = (
            "from repro.netsim.grid import Grid\n\n"
            "def f(args):\n    return Grid(buffers_bytes=args.buffer_kb)\n"
        )
        extra = {"src/repro/netsim/grid.py": grid}
        assert codes_for(use, path="src/repro/netsim/use.py",
                         extra=extra) == ["RPL012"]
        converted = use.replace(
            "from repro.netsim.grid import Grid\n",
            "from repro.netsim.grid import Grid\n"
            "from repro.units import BYTES_PER_KB\n").replace(
            "args.buffer_kb", "args.buffer_kb * BYTES_PER_KB")
        assert codes_for(converted, path="src/repro/netsim/use.py",
                         extra=extra) == []

    def test_method_call_binds_when_every_definition_agrees(self):
        snippet = (
            "class A:\n    def wait(self, delay_s):\n        return delay_s\n\n"
            "class B:\n    def wait(self, delay_s):\n        return delay_s\n\n"
            "def f(obj, delay_ms):\n    return obj.wait(delay_ms)\n"
        )
        assert codes_for(snippet) == ["RPL012"]

    def test_method_call_with_disagreeing_definitions_is_unchecked(self):
        snippet = (
            "class A:\n    def wait(self, delay_s):\n        return delay_s\n\n"
            "class B:\n    def wait(self, delay_ms):\n        return delay_ms\n\n"
            "def f(obj, delay_ms):\n    return obj.wait(delay_ms)\n"
        )
        assert codes_for(snippet) == []

    def test_matching_units_are_clean(self):
        snippet = (
            "def g(rtt_s):\n    return rtt_s\n\n"
            "def f(delay_s):\n    return g(delay_s)\n"
        )
        assert codes_for(snippet) == []

    def test_dimensionless_argument_is_clean(self):
        snippet = (
            "def g(rtt_s):\n    return rtt_s\n\n"
            "def f(x):\n    return g(x)\n"
        )
        assert codes_for(snippet) == []

    def test_converted_argument_is_clean(self):
        snippet = (
            "from repro.units import MS_PER_S\n\n"
            "def g(rtt_s):\n    return rtt_s\n\n"
            "def f(rtt_ms):\n    return g(rtt_ms / MS_PER_S)\n"
        )
        assert codes_for(snippet) == []


# --------------------------------------------------------------------------
# RPL013 — returned unit contradicts the annotated return unit


class TestRPL013:
    def test_bytes_returned_from_bps_function_triggers(self):
        snippet = (
            "from repro.units import Bps\n\n"
            "def f(size_bytes) -> Bps:\n    return size_bytes\n"
        )
        assert "RPL013" in codes_for(snippet)

    def test_ms_returned_from_seconds_function_triggers(self):
        snippet = (
            "from repro.units import Seconds\n\n"
            "def f(rtt_ms) -> Seconds:\n    return rtt_ms\n"
        )
        assert "RPL013" in codes_for(snippet)

    def test_suffixed_function_name_declares_its_return_unit(self):
        snippet = "def rate_bps(size_bytes):\n    return size_bytes\n"
        assert codes_for(snippet) == ["RPL013"]

    def test_matching_return_is_clean(self):
        snippet = (
            "from repro.units import Bps\n\n"
            "def f(rate_bps) -> Bps:\n    return rate_bps\n"
        )
        assert codes_for(snippet) == []

    def test_converted_return_is_clean(self):
        snippet = (
            "from repro.units import BITS_PER_BYTE, Bps\n\n"
            "def f(size_bytes, duration_s) -> Bps:\n"
            "    return size_bytes * BITS_PER_BYTE / duration_s\n"
        )
        assert codes_for(snippet) == []

    def test_unannotated_return_is_clean(self):
        snippet = "def f(size_bytes):\n    return size_bytes\n"
        assert codes_for(snippet) == []


# --------------------------------------------------------------------------
# RPL014 — magic conversion literal next to a dimensioned quantity


class TestRPL014:
    def test_literal_1e6_on_mbps_triggers(self):
        snippet = "def f(rate_mbps):\n    rate_bps = rate_mbps * 1e6\n    return rate_bps\n"
        assert "RPL014" in codes_for(snippet)

    def test_literal_8_on_bytes_triggers(self):
        snippet = "def f(size_bytes):\n    size_bits = size_bytes * 8.0\n    return size_bits\n"
        assert "RPL014" in codes_for(snippet)

    def test_dividing_by_literal_1e6_triggers(self):
        snippet = "def f(rate_bps):\n    return rate_bps / 1e6\n"
        assert codes_for(snippet) == ["RPL014"]

    def test_named_constant_is_clean(self):
        snippet = (
            "from repro.units import BPS_PER_MBPS\n\n"
            "def f(rate_mbps):\n"
            "    rate_bps = rate_mbps * BPS_PER_MBPS\n"
            "    return rate_bps\n"
        )
        assert codes_for(snippet) == []

    def test_non_conversion_literal_is_clean(self):
        snippet = "def f(rtt_s):\n    return rtt_s * 2.0\n"
        assert codes_for(snippet) == []

    def test_literal_on_unitless_value_is_clean(self):
        snippet = "def f(count):\n    return count * 1e6\n"
        assert codes_for(snippet) == []

    def test_flagged_literal_still_rescales_downstream(self):
        # The literal is reported once, but the resulting unit is tracked so
        # no spurious RPL011 follows.
        snippet = (
            "def f(rate_mbps, other_bps):\n"
            "    rate_bps = rate_mbps * 1e6\n"
            "    return rate_bps + other_bps\n"
        )
        assert codes_for(snippet) == ["RPL014"]


# --------------------------------------------------------------------------
# RPL015 — suffix contradicts the annotation (or dict-literal value unit)


class TestRPL015:
    def test_parameter_suffix_vs_annotation_triggers(self):
        snippet = (
            "from repro.units import Ms\n\n"
            "def f(rtt_s: Ms):\n    return rtt_s\n"
        )
        assert "RPL015" in codes_for(snippet)

    def test_annotated_assignment_mismatch_triggers(self):
        snippet = (
            "from repro.units import Bps\n\n"
            "def f(x):\n    size_bytes: Bps = x\n    return size_bytes\n"
        )
        assert "RPL015" in codes_for(snippet)

    def test_assigning_another_unit_triggers(self):
        snippet = "def f(rate_bps):\n    rate_mbps = rate_bps\n    return rate_mbps\n"
        assert codes_for(snippet) == ["RPL015"]

    def test_dict_literal_suffixed_key_triggers(self):
        snippet = "def f(rtt_s):\n    return {'rtt_ms': rtt_s}\n"
        assert codes_for(snippet) == ["RPL015"]

    def test_matching_annotation_is_clean(self):
        snippet = (
            "from repro.units import Seconds\n\n"
            "def f(rtt_s: Seconds):\n    return rtt_s\n"
        )
        assert codes_for(snippet) == []

    def test_plain_float_annotation_is_clean(self):
        snippet = "def f(rtt_s: float):\n    return rtt_s\n"
        assert codes_for(snippet) == []
