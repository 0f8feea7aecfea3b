"""Fixture-snippet tests for the RPL01x units-of-measure rules, the shared
suppression grammar, the CLI, and the self-check that keeps the checked-in
tree dimension-clean."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools.lint import get_lint_rule, lint_rule_names
from repro.devtools.units import main, units_findings, units_paths

REPO_ROOT = Path(__file__).resolve().parents[2]

SNIP_PATH = "src/repro/netsim/snippet.py"

UNITS_CODES = ("RPL011", "RPL012", "RPL013", "RPL014", "RPL015", "RPL016")


def codes_for(source, path=SNIP_PATH, extra=None):
    """Check one snippet (plus optional extra files) and return finding codes."""
    sources = {path: source}
    if extra:
        sources.update(extra)
    return [f.code for f in units_findings(sources)]


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

    def test_min_max_arguments_are_checked(self):
        snippet = "def f(rtt_ms, rtt_s):\n    return min(rtt_ms, rtt_s)\n"
        assert "RPL011" in codes_for(snippet)


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

    def test_matching_annotation_is_clean(self):
        snippet = (
            "from repro.units import Seconds\n\n"
            "def f(rtt_s: Seconds):\n    return rtt_s\n"
        )
        assert codes_for(snippet) == []

    def test_plain_float_annotation_is_clean(self):
        snippet = "def f(rtt_s: float):\n    return rtt_s\n"
        assert codes_for(snippet) == []


# --------------------------------------------------------------------------
# RPL016 — non-canonical unit suffix spelling


class TestRPL016:
    def test_sec_suffix_triggers(self):
        snippet = "def f(x):\n    delay_sec = x\n    return delay_sec\n"
        assert "RPL016" in codes_for(snippet)

    def test_msec_parameter_triggers(self):
        snippet = "def f(rtt_msec):\n    return rtt_msec\n"
        assert "RPL016" in codes_for(snippet)

    def test_canonical_spellings_are_clean(self):
        snippet = (
            "def f(rtt_s, rtt_ms, sim_seconds):\n"
            "    return rtt_s + sim_seconds + rtt_ms / 1000.0\n"
        )
        codes = codes_for(snippet)
        assert "RPL016" not in codes

    def test_seconds_suffix_is_grandfathered(self):
        snippet = "def f(sim_seconds):\n    return sim_seconds\n"
        assert codes_for(snippet) == []


# --------------------------------------------------------------------------
# Suppression grammar — shared with repro.devtools.lint


class TestSuppression:
    def test_same_line_suppression_with_reason(self):
        snippet = (
            "def f(rate_bps, rate_mbps):\n"
            "    return rate_bps + rate_mbps  "
            "# repro-lint: disable=RPL011 historical fixture\n"
        )
        assert codes_for(snippet) == []

    def test_standalone_line_above_suppression(self):
        snippet = (
            "def f(rate_bps, rate_mbps):\n"
            "    # repro-lint: disable=RPL011 historical fixture\n"
            "    return rate_bps + rate_mbps\n"
        )
        assert codes_for(snippet) == []

    def test_missing_reason_is_rpl008_and_does_not_suppress(self):
        snippet = (
            "def f(rate_bps, rate_mbps):\n"
            "    return rate_bps + rate_mbps  # repro-lint: disable=RPL011\n"
        )
        codes = codes_for(snippet)
        assert "RPL008" in codes
        assert "RPL011" in codes

    def test_lint_codes_are_valid_in_units_pass(self):
        # The registries are shared: suppressing a *lint* code in a file seen
        # by the units checker is not an unknown-code RPL008.
        snippet = "x = [1]  # repro-lint: disable=RPL006 fixture default\n"
        assert "RPL008" not in codes_for(snippet)


# --------------------------------------------------------------------------
# CLI behaviour


class TestCli:
    def test_explain_documents_every_units_rule(self, capsys):
        assert main(["--explain", *UNITS_CODES]) == 0
        out = capsys.readouterr().out
        for code in UNITS_CODES:
            assert code in out
            assert get_lint_rule(code).summary in out

    def test_explain_unknown_code_fails(self, capsys):
        assert main(["--explain", "RPL999"]) == 2

    def test_list_names_every_units_rule(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for code in UNITS_CODES:
            assert code in out

    def test_findings_exit_nonzero_and_print_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(rtt_msec):\n    return rtt_msec\n")
        assert main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert f"{bad}:1" in out
        assert "RPL016" in out

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("def f(rate_bps):\n    return rate_bps * 2.0\n")
        assert main([str(good)]) == 0
        assert capsys.readouterr().out == ""

    def test_json_output_is_machine_readable(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(rate_mbps):\n    return rate_mbps * 1e6\n")
        assert main(["--json", str(bad)]) == 1
        findings = json.loads(capsys.readouterr().out)
        assert len(findings) == 1
        assert findings[0]["code"] == "RPL014"
        assert findings[0]["path"] == str(bad)
        assert findings[0]["line"] == 2

    def test_missing_path_is_a_usage_error(self, capsys):
        assert main(["does/not/exist"]) == 2

    def test_syntax_error_is_reported_not_crashed(self, tmp_path, capsys):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        assert main([str(bad)]) == 2
        assert "syntax error" in capsys.readouterr().err

    def test_module_entry_point(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(rate_mbps):\n    return rate_mbps * 1e6\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.devtools.units", str(bad)],
            capture_output=True, text=True, cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert proc.returncode == 1
        assert "RPL014" in proc.stdout


# --------------------------------------------------------------------------
# The contract the CI job enforces: the checked-in tree is dimension-clean,
# and every units rule participates in the shared registry.


class TestSelfCheck:
    def test_src_is_units_finding_free(self):
        findings = units_paths([str(REPO_ROOT / "src")])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_units_rules_are_registered_with_lint(self):
        names = lint_rule_names()
        for code in UNITS_CODES:
            assert code in names
            rule = get_lint_rule(code)
            assert rule.summary
            assert len(rule.explain.strip()) > 100

    def test_units_rules_have_no_per_module_check(self):
        # Whole-program rules must not run inside lint_sources' per-module
        # loop; they are owned by the units driver.
        for code in UNITS_CODES:
            assert get_lint_rule(code).check is None
