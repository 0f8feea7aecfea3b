"""Fixture-snippet tests for the per-module RPL rules, suppression hygiene,
the one CLI, and the self-check that keeps the checked-in tree finding-free.
The units rules' snippets live in ``test_units.py``."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools import units
from repro.devtools.lint import CHECKS, CODES, lint_paths, lint_sources, main

REPO_ROOT = Path(__file__).resolve().parents[2]

# A path inside RPL001's simulation scope; rules without a scope restriction
# use it too, so one helper covers everything.
SIM_PATH = "src/repro/netsim/snippet.py"


def codes_for(source, path=SIM_PATH, extra=None):
    """Check one snippet (plus optional extra files) and return finding codes."""
    sources = {path: source}
    if extra:
        sources.update(extra)
    return [f.code for f in lint_sources(sources)]


# --------------------------------------------------------------------------
# RPL001 — wall clock / global RNG


class TestRPL001:
    def test_wall_clock_triggers(self):
        snippet = "import time\n\ndef f():\n    return time.time()\n"
        assert "RPL001" in codes_for(snippet)

    def test_global_random_triggers(self):
        snippet = "import random\n\ndef f():\n    return random.random()\n"
        assert "RPL001" in codes_for(snippet)

    def test_from_import_alias_triggers(self):
        snippet = "from time import perf_counter\n\ndef f():\n    return perf_counter()\n"
        assert "RPL001" in codes_for(snippet)

    def test_numpy_module_rng_triggers(self):
        snippet = "import numpy as np\n\ndef f():\n    return np.random.rand()\n"
        assert "RPL001" in codes_for(snippet)

    def test_datetime_now_triggers(self):
        snippet = "import datetime\n\ndef f():\n    return datetime.datetime.now()\n"
        assert "RPL001" in codes_for(snippet)

    def test_global_seeding_triggers(self):
        snippet = "import random\n\ndef f():\n    random.seed(1)\n"
        assert "RPL001" in codes_for(snippet)

    def test_seeded_instances_are_clean(self):
        snippet = (
            "import random\nimport numpy as np\n\n"
            "def f(seed):\n"
            "    rng = random.Random(seed)\n"
            "    gen = np.random.default_rng(seed)\n"
            "    return rng.random() + gen.random()\n"
        )
        assert codes_for(snippet) == []

    def test_out_of_scope_module_is_clean(self):
        snippet = "import time\n\ndef f():\n    return time.time()\n"
        assert codes_for(snippet, path="src/repro/analysis/snippet.py") == []


# --------------------------------------------------------------------------
# RPL003 — unordered iteration


class TestRPL003:
    def test_for_over_set_call_triggers(self):
        snippet = "def f(xs):\n    for x in set(xs):\n        print(x)\n"
        assert "RPL003" in codes_for(snippet)

    def test_for_over_set_difference_triggers(self):
        snippet = "def f(a, b):\n    for x in set(a) - set(b):\n        print(x)\n"
        assert "RPL003" in codes_for(snippet)

    def test_comprehension_over_values_triggers(self):
        snippet = "def f(d):\n    return [v['x'] for v in d.values()]\n"
        assert "RPL003" in codes_for(snippet)

    def test_comprehension_over_set_comprehension_triggers(self):
        snippet = "def f(xs):\n    return [x for x in {y for y in xs}]\n"
        assert "RPL003" in codes_for(snippet)

    def test_sorted_wrapping_is_clean(self):
        snippet = (
            "def f(xs, d):\n"
            "    for x in sorted(set(xs)):\n"
            "        print(x)\n"
            "    return [v for v in sorted(d.values())]\n"
        )
        assert codes_for(snippet) == []

    def test_order_free_reduction_is_clean(self):
        snippet = "def f(d):\n    return sum(v.n for v in d.values())\n"
        assert codes_for(snippet) == []


# --------------------------------------------------------------------------
# RPL004 — shadow constants


class TestRPL004:
    CONSTANTS = "MIN_RATE_BPS = 8_000.0\nWINDOW = 4096\n"

    def test_duplicate_literal_triggers_cross_file(self):
        snippet = "def floor(rate):\n    return max(rate, 8000.0)\n"
        codes = codes_for(snippet,
                          extra={"src/repro/core/config.py": self.CONSTANTS})
        assert "RPL004" in codes

    def test_duplicate_literal_triggers_in_the_defining_file(self):
        snippet = self.CONSTANTS + "\ndef floor(rate):\n    return max(rate, 8000.0)\n"
        assert codes_for(snippet) == ["RPL004"]

    def test_named_constant_use_is_clean(self):
        snippet = (
            "from .config import MIN_RATE_BPS\n\n"
            "def floor(rate):\n    return max(rate, MIN_RATE_BPS)\n"
        )
        codes = codes_for(snippet,
                          extra={"src/repro/core/config.py": self.CONSTANTS})
        assert codes == []

    def test_trivial_values_do_not_match(self):
        # Values below 1000 and round powers of ten are coincidental, not
        # identities: defining THREE = 3 must not ban the literal 3.
        constants = "THREE = 3\nMILLION = 1_000_000\n"
        snippet = "def f():\n    return 3 + 1_000_000\n"
        codes = codes_for(snippet,
                          extra={"src/repro/core/config.py": constants})
        assert codes == []

    def test_second_definition_site_is_not_flagged(self):
        extra = {"src/repro/core/config.py": "ALPHA_BPS = 48_000.0\n"}
        snippet = "BETA_BPS = 48_000.0\n"
        assert codes_for(snippet, extra=extra) == []


# --------------------------------------------------------------------------
# RPL005 — swallowed broad excepts


class TestRPL005:
    def test_bare_except_triggers(self):
        snippet = "def f():\n    try:\n        g()\n    except:\n        pass\n"
        assert "RPL005" in codes_for(snippet)

    def test_swallowing_broad_except_triggers(self):
        snippet = (
            "def f():\n    try:\n        g()\n"
            "    except Exception:\n        return None\n"
        )
        assert "RPL005" in codes_for(snippet)

    def test_broad_exception_inside_a_tuple_triggers(self):
        snippet = (
            "def f():\n    try:\n        g()\n"
            "    except (ValueError, Exception):\n        return None\n"
        )
        assert "RPL005" in codes_for(snippet)

    def test_reraising_broad_except_is_clean(self):
        snippet = (
            "def f():\n    try:\n        g()\n"
            "    except BaseException:\n        cleanup()\n        raise\n"
        )
        assert codes_for(snippet) == []

    def test_narrow_except_is_clean(self):
        snippet = (
            "def f():\n    try:\n        g()\n"
            "    except ValueError:\n        return None\n"
        )
        assert codes_for(snippet) == []


# --------------------------------------------------------------------------
# RPL008 + suppression mechanics, for per-module and units codes alike

# One trigger per pass: (lines before the flagged line, the flagged line).
TRIGGERS = {
    "RPL001": ("import time\n\ndef f():\n", "    return time.time()"),
    "RPL011": ("def f(rate_bps, rate_mbps):\n", "    return rate_bps + rate_mbps"),
}


class TestSuppression:
    @pytest.mark.parametrize("code", sorted(TRIGGERS))
    def test_same_line_suppression_with_reason(self, code):
        head, flagged = TRIGGERS[code]
        snippet = f"{head}{flagged}  # repro-lint: disable={code} fixture\n"
        assert codes_for(snippet) == []

    @pytest.mark.parametrize("code", sorted(TRIGGERS))
    def test_standalone_line_above_suppression(self, code):
        head, flagged = TRIGGERS[code]
        snippet = f"{head}    # repro-lint: disable={code} fixture\n{flagged}\n"
        assert codes_for(snippet) == []

    @pytest.mark.parametrize("code", sorted(TRIGGERS))
    def test_missing_reason_is_a_finding_and_does_not_suppress(self, code):
        head, flagged = TRIGGERS[code]
        snippet = f"{head}{flagged}  # repro-lint: disable={code}\n"
        assert sorted(codes_for(snippet)) == sorted([code, "RPL008"])

    def test_unknown_code_is_a_finding(self):
        snippet = "x = 1  # repro-lint: disable=RPL999 because\n"
        assert codes_for(snippet) == ["RPL008"]

    def test_malformed_directive_is_a_finding(self):
        snippet = "x = 1  # repro-lint: ignore-everything please\n"
        assert codes_for(snippet) == ["RPL008"]

    def test_rpl008_cannot_be_suppressed(self):
        snippet = "x = 1  # repro-lint: disable=RPL008 turtles all the way\n"
        assert codes_for(snippet) == ["RPL008"]

    def test_unrelated_comments_are_ignored(self):
        snippet = "x = 1  # a normal comment\n"
        assert codes_for(snippet) == []

    def test_per_module_and_units_codes_share_one_table(self):
        snippet = ("x = [1]  # repro-lint: disable=RPL005 fixture\n"
                   "y = [2]  # repro-lint: disable=RPL014 fixture\n")
        assert codes_for(snippet) == []

    def test_malformed_suppression_is_reported_once(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("x = 1  # repro-lint: disable=RPL011\n")
        assert main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert out.count(" RPL008 ") == 1


# --------------------------------------------------------------------------
# CLI behaviour: one command, one option (the paths)


class TestCli:
    def test_findings_of_both_passes_exit_nonzero_with_locations(
            self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "netsim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\n\ndef f(rtt_ms, rtt_s):\n"
                       "    return time.time() + rtt_ms - rtt_s\n")
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert f"{bad}:4:11 RPL001" in out
        assert f"{bad}:4:11 RPL011" in out

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("def f(rate_bps):\n    return rate_bps * 2.0\n")
        assert main([str(good)]) == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("option", ["--json", "--list", "--explain"])
    def test_paths_are_the_only_option(self, option, capsys):
        with pytest.raises(SystemExit) as exc:
            main([option, "src"])
        assert exc.value.code == 2

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
            [sys.executable, "-m", "repro.devtools.lint", str(bad)],
            capture_output=True, text=True, cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert proc.returncode == 1
        assert "RPL014" in proc.stdout


# --------------------------------------------------------------------------
# The contract the CI job enforces: the checked-in tree is finding-free, and
# the README's rule table indexes exactly the codes the checker reports.


class TestSelfCheck:
    def test_src_is_finding_free(self):
        findings = lint_paths([str(REPO_ROOT / "src")])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_readme_table_lists_exactly_the_checkers_codes(self):
        readme = (REPO_ROOT / "README.md").read_text()
        listed = re.findall(r"^\| (RPL\d{3}) \|", readme, re.MULTILINE)
        assert sorted(listed) == sorted(CODES)

    def test_every_check_states_its_contract(self):
        for code, check in CHECKS.items():
            assert check.__doc__.startswith(f"{code}: ")
        for code in units.CODES:
            assert f"\n    {code} — " in units.check_program.__doc__
