"""Fixture-snippet tests for every RPL rule, suppression hygiene, and the
self-check that keeps the checked-in tree lint-clean."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.devtools.lint import (
    get_lint_rule,
    lint_paths,
    lint_rule_names,
    lint_sources,
    main,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

# A path inside RPL001's simulation scope; rules without a scope restriction
# use it too, so one helper covers everything.
SIM_PATH = "src/repro/netsim/snippet.py"


def codes_for(source, path=SIM_PATH, extra=None):
    """Lint one snippet (plus optional extra files) and return finding codes."""
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
# RPL002 — import-time registration


class TestRPL002:
    def test_register_inside_function_triggers(self):
        snippet = "def setup():\n    register_scheme('x', object, 'rate')\n"
        assert "RPL002" in codes_for(snippet)

    def test_register_under_conditional_triggers(self):
        snippet = "import os\nif os.environ.get('X'):\n    register_utility('x', object)\n"
        assert "RPL002" in codes_for(snippet)

    def test_top_level_and_top_level_loop_are_clean(self):
        snippet = (
            "register_scheme('a', object, 'rate')\n"
            "for _name in ('b', 'c'):\n"
            "    register_scheme(_name, object, 'rate')\n"
        )
        assert codes_for(snippet) == []

    def test_registry_method_inside_wrapper_is_clean(self):
        # NameRegistry.register called inside the public register_* wrapper
        # functions is the supported idiom, not a violation.
        snippet = (
            "def register_thing(name, entry):\n"
            "    _THINGS.register(name, entry)\n"
        )
        assert codes_for(snippet) == []


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
# RPL006 — mutable defaults


class TestRPL006:
    def test_list_literal_default_triggers(self):
        snippet = "def f(items=[]):\n    return items\n"
        assert "RPL006" in codes_for(snippet)

    def test_dict_call_default_triggers(self):
        snippet = "def f(*, options=dict()):\n    return options\n"
        assert "RPL006" in codes_for(snippet)

    def test_none_default_is_clean(self):
        snippet = (
            "def f(items=None):\n"
            "    return list(items or [])\n"
        )
        assert codes_for(snippet) == []


# --------------------------------------------------------------------------
# RPL007 — kwargs-swallowing factories


class TestRPL007:
    def test_swallowing_factory_triggers(self):
        snippet = (
            "def make_thing(rate, **kwargs):\n"
            "    return rate\n\n"
            "register_scheme('thing', make_thing, 'rate')\n"
        )
        assert "RPL007" in codes_for(snippet)

    def test_forwarding_factory_is_clean(self):
        snippet = (
            "def make_thing(rate, **kwargs):\n"
            "    return build(rate, **kwargs)\n\n"
            "register_scheme('thing', make_thing, 'rate')\n"
        )
        assert codes_for(snippet) == []

    def test_unregistered_function_is_clean(self):
        snippet = "def helper(**kwargs):\n    return None\n"
        assert codes_for(snippet) == []


# --------------------------------------------------------------------------
# RPL017 — qdisc factories must not draw randomness at construction


class TestRPL017:
    def test_factory_drawing_rng_triggers(self):
        snippet = (
            "import random\n\n"
            "def make_jitter(buffer_bytes):\n"
            "    queue = DropTailQueue(buffer_bytes)\n"
            "    queue.threshold = random.Random(1).uniform(0.1, 0.9)\n"
            "    return queue\n\n"
            "register_qdisc('jitter', make_jitter)\n"
        )
        assert "RPL017" in codes_for(snippet)

    def test_lambda_factory_drawing_triggers(self):
        snippet = (
            "register_qdisc('noisy', lambda buffer_bytes: "
            "NoisyQueue(buffer_bytes, rng.random()))\n"
        )
        assert "RPL017" in codes_for(snippet)

    def test_pure_constructor_factory_is_clean(self):
        snippet = (
            "def make_half(buffer_bytes, fraction=0.5):\n"
            "    return DropTailQueue(buffer_bytes * fraction)\n\n"
            "register_qdisc('half', make_half)\n"
        )
        assert codes_for(snippet) == []

    def test_drawing_outside_register_qdisc_is_not_this_rules_business(self):
        snippet = (
            "def helper(rng):\n"
            "    return rng.random()\n"
        )
        assert "RPL017" not in codes_for(snippet)


# --------------------------------------------------------------------------
# RPL008 + suppression mechanics


class TestSuppression:
    TRIGGER = "import time\n\ndef f():\n    return time.time()"

    def test_same_line_suppression_with_reason(self):
        snippet = ("import time\n\ndef f():\n"
                   "    return time.time()  "
                   "# repro-lint: disable=RPL001 boot banner only\n")
        assert codes_for(snippet) == []

    def test_standalone_line_above_suppression(self):
        snippet = ("import time\n\ndef f():\n"
                   "    # repro-lint: disable=RPL001 boot banner only\n"
                   "    return time.time()\n")
        assert codes_for(snippet) == []

    def test_missing_reason_is_a_finding_and_does_not_suppress(self):
        snippet = ("import time\n\ndef f():\n"
                   "    return time.time()  # repro-lint: disable=RPL001\n")
        codes = codes_for(snippet)
        assert "RPL008" in codes
        assert "RPL001" in codes  # the reasonless disable bought nothing

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


# --------------------------------------------------------------------------
# CLI behaviour


class TestCli:
    def test_explain_documents_every_rule(self, capsys):
        assert main(["--explain", "all"]) == 0
        out = capsys.readouterr().out
        for code in lint_rule_names():
            assert code in out
            assert get_lint_rule(code).summary in out

    def test_explain_unknown_code_fails(self, capsys):
        assert main(["--explain", "RPL999"]) == 2

    def test_list_names_every_rule(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for code in lint_rule_names():
            assert code in out

    def test_findings_exit_nonzero_and_print_location(self, tmp_path, capsys):
        bad = tmp_path / "src" / "repro" / "netsim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\n\ndef f():\n    return time.time()\n")
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert f"{bad}:4:11 RPL001" in out

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("X = 1\n")
        assert main([str(good)]) == 0
        assert capsys.readouterr().out == ""

    def test_json_output_is_machine_readable(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(xs=[]):\n    return xs\n")
        assert main(["--json", str(bad)]) == 1
        findings = json.loads(capsys.readouterr().out)
        assert findings == [{"path": str(bad), "line": 1, "col": 9,
                             "code": "RPL006",
                             "message": findings[0]["message"]}]
        assert "mutable default" in findings[0]["message"]

    def test_missing_path_is_a_usage_error(self, capsys):
        assert main(["does/not/exist"]) == 2

    def test_syntax_error_is_reported_not_crashed(self, tmp_path, capsys):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        assert main([str(bad)]) == 2
        assert "syntax error" in capsys.readouterr().err

    def test_module_entry_point(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(xs=[]):\n    return xs\n")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.devtools.lint", str(bad)],
            capture_output=True, text=True, cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert proc.returncode == 1
        assert "RPL006" in proc.stdout


# --------------------------------------------------------------------------
# The contract the CI job enforces: the checked-in tree is finding-free.


class TestSelfCheck:
    def test_src_is_finding_free(self):
        findings = lint_paths([str(REPO_ROOT / "src")])
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_every_rule_has_explanation_and_summary(self):
        assert len(lint_rule_names()) >= 8
        for code in lint_rule_names():
            rule = get_lint_rule(code)
            assert rule.summary.strip()
            assert len(rule.explain.strip()) > 100


@pytest.mark.parametrize("code", [
    "RPL001", "RPL002", "RPL003", "RPL004",
    "RPL005", "RPL006", "RPL007", "RPL008",
    "RPL017",
])
def test_all_shipped_codes_are_registered(code):
    assert code in lint_rule_names()
