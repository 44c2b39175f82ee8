"""Tests for ``repro.lint`` — rules, baseline, schema snapshot, CLI gate.

Each rule family gets a good/bad fixture pair: a synthetic project is laid
out under ``tmp_path`` and scanned with a parameterised
:class:`~repro.lint.context.LintConfig`, so the rules are exercised exactly
as they run against the real tree.  The CLI-level tests mirror the default
module names (``repro.sim.shard`` etc.) inside the fixture so ``repro
lint`` itself demonstrates a non-zero exit per seeded family.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main as repro_main
from repro.lint import (
    Baseline,
    LintConfig,
    LintContext,
    apply_baseline,
    diff_key_trees,
    key_tree,
    load_baseline,
    run_rules,
    save_baseline,
)
from repro.lint.rules import all_rules
from repro.lint.schema import (
    diff_bench_snapshot,
    diff_snapshot,
    merge_key_trees,
    snapshot_bench_results,
    snapshot_registry,
)

REPO_ROOT = Path(__file__).resolve().parents[1]

CLEAN_RNG = """
import numpy as np

def make_registry(seed):
    return np.random.default_rng(seed)
"""

CLEAN_SHARD = """
from pkg import worker

def run(task):
    return worker.execute(task)
"""

CLEAN_WORKER = """
from dataclasses import dataclass

@dataclass(frozen=True)
class ShardTask:
    shard_index: int
    user_ids: tuple

def execute(task):
    return len(task.user_ids)
"""

CLEAN_CONFIG = """
from dataclasses import dataclass, field

@dataclass(frozen=True)
class PolicyConfig:
    rate: float = 1.0

@dataclass(frozen=True)
class SimulationConfig:
    num_users: int = 10
    num_intervals: int = 4
    policy: PolicyConfig = field(default_factory=PolicyConfig)
"""

CLEAN_COMPILER = """
from pkg.config import PolicyConfig, SimulationConfig

def compile_spec(spec):
    return SimulationConfig(
        num_users=spec.num_users,
        num_intervals=spec.num_intervals,
        policy=PolicyConfig(rate=spec.rate),
    )
"""

CLEAN_EXPORT = """
import numpy as np

class Result:
    def to_dict(self):
        return {
            "total": float(np.mean(self.values)),
            "per_cell": {str(cell): count for cell, count in self.cells.items()},
        }
"""


def build_project(root: Path, overrides=None, extra=None) -> LintConfig:
    """Write the clean fixture project, with optional file overrides."""
    files = {
        "pkg/__init__.py": "",
        "pkg/rng.py": CLEAN_RNG,
        "pkg/shard.py": CLEAN_SHARD,
        "pkg/worker.py": CLEAN_WORKER,
        "pkg/config.py": CLEAN_CONFIG,
        "pkg/compiler.py": CLEAN_COMPILER,
        "pkg/export.py": CLEAN_EXPORT,
    }
    files.update(overrides or {})
    files.update(extra or {})
    for relpath, text in files.items():
        target = root / "src" / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(text)
    return LintConfig(
        root=root,
        rng_allowed_modules=("pkg.rng",),
        worker_entry_modules=("pkg.shard",),
        spec_configs=(("pkg.config", "SimulationConfig"), ("pkg.config", "PolicyConfig")),
        spec_compiler=("pkg.compiler", "compile_spec"),
    )


def scan(root: Path, overrides=None, extra=None, **config_kwargs):
    config = build_project(root, overrides, extra)
    if config_kwargs:
        from dataclasses import replace

        config = replace(config, **config_kwargs)
    return run_rules(LintContext(config))


def rules_of(findings):
    return sorted({f.rule for f in findings})


class TestCleanFixture:
    def test_clean_project_has_no_findings(self, tmp_path):
        assert scan(tmp_path) == []

    def test_worker_reachability_includes_lazy_imports(self, tmp_path):
        config = build_project(
            tmp_path,
            overrides={
                "pkg/shard.py": (
                    "def run(task):\n"
                    "    from pkg import worker\n"
                    "    return worker.execute(task)\n"
                )
            },
        )
        context = LintContext(config)
        assert "pkg.worker" in context.worker_modules

    def test_every_rule_has_distinct_id_and_hint(self):
        rules = all_rules()
        ids = [rule.rule_id for rule in rules]
        assert len(ids) == len(set(ids))
        assert all(rule.hint for rule in rules)
        for family in ("RNG", "SHARD", "SHM", "EXP", "SPEC"):
            assert any(rule_id.startswith(family) for rule_id in ids), family


class TestRngRules:
    def test_construction_outside_registry_flagged(self, tmp_path):
        findings = scan(
            tmp_path,
            extra={
                "pkg/draws.py": (
                    "import numpy as np\n"
                    "def sample():\n"
                    "    return np.random.default_rng(7).normal()\n"
                )
            },
        )
        assert rules_of(findings) == ["RNG001"]
        assert "default_rng" in findings[0].message

    def test_registry_module_is_exempt(self, tmp_path):
        # CLEAN_RNG constructs default_rng inside pkg.rng — no finding.
        assert scan(tmp_path) == []

    def test_legacy_module_level_draw_flagged(self, tmp_path):
        findings = scan(
            tmp_path,
            extra={
                "pkg/legacy.py": (
                    "import numpy as np\n"
                    "def jitter(x):\n"
                    "    return x + np.random.normal(0.0, 1.0)\n"
                )
            },
        )
        assert rules_of(findings) == ["RNG001"]
        assert "hidden global state" in findings[0].message

    def test_from_import_alias_resolved(self, tmp_path):
        findings = scan(
            tmp_path,
            extra={
                "pkg/aliased.py": (
                    "from numpy.random import default_rng as make\n"
                    "def sample():\n"
                    "    rng = make(3)\n"
                    "    return rng.normal()\n"
                )
            },
        )
        assert rules_of(findings) == ["RNG001"]

    def test_factory_alias_assignment_resolved(self, tmp_path):
        # An aliased constructor bound to a local factory name is still a
        # raw construction at the call through the alias.
        findings = scan(
            tmp_path,
            extra={
                "pkg/factory.py": (
                    "import numpy as np\n"
                    "def sample():\n"
                    "    make = np.random.default_rng\n"
                    "    rng = make(3)\n"
                    "    return rng.normal()\n"
                )
            },
        )
        assert rules_of(findings) == ["RNG001"]
        assert "default_rng" in findings[0].message

    def test_stdlib_random_import_flagged(self, tmp_path):
        findings = scan(
            tmp_path,
            extra={"pkg/bad_random.py": "import random\n"},
        )
        assert rules_of(findings) == ["RNG002"]

    def test_stdlib_from_random_flagged(self, tmp_path):
        findings = scan(
            tmp_path,
            extra={"pkg/bad_random.py": "from random import shuffle\n"},
        )
        assert rules_of(findings) == ["RNG002"]

    @pytest.mark.parametrize(
        "body",
        [
            "    rng = rng if rng is not None else np.random.default_rng(0)\n",
            "    rng = rng or np.random.default_rng(0)\n",
            "    if rng is None:\n        rng = np.random.default_rng(0)\n",
        ],
        ids=["ifexp", "boolop", "if-assign"],
    )
    def test_silent_fallback_shapes_flagged_once(self, tmp_path, body):
        findings = scan(
            tmp_path,
            extra={
                "pkg/fallback.py": (
                    "import numpy as np\n"
                    "def draw(rng=None):\n" + body + "    return rng.normal()\n"
                )
            },
        )
        # RNG003 only: the fallback construction must not double-report
        # as RNG001.
        assert rules_of(findings) == ["RNG003"]
        assert len(findings) == 1
        assert "silent fallback" in findings[0].message

    def test_required_rng_is_clean(self, tmp_path):
        findings = scan(
            tmp_path,
            extra={
                "pkg/required.py": (
                    "def draw(rng):\n"
                    "    if rng is None:\n"
                    "        raise ValueError('rng is required')\n"
                    "    return rng.normal()\n"
                )
            },
        )
        assert findings == []


class TestFlowSensitiveRules:
    """The dataflow upgrade: provenance through locals, returns, callees."""

    def test_helper_returning_generator_flagged_rng004(self, tmp_path):
        findings = scan(
            tmp_path,
            extra={
                "pkg/mint.py": (
                    "import numpy as np\n"
                    "def fresh(seed):\n"
                    "    rng = np.random.default_rng(seed)\n"
                    "    return rng\n"
                )
            },
        )
        assert rules_of(findings) == ["RNG004"]
        assert "unregistered generator" in findings[0].message

    def test_registry_derived_return_is_clean(self, tmp_path):
        # Counterexample: same shape, but the stream has registry
        # provenance — no finding.
        findings = scan(
            tmp_path,
            extra={
                "pkg/derive.py": (
                    "from pkg.rng import make_registry\n"
                    "def fresh(seed):\n"
                    "    rng = make_registry(seed)\n"
                    "    return rng\n"
                )
            },
        )
        assert findings == []

    def test_fallback_through_helper_local_flagged(self, tmp_path):
        # The construction hides behind a local; the provenance pass still
        # ties the fallback expression back to the raw site (RNG003, once).
        findings = scan(
            tmp_path,
            extra={
                "pkg/routed.py": (
                    "import numpy as np\n"
                    "def draw(rng=None):\n"
                    "    fresh = np.random.default_rng(0)\n"
                    "    rng = rng if rng is not None else fresh\n"
                    "    return rng.normal()\n"
                )
            },
        )
        assert rules_of(findings) == ["RNG003"]
        assert len(findings) == 1

    def test_worker_file_read_via_callee_flagged(self, tmp_path):
        findings = scan(
            tmp_path,
            overrides={
                "pkg/shard.py": (
                    "from pkg import loader\n"
                    "def run(task):\n"
                    "    return loader.load_blob(task)\n"
                )
            },
            extra={
                "pkg/loader.py": (
                    "import json\n"
                    "def load_blob(task):\n"
                    "    with open('blob.json') as fh:\n"
                    "        return json.load(fh)\n"
                )
            },
        )
        assert rules_of(findings) == ["SHARD001"]
        assert all("call-time file I/O" in f.message for f in findings)

    def test_module_level_io_is_exempt(self, tmp_path):
        # Import-time reads happen at fork time, before any task runs.
        findings = scan(
            tmp_path,
            overrides={
                "pkg/worker.py": CLEAN_WORKER
                + "\nSCHEMA = open('schema.json').read()\n"
            },
        )
        assert findings == []

    def test_worker_rng_via_callee_flagged_shard004(self, tmp_path):
        findings = scan(
            tmp_path,
            overrides={
                "pkg/shard.py": (
                    "from pkg import entropy\n"
                    "def run(task):\n"
                    "    return entropy.fresh().normal()\n"
                )
            },
            extra={
                "pkg/entropy.py": (
                    "import numpy as np\n"
                    "def fresh():\n"
                    "    return np.random.default_rng(2)\n"
                )
            },
        )
        # RNG004 marks the minting helper; SHARD004 marks the worker-side
        # call site that consumes it.
        assert rules_of(findings) == ["RNG004", "SHARD004"]
        shard = [f for f in findings if f.rule == "SHARD004"]
        assert len(shard) == 1
        assert "fresh" in shard[0].message

    def test_worker_registry_via_callee_is_clean(self, tmp_path):
        # Counterexample: a worker-reachable helper that derives its stream
        # from the registry module must not trip SHARD004.
        findings = scan(
            tmp_path,
            overrides={
                "pkg/shard.py": (
                    "from pkg import entropy\n"
                    "def run(task):\n"
                    "    return entropy.fresh(task).normal()\n"
                )
            },
            extra={
                "pkg/entropy.py": (
                    "from pkg.rng import make_registry\n"
                    "def fresh(key):\n"
                    "    return make_registry(key)\n"
                )
            },
        )
        assert findings == []

    def test_transitive_rng_chain_carries_witness(self, tmp_path):
        # Two hops between the worker entry and the construction: the
        # finding still names the concrete witness line.
        findings = scan(
            tmp_path,
            overrides={
                "pkg/shard.py": (
                    "from pkg import middle\n"
                    "def run(task):\n"
                    "    return middle.draw(task)\n"
                )
            },
            extra={
                "pkg/middle.py": (
                    "from pkg import entropy\n"
                    "def draw(task):\n"
                    "    return entropy.fresh().normal()\n"
                ),
                "pkg/entropy.py": (
                    "import numpy as np\n"
                    "def fresh():\n"
                    "    return np.random.default_rng(2)\n"
                ),
            },
        )
        shard = [f for f in findings if f.rule == "SHARD004"]
        assert shard, rules_of(findings)
        assert all("src/pkg/entropy.py:3" in f.message for f in shard)


class TestShardRules:
    def test_environ_read_in_worker_module_flagged(self, tmp_path):
        findings = scan(
            tmp_path,
            overrides={
                "pkg/worker.py": CLEAN_WORKER
                + "\nimport os\n\ndef tuning():\n    return os.environ.get('REPRO_X')\n"
            },
        )
        assert rules_of(findings) == ["SHARD001"]

    def test_getenv_in_worker_module_flagged(self, tmp_path):
        findings = scan(
            tmp_path,
            overrides={
                "pkg/worker.py": CLEAN_WORKER
                + "\nimport os\n\ndef tuning():\n    return os.getenv('REPRO_X')\n"
            },
        )
        assert rules_of(findings) == ["SHARD001"]

    def test_environ_outside_worker_set_is_clean(self, tmp_path):
        findings = scan(
            tmp_path,
            extra={
                "pkg/driver.py": (
                    "import os\n"
                    "def workers():\n"
                    "    return int(os.environ.get('REPRO_WORKERS', '1'))\n"
                )
            },
        )
        assert findings == []

    def test_task_field_with_generator_flagged(self, tmp_path):
        findings = scan(
            tmp_path,
            overrides={
                "pkg/worker.py": (
                    "from dataclasses import dataclass\n"
                    "import numpy as np\n"
                    "@dataclass(frozen=True)\n"
                    "class ShardTask:\n"
                    "    shard_index: int\n"
                    "    rng: np.random.Generator\n"
                )
            },
        )
        assert rules_of(findings) == ["SHARD002"]
        assert "rng" in findings[0].message

    def test_mutable_module_state_flagged(self, tmp_path):
        findings = scan(
            tmp_path,
            overrides={
                "pkg/worker.py": CLEAN_WORKER + "\n_cache = {}\n"
            },
        )
        assert rules_of(findings) == ["SHARD003"]

    def test_all_caps_lookup_table_exempt(self, tmp_path):
        findings = scan(
            tmp_path,
            overrides={
                "pkg/worker.py": CLEAN_WORKER + "\nMCS_TABLE = {1: 2.0}\n"
            },
        )
        assert findings == []

    def test_global_statement_flagged(self, tmp_path):
        findings = scan(
            tmp_path,
            overrides={
                "pkg/worker.py": CLEAN_WORKER
                + "\n_state = None\n\ndef init(value):\n"
                + "    global _state\n    _state = value\n"
            },
        )
        assert rules_of(findings) == ["SHARD003"]
        assert "_state" in findings[0].message


class TestSharedMemoryRule:
    def test_create_without_cleanup_flagged(self, tmp_path):
        findings = scan(
            tmp_path,
            extra={
                "pkg/plan.py": (
                    "from multiprocessing import shared_memory\n"
                    "class Plan:\n"
                    "    def allocate(self, size):\n"
                    "        self.shm = shared_memory.SharedMemory(\n"
                    "            name='x', create=True, size=size)\n"
                )
            },
        )
        assert rules_of(findings) == ["SHM001"]
        assert "no close() method" in findings[0].message

    def test_create_with_close_unlink_is_clean(self, tmp_path):
        findings = scan(
            tmp_path,
            extra={
                "pkg/plan.py": (
                    "from multiprocessing import shared_memory\n"
                    "class Plan:\n"
                    "    def allocate(self, size):\n"
                    "        self.shm = shared_memory.SharedMemory(\n"
                    "            name='x', create=True, size=size)\n"
                    "    def close(self):\n"
                    "        if self.shm is not None:\n"
                    "            self.shm.close()\n"
                    "            self.shm.unlink()\n"
                    "            self.shm = None\n"
                )
            },
        )
        assert findings == []

    def test_attach_only_is_clean(self, tmp_path):
        findings = scan(
            tmp_path,
            extra={
                "pkg/view.py": (
                    "from multiprocessing import shared_memory\n"
                    "def attach(name):\n"
                    "    return shared_memory.SharedMemory(name=name)\n"
                )
            },
        )
        assert findings == []


class TestExportRules:
    def test_non_string_constant_key_flagged(self, tmp_path):
        findings = scan(
            tmp_path,
            overrides={
                "pkg/export.py": (
                    "class Result:\n"
                    "    def to_dict(self):\n"
                    "        return {1: 'one'}\n"
                )
            },
        )
        assert rules_of(findings) == ["EXP001"]

    def test_uncoerced_dynamic_key_flagged(self, tmp_path):
        findings = scan(
            tmp_path,
            overrides={
                "pkg/export.py": (
                    "class Result:\n"
                    "    def to_dict(self):\n"
                    "        return {cell: n for cell, n in self.cells.items()}\n"
                )
            },
        )
        assert rules_of(findings) == ["EXP001"]
        assert "not visibly str-coerced" in findings[0].message

    def test_str_coerced_and_fstring_keys_clean(self, tmp_path):
        findings = scan(
            tmp_path,
            overrides={
                "pkg/export.py": (
                    "class Result:\n"
                    "    def to_dict(self):\n"
                    "        first = {str(cell): n for cell, n in self.cells.items()}\n"
                    "        second = {f'cell_{cell}': n for cell, n in self.cells.items()}\n"
                    "        return {'first': first, 'second': second}\n"
                )
            },
        )
        assert findings == []

    def test_bare_numpy_reduction_value_flagged(self, tmp_path):
        findings = scan(
            tmp_path,
            overrides={
                "pkg/export.py": (
                    "import numpy as np\n"
                    "class Result:\n"
                    "    def to_dict(self):\n"
                    "        return {'total': np.mean(self.values)}\n"
                )
            },
        )
        assert rules_of(findings) == ["EXP002"]

    def test_method_reduction_flagged_and_coercion_clean(self, tmp_path):
        findings = scan(
            tmp_path,
            overrides={
                "pkg/export.py": (
                    "import numpy as np\n"
                    "class Result:\n"
                    "    def to_dict(self):\n"
                    "        return {\n"
                    "            'bad': self.values.mean(),\n"
                    "            'good': float(np.mean(self.values)),\n"
                    "        }\n"
                )
            },
        )
        assert rules_of(findings) == ["EXP002"]
        assert len(findings) == 1

    def test_non_export_functions_ignored(self, tmp_path):
        findings = scan(
            tmp_path,
            overrides={
                "pkg/export.py": (
                    "def helper():\n"
                    "    return {1: 'not an exporter'}\n"
                )
            },
        )
        assert findings == []


class TestSpecRule:
    def test_unmapped_config_field_flagged(self, tmp_path):
        findings = scan(
            tmp_path,
            overrides={
                "pkg/config.py": CLEAN_CONFIG + "    hidden_knob: float = 1.0\n"
            },
        )
        assert rules_of(findings) == ["SPEC001"]
        assert "hidden_knob" in findings[0].message

    def test_unmapped_nested_config_field_flagged(self, tmp_path):
        findings = scan(
            tmp_path,
            overrides={
                "pkg/compiler.py": CLEAN_COMPILER.replace("rate=spec.rate", "")
            },
        )
        assert rules_of(findings) == ["SPEC001"]
        assert "PolicyConfig.rate" in findings[0].message

    def test_compiler_never_constructing_config_flagged(self, tmp_path):
        findings = scan(
            tmp_path,
            overrides={"pkg/compiler.py": "def compile_spec(spec):\n    return None\n"},
        )
        assert rules_of(findings) == ["SPEC001"]
        assert "never constructs" in findings[0].message


class TestBaseline:
    def test_round_trip(self, tmp_path):
        findings = scan(
            tmp_path,
            extra={
                "pkg/draws.py": (
                    "import numpy as np\n"
                    "def sample():\n"
                    "    return np.random.default_rng(7).normal()\n"
                )
            },
        )
        assert findings
        path = tmp_path / "baseline.json"
        save_baseline(path, findings)
        baseline = load_baseline(path)
        result = apply_baseline(findings, baseline)
        assert result.new == []
        assert len(result.baselined) == len(findings)
        assert result.stale == []

    def test_line_shift_does_not_resurrect(self, tmp_path):
        bad = (
            "import numpy as np\n"
            "def sample():\n"
            "    return np.random.default_rng(7).normal()\n"
        )
        findings = scan(tmp_path, extra={"pkg/draws.py": bad})
        path = tmp_path / "baseline.json"
        save_baseline(path, findings)
        # Unrelated edit above the finding moves it down two lines.
        shifted = scan(
            tmp_path, extra={"pkg/draws.py": "\n# comment\n" + bad}
        )
        assert shifted[0].line != findings[0].line
        result = apply_baseline(shifted, load_baseline(path))
        assert result.new == []
        assert result.stale == []

    def test_fixed_finding_goes_stale(self, tmp_path):
        bad = (
            "import numpy as np\n"
            "def sample():\n"
            "    return np.random.default_rng(7).normal()\n"
        )
        findings = scan(tmp_path, extra={"pkg/draws.py": bad})
        path = tmp_path / "baseline.json"
        save_baseline(path, findings)
        (tmp_path / "src" / "pkg" / "draws.py").unlink()  # fix the violation
        clean = scan(tmp_path)
        result = apply_baseline(clean, load_baseline(path))
        assert result.new == []
        assert len(result.stale) == 1

    def test_missing_baseline_is_empty(self, tmp_path):
        baseline = load_baseline(tmp_path / "nope.json")
        assert baseline.entries == {}
        result = apply_baseline([], Baseline())
        assert result.new == [] and result.stale == []

    def test_committed_baseline_is_empty_and_scan_is_clean(self):
        """The gate holds with zero grandfathered debt: the committed
        baseline has no entries and a fresh scan of the repo reports no
        findings at all (``--no-baseline`` green)."""
        context = LintContext(LintConfig(root=REPO_ROOT))
        findings = run_rules(context)
        baseline = load_baseline(REPO_ROOT / "tests" / "goldens" / "lint_baseline.json")
        assert baseline.entries == {}, (
            "the baseline was burned to zero in PR 10; new findings must be "
            f"fixed, not re-baselined: {sorted(baseline.entries)}"
        )
        rendered = [f.render() for f in findings]
        assert not rendered, f"lint findings on a clean tree: {rendered}"


class TestSchema:
    def test_key_tree_collapses_integer_keys(self):
        tree = key_tree({"per_cell": {"1": 2.0, "7": 3.0, "-1": 1.0}})
        assert tree == {"per_cell": {"<id>": "float"}}

    def test_key_tree_merges_list_elements(self):
        tree = key_tree({"intervals": [{"a": 1}, {"a": 1.5, "b": "x"}]})
        assert tree == {"intervals": {"[]": {"a": "float|int", "b": "str"}}}

    def test_key_tree_empty_list(self):
        assert key_tree([]) == {"[]": "empty"}

    def test_merge_key_trees_union(self):
        merged = merge_key_trees({"a": "int"}, {"b": "str"})
        assert merged == {"a": "int", "b": "str"}
        assert merge_key_trees("int", "float") == "float|int"

    def test_diff_reports_added_and_missing_keys(self):
        expected = key_tree({"a": 1, "b": "x"})
        actual = key_tree({"a": 1, "c": 2.0})
        problems = diff_key_trees(expected, actual)
        assert any("missing key 'b'" in p for p in problems)
        assert any("unexpected key 'c'" in p for p in problems)

    def test_diff_reports_type_change(self):
        problems = diff_key_trees(key_tree({"a": 1}), key_tree({"a": "x"}))
        assert problems == ["type changed at 'a': expected 'int', got 'str'"]

    def test_diff_snapshot_scenario_level(self):
        expected = {"scenarios": {"campus": {"a": "int"}, "gone": {"b": "int"}}}
        actual = {"scenarios": {"campus": {"a": "str"}, "fresh": {"c": "int"}}}
        problems = diff_snapshot(expected, actual)
        assert any("'gone' disappeared" in p for p in problems)
        assert any("'fresh' is new" in p for p in problems)
        assert any(p.startswith("campus: type changed") for p in problems)

    def test_committed_snapshot_matches_registry(self):
        """Every registry scenario's export shape matches the golden."""
        committed = json.loads(
            (REPO_ROOT / "tests" / "goldens" / "export_schema.json").read_text()
        )
        actual = snapshot_registry()
        problems = diff_snapshot(committed, actual)
        assert not problems, problems


SEEDED_VIOLATIONS = {
    "RNG": (
        "src/repro/seeded_rng.py",
        "import numpy as np\ndef f():\n    return np.random.default_rng(1)\n",
    ),
    "SHARD": (
        "src/repro/sim/shard.py",
        "import os\ndef f():\n    return os.getenv('X')\n",
    ),
    "SHM": (
        "src/repro/seeded_shm.py",
        "from multiprocessing import shared_memory\n"
        "def f():\n"
        "    return shared_memory.SharedMemory(name='x', create=True, size=8)\n",
    ),
    "EXP": (
        "src/repro/seeded_exp.py",
        "class R:\n    def to_dict(self):\n        return {1: 'x'}\n",
    ),
    "SPEC": (
        "src/repro/sim/config.py",
        "from dataclasses import dataclass\n"
        "@dataclass\nclass SimulationConfig:\n    knob: int = 1\n",
    ),
}


class TestCliGate:
    """``repro lint`` through the real argument parser, on mirror fixtures.

    The fixture mirrors the default module layout (``repro.sim.shard``,
    ``repro.sim.config`` / ``repro.scenario.compiler``) so the unmodified
    CLI defaults apply.
    """

    @staticmethod
    def _mirror_project(root: Path) -> None:
        files = {
            "src/repro/__init__.py": "",
            "src/repro/sim/__init__.py": "",
            "src/repro/sim/rng.py": CLEAN_RNG.replace("np.random", "np.random"),
            "src/repro/sim/shard.py": "def run(task):\n    return task\n",
            "src/repro/sim/config.py": (
                "from dataclasses import dataclass\n"
                "@dataclass\nclass SimulationConfig:\n    knob: int = 1\n"
            ),
            "src/repro/scenario/__init__.py": "",
            "src/repro/scenario/compiler.py": (
                "from repro.sim.config import SimulationConfig\n"
                "def compile_spec(spec):\n"
                "    return SimulationConfig(knob=spec.knob)\n"
            ),
        }
        for relpath, text in files.items():
            target = root / relpath
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(text)

    def test_clean_mirror_exits_zero(self, tmp_path, capsys):
        self._mirror_project(tmp_path)
        rc = repro_main(["lint", "--root", str(tmp_path)])
        assert rc == 0, capsys.readouterr().out

    @pytest.mark.parametrize("family", sorted(SEEDED_VIOLATIONS))
    def test_seeded_violation_fails_gate(self, tmp_path, capsys, family):
        self._mirror_project(tmp_path)
        relpath, text = SEEDED_VIOLATIONS[family]
        target = tmp_path / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        if family == "SPEC":
            # Drift = a config field the compiler does not map.
            target.write_text(text.replace("knob: int = 1", "knob: int = 1\n    hidden: int = 2"))
        else:
            existing = target.read_text() if target.exists() else ""
            target.write_text(existing + "\n" + text)
        rc = repro_main(["lint", "--root", str(tmp_path)])
        out = capsys.readouterr().out
        assert rc == 1, out
        assert family in out  # every reported rule id carries its family prefix

    def test_update_baseline_then_green(self, tmp_path, capsys):
        self._mirror_project(tmp_path)
        relpath, text = SEEDED_VIOLATIONS["RNG"]
        (tmp_path / relpath).write_text(text)
        assert repro_main(["lint", "--root", str(tmp_path)]) == 1
        assert repro_main(["lint", "--root", str(tmp_path), "--update-baseline"]) == 0
        assert repro_main(["lint", "--root", str(tmp_path)]) == 0
        # Fixing the violation leaves a stale entry -> gate trips again.
        (tmp_path / relpath).unlink()
        assert repro_main(["lint", "--root", str(tmp_path)]) == 1
        capsys.readouterr()

    def test_json_output_round_trips(self, tmp_path, capsys):
        self._mirror_project(tmp_path)
        relpath, text = SEEDED_VIOLATIONS["RNG"]
        (tmp_path / relpath).write_text(text)
        rc = repro_main(["lint", "--root", str(tmp_path), "--json", "-"])
        out = capsys.readouterr().out
        assert rc == 1
        payload = json.loads(out)
        assert payload == json.loads(json.dumps(payload))
        assert payload["new"], payload
        # The seeded violation *returns* its raw generator, so the
        # flow-sensitive rules classify it RNG004 rather than RNG001.
        assert payload["new"][0]["rule"] == "RNG004"
        assert "repro.sim.shard" in payload["worker_modules"]

    def test_real_repo_gate_is_green(self, capsys):
        rc = repro_main(["lint", "--root", str(REPO_ROOT)])
        assert rc == 0, capsys.readouterr().out

    def test_github_format_emits_annotations(self, tmp_path, capsys):
        self._mirror_project(tmp_path)
        relpath, text = SEEDED_VIOLATIONS["RNG"]
        (tmp_path / relpath).write_text(text)
        rc = repro_main(["lint", "--root", str(tmp_path), "--format", "github"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "::error file=src/repro/seeded_rng.py,line=" in out
        assert "title=RNG004" in out

    def test_github_format_flags_stale_entries(self, tmp_path, capsys):
        self._mirror_project(tmp_path)
        relpath, text = SEEDED_VIOLATIONS["RNG"]
        (tmp_path / relpath).write_text(text)
        assert repro_main(["lint", "--root", str(tmp_path), "--update-baseline"]) == 0
        (tmp_path / relpath).unlink()
        rc = repro_main(["lint", "--root", str(tmp_path), "--format", "github"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "::error file=tests/goldens/lint_baseline.json" in out
        assert "title=stale-baseline" in out

    def test_update_baseline_prints_burn_down(self, tmp_path, capsys):
        self._mirror_project(tmp_path)
        relpath, text = SEEDED_VIOLATIONS["RNG"]
        (tmp_path / relpath).write_text(text)
        assert repro_main(["lint", "--root", str(tmp_path), "--update-baseline"]) == 0
        assert "RNG004 0 -> 1" in capsys.readouterr().out
        (tmp_path / relpath).unlink()
        assert repro_main(["lint", "--root", str(tmp_path), "--update-baseline"]) == 0
        assert "RNG004 1 -> 0" in capsys.readouterr().out

    def test_source_dir_scans_alternate_tree(self, tmp_path, capsys):
        bench = tmp_path / "benchmarks" / "bad.py"
        bench.parent.mkdir(parents=True)
        bench.write_text(
            "import numpy as np\n"
            "def f():\n"
            "    rng = np.random.default_rng(1)\n"
            "    return rng.normal()\n"
        )
        rc = repro_main(
            [
                "lint",
                "--root",
                str(tmp_path),
                "--source-dir",
                "benchmarks",
                "--no-baseline",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "RNG001" in out

    def test_missing_source_dir_is_usage_error(self, tmp_path, capsys):
        rc = repro_main(
            ["lint", "--root", str(tmp_path), "--source-dir", "nope"]
        )
        capsys.readouterr()
        assert rc == 2


class TestBenchSchema:
    def test_snapshot_and_diff_round_trip(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "a.json").write_text(json.dumps({"records": [{"x": 1}]}))
        snap = snapshot_bench_results(results)
        assert diff_bench_snapshot(snap, snap) == []
        (results / "a.json").write_text(
            json.dumps({"records": [{"x": 1, "y": 2.0}]})
        )
        problems = diff_bench_snapshot(snap, snapshot_bench_results(results))
        assert any("unexpected key" in p for p in problems)

    def test_new_and_missing_result_files_reported(self, tmp_path):
        results = tmp_path / "results"
        results.mkdir()
        (results / "a.json").write_text("{}")
        snap = snapshot_bench_results(results)
        (results / "a.json").unlink()
        (results / "b.json").write_text("{}")
        problems = diff_bench_snapshot(snap, snapshot_bench_results(results))
        assert any("'a.json' disappeared" in p for p in problems)
        assert any("'b.json' is new" in p for p in problems)

    def test_committed_bench_snapshot_matches_results(self):
        """The committed key-trees match benchmarks/results/*.json."""
        committed = json.loads(
            (REPO_ROOT / "tests" / "goldens" / "bench_schema.json").read_text()
        )
        actual = snapshot_bench_results(REPO_ROOT / "benchmarks" / "results")
        problems = diff_bench_snapshot(committed, actual)
        assert not problems, problems
