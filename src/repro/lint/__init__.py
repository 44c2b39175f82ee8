"""Determinism & shard-safety static analysis (``repro lint``).

The repo's headline invariant — serial == sharded bit-identical playback —
rests on conventions no runtime check sees until a golden digest breaks:
randomness flows through the :mod:`repro.sim.rng` registry, worker task
payloads stay picklable data, shared-memory segments are unlink-paired, and
every ``to_dict`` export stays JSON-canonical.  This package enforces those
conventions *statically*, over the AST of ``src/``, before a single
simulation runs.

Five rule families (see ``docs/lint_rules.md`` for the full reference):

``RNG``
    randomness discipline — no ad-hoc generator construction outside the
    registry, no stdlib ``random``, no silent constant-seed fallbacks.
``SHARD``
    worker purity — modules a shard worker imports must not read mutable
    module state or the environment at call time, and task dataclasses
    must carry only picklable data fields.
``SHM``
    shared-memory lifecycle — every ``SharedMemory(create=True)`` site
    needs an idempotent ``close()``/``unlink()`` path.
``EXP``
    export canonicality — ``to_dict`` dict keys are strings, numpy scalars
    are coerced before export.
``SPEC``
    spec/config drift — every field of ``SimulationConfig`` and of the
    configs nested in it is set by ``compile_spec`` (or explicitly
    allowlisted).

A committed baseline (``tests/goldens/lint_baseline.json``) grandfathers
pre-existing findings so the CI gate starts green; new findings fail it.
``repro lint --schema`` additionally diffs the key-tree of every registry
scenario's ``RunResult.to_dict()`` against a committed snapshot.
"""

from repro.lint.baseline import Baseline, apply_baseline, load_baseline, save_baseline
from repro.lint.context import LintConfig, LintContext, ModuleInfo
from repro.lint.findings import Finding
from repro.lint.rules import ALL_RULES, Rule, run_rules
from repro.lint.schema import diff_key_trees, key_tree, snapshot_registry

__all__ = [
    "ALL_RULES",
    "Baseline",
    "Finding",
    "LintConfig",
    "LintContext",
    "ModuleInfo",
    "Rule",
    "apply_baseline",
    "diff_key_trees",
    "key_tree",
    "load_baseline",
    "run_rules",
    "save_baseline",
    "snapshot_registry",
]
