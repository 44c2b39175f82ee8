"""Spec/config drift: every field of every compiled config is spec-reachable.

The declarative scenario API only stays the single source of truth while
``compile_spec`` maps *every* config field from some ``ScenarioSpec``
field.  The configs it builds are ``SimulationConfig`` and the ones nested
in it (``CampusConfig``, ``ControllerConfig`` with its ``HandoverConfig``,
``EdgeServerConfig``, ``PlacementConfig`` and ``CollectionPolicy``), and
the scheme's ``SchemeConfig``; see ``LintConfig.spec_configs``.  A config
knob added without a compiler mapping silently runs every scenario at its
default — unreachable from specs, overrides and the CLI — which is exactly
the drift this family catches at review time.  There is no allowlist: a
knob no spec should reach does not belong in a compiled config.

``SPEC001``
    a field of one of those config dataclasses that ``compile_spec`` does
    not pass as a keyword to its constructor.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set

from repro.lint.context import LintContext
from repro.lint.findings import Finding
from repro.lint.rules import Rule, register_rule


def _class_fields(tree: ast.Module, class_name: str) -> Optional[List[ast.AnnAssign]]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            return [
                statement
                for statement in node.body
                if isinstance(statement, ast.AnnAssign)
                and isinstance(statement.target, ast.Name)
            ]
    return None


def _constructor_keywords(
    tree: ast.Module, function_name: str, class_name: str
) -> Optional[Set[str]]:
    """Keyword names passed to ``class_name(...)`` inside ``function_name``."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef) or node.name != function_name:
            continue
        keywords: Set[str] = set()
        found = False
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            callee = call.func
            name = (
                callee.attr
                if isinstance(callee, ast.Attribute)
                else getattr(callee, "id", None)
            )
            if name != class_name:
                continue
            found = True
            for keyword in call.keywords:
                if keyword.arg is not None:
                    keywords.add(keyword.arg)
        return keywords if found else None
    return None


@register_rule
class SpecConfigDriftRule(Rule):
    rule_id = "SPEC001"
    summary = "config field not set by compile_spec (spec/config drift)"
    hint = (
        "map the field from a ScenarioSpec field in compile_spec, or "
        "delete the knob"
    )

    def check(self, context: LintContext) -> Iterable[Finding]:
        config = context.config
        compiler_module, compiler_function = config.spec_compiler
        compiler_info = context.modules.get(compiler_module)
        if compiler_info is None:
            return
        for config_module, config_class in config.spec_configs:
            config_info = context.modules.get(config_module)
            if config_info is None:
                continue
            fields = _class_fields(config_info.tree, config_class)
            if fields is None:
                continue
            keywords = _constructor_keywords(
                compiler_info.tree, compiler_function, config_class
            )
            if keywords is None:
                # The compiler never constructs the config at all — that is
                # drift of its own, anchored on the function if present.
                yield Finding(
                    rule=self.rule_id,
                    path=compiler_info.relpath,
                    line=1,
                    col=1,
                    context=compiler_function,
                    message=(
                        f"{compiler_function} never constructs {config_class}"
                    ),
                    hint=self.hint,
                )
                continue
            for statement in fields:
                name = statement.target.id
                if name in keywords:
                    continue
                yield self.finding(
                    config_info,
                    statement,
                    f"{config_class}.{name} is never set by "
                    f"{compiler_function} — scenarios cannot reach it",
                )
