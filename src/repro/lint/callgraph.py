"""Layer 2 of the lint dataflow: interprocedural provenance summaries.

Every function in the scanned project gets a :class:`FunctionSummary` —
which rng parameters it requires, whether it constructs a raw (non-registry)
generator, whether it performs call-time file I/O — built from the
intraprocedural facts of :mod:`repro.lint.dataflow`.  Call sites are then
resolved project-internally (local functions, from-import aliases, module
attributes, ``self.`` methods, class constructors) and the raw/I-O bits are
propagated to a fixpoint along the call graph.

The propagated bits power the worker-purity rules: SHARD004 flags a
worker-reachable function that pulls an unregistered generator out of a
callee (even transitively), which the per-statement layer cannot see.
Functions inside the allowed registry modules are sanctioned raw sources —
their whole point is to centralise construction — so they summarise as
clean and calling them is never a finding.

Resolution is deliberately conservative: an unresolvable callee contributes
nothing, so every reported chain is backed by a concrete witness
construction site.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.lint.context import LintContext, ModuleInfo, resolve_dotted
from repro.lint.dataflow import ModuleDataflow


@dataclass
class FunctionSummary:
    """Interprocedural facts of one function, keyed ``module:qualname``."""

    key: str
    module: str
    qualname: str
    relpath: str
    rng_params: Tuple[str, ...]
    #: Directly constructs a raw generator (outside allowed modules).
    constructs_raw: bool
    #: Directly performs call-time file I/O.
    does_io: bool
    #: ``path:line`` of the first direct raw construction, if any.
    raw_witness: Optional[str]
    #: ``(call node, resolved callee key or None)`` per call site.
    calls: List[Tuple[ast.Call, Optional[str]]] = field(default_factory=list)
    #: Transitive closure over resolved calls.
    trans_raw: bool = False
    trans_io: bool = False
    #: Human-readable witness chain for the transitive raw bit, e.g.
    #: ``"helpers.fresh -> src/pkg/helpers.py:4"``.
    trans_raw_via: Optional[str] = None


class CallGraph:
    """Project-wide function summaries with propagated raw/I-O bits."""

    def __init__(self, context: LintContext) -> None:
        self.context = context
        self.summaries: Dict[str, FunctionSummary] = {}
        self._build()
        self._propagate()

    # ------------------------------------------------------------ building
    def _build(self) -> None:
        flows: List[Tuple[ModuleInfo, ModuleDataflow]] = []
        for info in self.context.iter_modules():
            flow = self.context.dataflow(info)
            flows.append((info, flow))
            allowed = any(
                info.module == module or info.module.startswith(module + ".")
                for module in self.context.config.rng_allowed_modules
            )
            for scope in flow.function_scopes():
                key = f"{info.module}:{scope.qualname}"
                raw_sites = [] if allowed else scope.raw_sites
                witness = None
                if raw_sites:
                    witness = f"{info.relpath}:{raw_sites[0].node.lineno}"
                self.summaries[key] = FunctionSummary(
                    key=key,
                    module=info.module,
                    qualname=scope.qualname,
                    relpath=info.relpath,
                    rng_params=scope.rng_params,
                    constructs_raw=bool(raw_sites),
                    does_io=bool(scope.io_sites),
                    raw_witness=witness,
                )
        # Second pass: resolve call sites (needs the full summary index).
        for info, flow in flows:
            for scope in flow.function_scopes():
                summary = self.summaries[f"{info.module}:{scope.qualname}"]
                enclosing_class = scope.qualname.rsplit(".", 2)[-2] if (
                    "." in scope.qualname
                ) else None
                for call in scope.calls:
                    resolved = self._resolve_call(
                        call, info, flow, enclosing_class
                    )
                    summary.calls.append((call, resolved))

    def _resolve_call(
        self,
        call: ast.Call,
        info: ModuleInfo,
        flow: ModuleDataflow,
        enclosing_class: Optional[str],
    ) -> Optional[str]:
        func = call.func
        if isinstance(func, ast.Name):
            local = self._lookup(info.module, func.id)
            if local is not None:
                return local
            dotted = flow.aliases.get(func.id)
            if dotted is not None:
                return self._resolve_dotted_target(dotted)
            return None
        if isinstance(func, ast.Attribute):
            if (
                isinstance(func.value, ast.Name)
                and func.value.id in ("self", "cls")
                and enclosing_class is not None
            ):
                return self._lookup(
                    info.module, f"{enclosing_class}.{func.attr}"
                )
            dotted = resolve_dotted(func, flow.aliases)
            if dotted is not None:
                return self._resolve_dotted_target(dotted)
        return None

    def _resolve_dotted_target(self, dotted: str) -> Optional[str]:
        """``pkg.helpers.fresh`` -> the summary key it names, if project-
        internal (longest module prefix wins, classes map to __init__)."""
        parts = dotted.split(".")
        for end in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:end])
            if module in self.context.modules:
                remainder = ".".join(parts[end:])
                return self._lookup(module, remainder)
        return None

    def _lookup(self, module: str, qualname: str) -> Optional[str]:
        key = f"{module}:{qualname}"
        if key in self.summaries:
            return key
        # A class reference: constructing it runs __init__.
        init_key = f"{module}:{qualname}.__init__"
        if init_key in self.summaries:
            return init_key
        return None

    # --------------------------------------------------------- propagation
    def _propagate(self) -> None:
        for summary in self.summaries.values():
            if summary.constructs_raw:
                summary.trans_raw = True
                summary.trans_raw_via = summary.raw_witness
            if summary.does_io:
                summary.trans_io = True
        changed = True
        while changed:
            changed = False
            for summary in self.summaries.values():
                for _call, callee_key in summary.calls:
                    if callee_key is None:
                        continue
                    callee = self.summaries[callee_key]
                    if callee.trans_raw and not summary.trans_raw:
                        summary.trans_raw = True
                        summary.trans_raw_via = (
                            f"{callee.qualname} -> {callee.trans_raw_via}"
                        )
                        changed = True
                    if callee.trans_io and not summary.trans_io:
                        summary.trans_io = True
                        changed = True

    # -------------------------------------------------------------- access
    def summaries_of(self, module: str) -> List[FunctionSummary]:
        return [
            summary
            for summary in self.summaries.values()
            if summary.module == module
        ]
