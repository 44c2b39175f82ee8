"""Parsed-project context shared by every lint rule.

The context owns the expensive, rule-independent work: discovering source
files, parsing them once, mapping files to dotted module names, building
the project-internal import graph, and computing the *worker-reachable*
module set — the modules a shard worker process imports (transitively,
including lazy function-level imports) starting from the worker entry
modules.  Rules receive the context and stay pure AST visitors.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple


@dataclass(frozen=True)
class LintConfig:
    """What to scan and which modules are exempt from which family.

    The defaults describe this repository; tests parameterise them to run
    the same rules over synthetic fixture projects.
    """

    #: Repository root (the directory holding ``src/``).
    root: Path
    #: Package roots, relative to ``root``, scanned for ``*.py`` files.
    source_dirs: Tuple[str, ...] = ("src",)
    #: Modules allowed to construct generators directly: the registry
    #: itself.  Everything else must derive streams through it.
    rng_allowed_modules: Tuple[str, ...] = ("repro.sim.rng",)
    #: Modules whose transitive imports define the worker-reachable set.
    worker_entry_modules: Tuple[str, ...] = ("repro.sim.shard",)
    #: ``(module, class)`` of each config dataclass the compiler builds,
    #: nested ones included, and ``(module, function)`` of the compiler,
    #: checked by the SPEC family.
    spec_configs: Tuple[Tuple[str, str], ...] = (
        ("repro.sim.config", "SimulationConfig"),
        ("repro.mobility.campus", "CampusConfig"),
        ("repro.net.controller", "ControllerConfig"),
        ("repro.net.handover", "HandoverConfig"),
        ("repro.edge.server", "EdgeServerConfig"),
        ("repro.placement.manager", "PlacementConfig"),
        ("repro.twin.collector", "CollectionPolicy"),
        ("repro.core.config", "SchemeConfig"),
    )
    spec_compiler: Tuple[str, str] = ("repro.scenario.compiler", "compile_spec")


@dataclass
class ModuleInfo:
    """One parsed source file."""

    module: str
    path: Path
    relpath: str
    tree: ast.Module
    #: node -> enclosing ClassDef/FunctionDef chain, filled lazily.
    _parents: Optional[Dict[int, ast.AST]] = field(default=None, repr=False)

    def parent_map(self) -> Dict[int, ast.AST]:
        if self._parents is None:
            parents: Dict[int, ast.AST] = {}
            for node in ast.walk(self.tree):
                for child in ast.iter_child_nodes(node):
                    parents[id(child)] = node
            self._parents = parents
        return self._parents

    def qualname_of(self, node: ast.AST) -> str:
        """Dotted qualname of the scope enclosing ``node`` (``"<module>"``
        at top level)."""
        parents = self.parent_map()
        names: List[str] = []
        current: Optional[ast.AST] = node
        while current is not None:
            if isinstance(
                current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                names.append(current.name)
            current = parents.get(id(current))
        if not names:
            return "<module>"
        return ".".join(reversed(names))

    def enclosing_function(self, node: ast.AST) -> Optional[ast.AST]:
        parents = self.parent_map()
        current: Optional[ast.AST] = parents.get(id(node))
        while current is not None:
            if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return current
            current = parents.get(id(current))
        return None

    def enclosing_class(self, node: ast.AST) -> Optional[ast.ClassDef]:
        parents = self.parent_map()
        current: Optional[ast.AST] = parents.get(id(node))
        while current is not None:
            if isinstance(current, ast.ClassDef):
                return current
            current = parents.get(id(current))
        return None


def resolve_import_from(
    module: str, is_package: bool, node: ast.ImportFrom
) -> Optional[str]:
    """Absolute module an ``ImportFrom`` pulls from, resolving relativity.

    ``module`` is the importing module's dotted name; ``is_package`` is
    whether it is a package ``__init__``.  Returns ``None`` when the
    relative import escapes the project root.
    """
    if node.level == 0:
        return node.module
    parts = module.split(".")
    anchor = parts if is_package else parts[:-1]
    up = node.level - 1
    if up > len(anchor):
        return None
    base = anchor[: len(anchor) - up]
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base) if base else None


class LintContext:
    """Parsed project + import graph + worker-reachable module set.

    Also the memoisation point for the two dataflow layers: rules share one
    :class:`~repro.lint.dataflow.ModuleDataflow` per module and one
    :class:`~repro.lint.callgraph.CallGraph` per scan, so adding
    flow-sensitive rules does not multiply parse/walk cost.
    """

    def __init__(self, config: LintConfig) -> None:
        self.config = config
        self.modules: Dict[str, ModuleInfo] = {}
        self.errors: List[str] = []
        self._discover()
        self.import_graph = self._build_import_graph()
        self.worker_modules = self._reachable(config.worker_entry_modules)
        self._dataflow_cache: Dict[str, object] = {}
        self._callgraph: Optional[object] = None

    # ------------------------------------------------------------ dataflow
    def dataflow(self, info: ModuleInfo):
        """Memoised intraprocedural analysis of one module."""
        cached = self._dataflow_cache.get(info.module)
        if cached is None:
            from repro.lint.dataflow import ModuleDataflow

            cached = ModuleDataflow(info, self.config)
            self._dataflow_cache[info.module] = cached
        return cached

    def callgraph(self):
        """Memoised interprocedural summary over the whole project."""
        if self._callgraph is None:
            from repro.lint.callgraph import CallGraph

            self._callgraph = CallGraph(self)
        return self._callgraph

    # ----------------------------------------------------------- discovery
    def _discover(self) -> None:
        root = Path(self.config.root)
        for source_dir in self.config.source_dirs:
            base = root / source_dir
            if not base.is_dir():
                continue
            for path in sorted(base.rglob("*.py")):
                relpath = path.relative_to(root).as_posix()
                module = self._module_name(path, base)
                try:
                    tree = ast.parse(path.read_text(), filename=str(path))
                except SyntaxError as error:  # pragma: no cover - broken tree
                    self.errors.append(f"{relpath}: syntax error: {error}")
                    continue
                self.modules[module] = ModuleInfo(
                    module=module, path=path, relpath=relpath, tree=tree
                )

    @staticmethod
    def _module_name(path: Path, base: Path) -> str:
        parts = list(path.relative_to(base).with_suffix("").parts)
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)

    # -------------------------------------------------------- import graph
    def _build_import_graph(self) -> Dict[str, Set[str]]:
        graph: Dict[str, Set[str]] = {}
        for module, info in self.modules.items():
            graph[module] = set()
            for node in ast.walk(info.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        self._add_edge(graph[module], alias.name)
                elif isinstance(node, ast.ImportFrom):
                    target = self._resolve_from(module, node)
                    if target is None:
                        continue
                    self._add_edge(graph[module], target)
                    # ``from pkg import sub`` may bind submodules.
                    for alias in node.names:
                        self._add_edge(graph[module], f"{target}.{alias.name}")
        return graph

    def _resolve_from(self, module: str, node: ast.ImportFrom) -> Optional[str]:
        is_package = self.modules[module].path.name == "__init__.py"
        return resolve_import_from(module, is_package, node)

    def _add_edge(self, edges: Set[str], target: Optional[str]) -> None:
        """Record ``target`` if it (or a parent package) is project-internal."""
        if not target:
            return
        parts = target.split(".")
        for end in range(len(parts), 0, -1):
            candidate = ".".join(parts[:end])
            if candidate in self.modules:
                edges.add(candidate)
                return

    def _reachable(self, entries: Sequence[str]) -> Set[str]:
        seen: Set[str] = set()
        frontier = [entry for entry in entries if entry in self.modules]
        while frontier:
            module = frontier.pop()
            if module in seen:
                continue
            seen.add(module)
            frontier.extend(self.import_graph.get(module, ()))
        return seen

    # ------------------------------------------------------------- helpers
    def iter_modules(self, only: Optional[Iterable[str]] = None):
        if only is None:
            yield from self.modules.values()
            return
        for name in only:
            info = self.modules.get(name)
            if info is not None:
                yield info


def numpy_random_aliases(tree: ast.Module) -> Dict[str, str]:
    """Names bound (at module level) to numpy / numpy.random objects.

    Returns a map from local name to the canonical dotted target, e.g.
    ``{"np": "numpy", "nr": "numpy.random", "default_rng":
    "numpy.random.default_rng"}``.  Only top-level imports are considered —
    the repo style — which keeps resolution trivially sound.
    """
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy" or alias.name.startswith("numpy."):
                    aliases[alias.asname or alias.name.split(".")[0]] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module == "numpy" or node.module.startswith("numpy."):
                for alias in node.names:
                    aliases[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return aliases


def resolve_dotted(node: ast.AST, aliases: Dict[str, str]) -> Optional[str]:
    """Canonical dotted name of an attribute chain, through import aliases.

    ``np.random.default_rng`` with ``np -> numpy`` resolves to
    ``numpy.random.default_rng``; returns ``None`` for anything that is not
    a plain name/attribute chain rooted in a known alias or bare name.
    """
    parts: List[str] = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(aliases.get(current.id, current.id))
    return ".".join(reversed(parts))
