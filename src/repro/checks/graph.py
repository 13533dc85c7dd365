"""Package-wide module graph and best-effort call graph.

The per-statement rules in :mod:`repro.checks.rules` see one file at a
time; the flow analyses (:mod:`repro.checks.flow_rules`) need to follow
a value *across* functions and modules.  This module builds the shared
substrate: every module under the lint root parsed once, an import
table per module, an index of every function/method by qualified name,
and a call graph whose edges are resolved as far as pure syntax allows.

Resolution is deliberately best-effort and *sound for our sources*: a
call we cannot attribute to a known function still records its dotted
callee text (``time.time``, ``self.journal.append``), which is exactly
what the taint sources and sinks match on.  Dynamic dispatch, decorators
that rebind, and ``getattr`` tricks are out of scope - the analyses err
quiet, and the planted-bug fixtures pin the flows they must catch.

Everything here is stdlib ``ast``; no imports are executed.
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Optional, Sequence

from repro.checks.linter import ParsedModule, iter_python_files

#: names resolvable without an import (``hash``, ``open``, ``sorted`` ...).
_BUILTIN_NAMES = frozenset(dir(builtins))


def module_name_for(relpath: str) -> str:
    """Dotted module name of a repo-relative posix path.

    ``src/repro/serve/store.py`` -> ``repro.serve.store``;
    package ``__init__.py`` files name the package itself.
    """
    parts = relpath.split("/")
    if parts and parts[0] == "src":
        parts = parts[1:]
    if not parts:
        return ""
    leaf = parts[-1]
    if leaf.endswith(".py"):
        leaf = leaf[: -len(".py")]
    parts[-1] = leaf
    if leaf == "__init__":
        parts = parts[:-1]
    return ".".join(p for p in parts if p)


def dotted_chain(node: ast.AST) -> Optional[str]:
    """``a.b.c`` rendered as text, or None for non-Name/Attribute roots."""
    names: list[str] = []
    while isinstance(node, ast.Attribute):
        names.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    names.append(node.id)
    return ".".join(reversed(names))


@dataclass
class CallSite:
    """One call expression inside a function, as resolved as we can."""

    node: ast.Call
    #: best-effort dotted callee name (``time.time``,
    #: ``repro.serve.service.SimulationService._finish``); None when the
    #: callee is itself a computed expression.
    callee: Optional[str]
    #: trailing attribute for method-style calls (``append``), else None.
    attr: Optional[str]
    #: dotted receiver text for method-style calls (``self.journal``).
    receiver: Optional[str]
    #: True when ``callee`` names a function/class in the project graph.
    known: bool = False


@dataclass
class FunctionInfo:
    """One function or method in the project."""

    qualname: str
    module: str
    relpath: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    class_name: Optional[str] = None
    calls: list[CallSite] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.node.name

    @property
    def is_public(self) -> bool:
        return not self.node.name.startswith("_")

    def param_names(self) -> list[str]:
        args = self.node.args
        names = [a.arg for a in args.posonlyargs + args.args]
        if args.vararg:
            names.append(args.vararg.arg)
        names.extend(a.arg for a in args.kwonlyargs)
        if args.kwarg:
            names.append(args.kwarg.arg)
        return names


@dataclass
class ClassInfo:
    """One class definition and its method table."""

    qualname: str
    module: str
    node: ast.ClassDef
    methods: dict[str, str] = field(default_factory=dict)  # name -> fn qualname
    bases: tuple[str, ...] = ()


class ProjectGraph:
    """All modules under a root, with function index and call graph."""

    def __init__(self, root: Path) -> None:
        self.root = root.resolve()
        self.modules: dict[str, ParsedModule] = {}
        #: module -> local alias -> fully dotted target.
        self.imports: dict[str, dict[str, str]] = {}
        self.functions: dict[str, FunctionInfo] = {}
        self.classes: dict[str, ClassInfo] = {}
        #: caller qualname -> known callee qualnames.
        self.edges: dict[str, set[str]] = {}
        self.parse_errors: list[str] = []

    # -- construction ---------------------------------------------------------
    @classmethod
    def build(
        cls, root: Path, paths: Sequence[Path] | None = None
    ) -> "ProjectGraph":
        graph = cls(root)
        root = graph.root
        if paths is None:
            default = root / "src" / "repro"
            paths = [default] if default.is_dir() else [root]
        for path in iter_python_files(root, paths):
            try:
                module = ParsedModule(root, path.resolve())
            except (SyntaxError, UnicodeDecodeError, ValueError) as exc:
                graph.parse_errors.append(f"{path}: {exc}")
                continue
            name = module_name_for(module.relpath)
            graph.modules[name] = module
        for name, module in graph.modules.items():
            graph.imports[name] = graph._collect_imports(name, module.tree)
            graph._index_definitions(name, module)
        for name, module in graph.modules.items():
            graph._resolve_calls(name, module)
        return graph

    @staticmethod
    def _collect_imports(module: str, tree: ast.Module) -> dict[str, str]:
        table: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    table[local] = target
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    parts = module.split(".")
                    # ``from . import x`` inside package p: level 1 strips
                    # the module leaf, further levels strip packages.
                    anchor = parts[: len(parts) - node.level]
                    base = ".".join(anchor + ([node.module] if node.module else []))
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    table[local] = f"{base}.{alias.name}" if base else alias.name
        return table

    def _index_definitions(self, name: str, module: ParsedModule) -> None:
        for node in module.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{name}.{node.name}"
                self.functions[qual] = FunctionInfo(
                    qualname=qual, module=name, relpath=module.relpath, node=node
                )
            elif isinstance(node, ast.ClassDef):
                cls_qual = f"{name}.{node.name}"
                info = ClassInfo(
                    qualname=cls_qual,
                    module=name,
                    node=node,
                    bases=tuple(
                        b for b in (dotted_chain(base) for base in node.bases) if b
                    ),
                )
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        fn_qual = f"{cls_qual}.{item.name}"
                        info.methods[item.name] = fn_qual
                        self.functions[fn_qual] = FunctionInfo(
                            qualname=fn_qual,
                            module=name,
                            relpath=module.relpath,
                            node=item,
                            class_name=node.name,
                        )
                self.classes[cls_qual] = info

    # -- resolution -----------------------------------------------------------
    def resolve_name(
        self, module: str, chain: str, class_name: Optional[str] = None
    ) -> tuple[Optional[str], bool]:
        """Map a dotted chain in ``module`` to a qualified name.

        Returns ``(qualified_name, known)``: ``known`` is True when the
        name lands on a function/class parsed into this graph.  A chain
        rooted at an import resolves through the import table even when
        the target is outside the project (``time.time`` -> known=False),
        which is what source/sink matching needs.
        """
        parts = chain.split(".")
        head, rest = parts[0], parts[1:]
        if head == "self" and class_name and rest:
            cls = self.classes.get(f"{module}.{class_name}")
            if cls and len(rest) == 1 and rest[0] in cls.methods:
                return cls.methods[rest[0]], True
            return None, False
        table = self.imports.get(module, {})
        if head in table:
            target = table[head]
            qual = ".".join([target] + rest) if rest else target
            if qual in self.functions or qual in self.classes:
                return qual, True
            # ``from repro.sim.rng import SimRng`` then ``SimRng.fork``:
            # the import target itself may be a known class.
            if target in self.classes and len(rest) == 1:
                method = self.classes[target].methods.get(rest[0])
                if method:
                    return method, True
            return qual, qual in self.modules
        local = f"{module}.{chain}"
        if local in self.functions or local in self.classes:
            return local, True
        if not rest and head in _BUILTIN_NAMES:
            return f"builtins.{head}", False
        return None, False

    def _resolve_calls(self, name: str, module: ParsedModule) -> None:
        for fn in self.functions_in_module(name):
            for node in ast.walk(fn.node):
                if not isinstance(node, ast.Call):
                    continue
                site = self._resolve_call(name, fn, node)
                fn.calls.append(site)
                if site.known and site.callee:
                    target = site.callee
                    if target in self.classes:
                        init = self.classes[target].methods.get("__init__")
                        target = init or target
                    self.edges.setdefault(fn.qualname, set()).add(target)

    def _resolve_call(
        self, module: str, fn: FunctionInfo, node: ast.Call
    ) -> CallSite:
        chain = dotted_chain(node.func)
        attr = node.func.attr if isinstance(node.func, ast.Attribute) else None
        receiver = (
            dotted_chain(node.func.value)
            if isinstance(node.func, ast.Attribute)
            else None
        )
        if chain is None:
            return CallSite(node=node, callee=None, attr=attr, receiver=receiver)
        qual, known = self.resolve_name(module, chain, fn.class_name)
        return CallSite(
            node=node, callee=qual or chain, attr=attr, receiver=receiver, known=known
        )

    # -- queries --------------------------------------------------------------
    def functions_in_module(self, module: str) -> Iterator[FunctionInfo]:
        for fn in self.functions.values():
            if fn.module == module:
                yield fn

    def callees(self, qualname: str) -> frozenset[str]:
        return frozenset(self.edges.get(qualname, ()))

    def callers(self, qualname: str) -> frozenset[str]:
        return frozenset(
            caller for caller, targets in self.edges.items() if qualname in targets
        )

    def transitive_callees(self, qualname: str) -> frozenset[str]:
        seen: set[str] = set()
        frontier = [qualname]
        while frontier:
            current = frontier.pop()
            for callee in self.edges.get(current, ()):
                if callee not in seen:
                    seen.add(callee)
                    frontier.append(callee)
        return frozenset(seen)

    def call_order(self) -> list[str]:
        """Functions in roughly bottom-up (callee-first) order.

        Cycles (recursion) are broken arbitrarily; the dataflow engine
        iterates to a fixpoint anyway, the order just makes it converge
        in fewer rounds.
        """
        order: list[str] = []
        state: dict[str, int] = {}  # 1 = visiting, 2 = done

        def visit(qual: str) -> None:
            stack = [(qual, iter(sorted(self.edges.get(qual, ()))))]
            state[qual] = 1
            while stack:
                current, children = stack[-1]
                advanced = False
                for child in children:
                    if child in self.functions and child not in state:
                        state[child] = 1
                        stack.append(
                            (child, iter(sorted(self.edges.get(child, ()))))
                        )
                        advanced = True
                        break
                if not advanced:
                    state[current] = 2
                    order.append(current)
                    stack.pop()

        for qual in sorted(self.functions):
            if qual not in state:
                visit(qual)
        return order
