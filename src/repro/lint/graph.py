"""Whole-program symbol table and call graph for the project passes.

A :class:`ProjectIndex` is built once per lint run from every parsed
:class:`~repro.lint.base.ModuleSource` and answers the questions the
interprocedural passes ask: *which functions and classes exist, who calls
whom, and what is reachable from here?* Everything is stdlib-``ast``
name resolution — no imports are executed — so the index is safe to build
over broken or hostile fixture trees and costs well under a second for
the full ``src/repro`` tree (the CI budget pins it below ten).

Resolution is deliberately conservative: an edge is recorded only when
the callee can be named statically (``self.helper(...)``, a module-level
function, an ``from repro.x import y`` binding, or a ``mod.attr`` chain
through an import alias). Unresolvable calls keep their dotted name parts
on the :class:`CallSite` so passes can still pattern-match on them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.lint.astutil import dotted_name
from repro.lint.base import ModuleSource

#: The two def-statement node flavours the index records.
FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


def own_statements(node: ast.AST) -> Iterator[ast.AST]:
    """Walk ``node``'s body without descending into nested def/class.

    A nested function's body only runs when the nested function is called,
    so its statements must not be attributed to the enclosing function;
    nested defs get their own :class:`FunctionInfo` only when they are
    module-level or class methods (lexical helpers stay opaque — calls to
    them simply do not resolve, which is the conservative direction).
    """
    stack: List[ast.AST] = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(child))


@dataclass
class FunctionInfo:
    """One indexed function or method."""

    qname: str
    name: str
    node: FunctionNode
    module: ModuleSource
    class_name: Optional[str] = None
    is_async: bool = False


@dataclass
class CallSite:
    """One call expression inside an indexed function."""

    node: ast.Call
    caller: str
    #: Dotted callee name parts (``("self", "helper")``), empty when the
    #: callee has no static name (a call on a call, a subscript, ...).
    parts: Tuple[str, ...]
    #: Fully-resolved callee qname, when resolution succeeded.
    callee: Optional[str] = None


@dataclass
class ClassInfo:
    """One indexed class definition."""

    qname: str
    name: str
    node: ast.ClassDef
    module: ModuleSource
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: Trailing identifiers of base-class expressions.
    bases: Tuple[str, ...] = ()


def _index_function(
    node: FunctionNode,
    module: ModuleSource,
    qname: str,
    class_name: Optional[str],
) -> FunctionInfo:
    return FunctionInfo(
        qname=qname,
        name=node.name,
        node=node,
        module=module,
        class_name=class_name,
        is_async=isinstance(node, ast.AsyncFunctionDef),
    )


class ProjectIndex:
    """Symbol table + call graph over one set of parsed modules.

    Build it once per run with :func:`build_project`; every query after
    construction is a dictionary lookup or a cached BFS.
    """

    def __init__(self, modules: Sequence[ModuleSource]):
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.classes_by_name: Dict[str, List[ClassInfo]] = {}
        #: module parts -> local name -> absolute target parts under repro.
        self.imports: Dict[Tuple[str, ...], Dict[str, Tuple[str, ...]]] = {}
        self._calls: Dict[str, List[CallSite]] = {}
        for module in modules:
            self._index_module(module)
        for module in modules:
            self._collect_calls(module)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _index_module(self, module: ModuleSource) -> None:
        bindings: Dict[str, Tuple[str, ...]] = {}
        for node in ast.iter_child_nodes(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    parts = tuple(alias.name.split("."))
                    if parts and parts[0] == "repro":
                        local = alias.asname or parts[-1]
                        bindings[local] = parts[1:]
            elif isinstance(node, ast.ImportFrom):
                if node.module is None or node.level:
                    continue  # relative imports are not used in this tree
                base = tuple(node.module.split("."))
                if not base or base[0] != "repro":
                    continue
                for alias in node.names:
                    local = alias.asname or alias.name
                    bindings[local] = base[1:] + (alias.name,)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qname = self._qname(module, node.name)
                info = _index_function(node, module, qname, None)
                self.functions[qname] = info
            elif isinstance(node, ast.ClassDef):
                self._index_class(module, node)
        self.imports[module.parts] = bindings

    def _index_class(self, module: ModuleSource, node: ast.ClassDef) -> None:
        qname = self._qname(module, node.name)
        bases: List[str] = []
        for base in node.bases:
            parts = dotted_name(base)
            if parts:
                bases.append(parts[-1])
        info = ClassInfo(
            qname=qname,
            name=node.name,
            node=node,
            module=module,
            bases=tuple(bases),
        )
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                mq = f"{qname}.{stmt.name}"
                method = _index_function(stmt, module, mq, node.name)
                info.methods[stmt.name] = method
                self.functions[mq] = method
        self.classes[qname] = info
        self.classes_by_name.setdefault(node.name, []).append(info)

    @staticmethod
    def _qname(module: ModuleSource, name: str) -> str:
        return ".".join(module.parts + (name,)) if module.parts else name

    # ------------------------------------------------------------------
    # Call graph
    # ------------------------------------------------------------------
    def _collect_calls(self, module: ModuleSource) -> None:
        for info in list(self.functions.values()):
            if info.module is not module or info.qname in self._calls:
                continue
            sites: List[CallSite] = []
            for node in own_statements(info.node):
                if not isinstance(node, ast.Call):
                    continue
                parts = dotted_name(node.func) or ()
                sites.append(
                    CallSite(
                        node=node,
                        caller=info.qname,
                        parts=parts,
                        callee=self._resolve(info, parts),
                    )
                )
            self._calls[info.qname] = sites

    def _resolve(
        self, caller: FunctionInfo, parts: Tuple[str, ...]
    ) -> Optional[str]:
        if not parts:
            return None
        module = caller.module
        bindings = self.imports.get(module.parts, {})
        # self.method() -> a method of the caller's class (or named bases).
        if parts[0] == "self" and caller.class_name is not None:
            if len(parts) != 2:
                return None
            return self._resolve_method(module, caller.class_name, parts[1])
        if len(parts) == 1:
            name = parts[0]
            local = self.functions.get(self._qname(module, name))
            if local is not None:
                return local.qname
            target = bindings.get(name)
            if target is not None and ".".join(target) in self.functions:
                return ".".join(target)
            # A constructor call resolves to the class's __init__.
            cls = self.classes.get(self._qname(module, name))
            if cls is None and target is not None:
                cls = self.classes.get(".".join(target))
            if cls is not None and "__init__" in cls.methods:
                return cls.methods["__init__"].qname
            return None
        # mod.func() / Class.method() through an import binding or a
        # same-module class name.
        head = bindings.get(parts[0])
        if head is None and self._qname(module, parts[0]) in self.classes:
            head = module.parts + (parts[0],)
        if head is None:
            return None
        candidate = ".".join(head + parts[1:])
        if candidate in self.functions:
            return candidate
        return None

    def _resolve_method(
        self, module: ModuleSource, class_name: str, method: str
    ) -> Optional[str]:
        seen: Set[str] = set()
        queue: List[str] = [class_name]
        while queue:
            name = queue.pop(0)
            if name in seen:
                continue
            seen.add(name)
            cls = self._class_named(module, name)
            if cls is None:
                continue
            if method in cls.methods:
                return cls.methods[method].qname
            queue.extend(cls.bases)
        return None

    def _class_named(
        self, module: ModuleSource, name: str
    ) -> Optional[ClassInfo]:
        """A class by bare name: same module first, else unique project-wide."""
        local = self.classes.get(self._qname(module, name))
        if local is not None:
            return local
        target = self.imports.get(module.parts, {}).get(name)
        if target is not None:
            imported = self.classes.get(".".join(target))
            if imported is not None:
                return imported
        candidates = self.classes_by_name.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def calls_from(self, qname: str) -> List[CallSite]:
        """Every call site inside function ``qname`` (empty if unknown)."""
        return self._calls.get(qname, [])

    def functions_in_package(self, package: str) -> List[FunctionInfo]:
        """Every indexed function whose module sits under ``package``."""
        return [
            f for f in self.functions.values()
            if f.module.parts and f.module.parts[0] == package
        ]

    def reachable(
        self,
        roots: Iterable[str],
        package: Optional[str] = None,
    ) -> Dict[str, str]:
        """BFS closure of resolved call edges from ``roots``.

        Returns ``{reached qname: root qname it was first reached from}``
        (roots map to themselves). With ``package``, traversal stays inside
        modules of that top-level package — the right scope for "what can
        the svc event loop end up executing *in svc*".
        """
        origin: Dict[str, str] = {}
        queue: List[str] = []
        for root in roots:
            if root not in origin:
                origin[root] = root
                queue.append(root)
        while queue:
            current = queue.pop(0)
            for site in self.calls_from(current):
                callee = site.callee
                if callee is None or callee in origin:
                    continue
                info = self.functions.get(callee)
                if info is None:
                    continue
                if package is not None and (
                    not info.module.parts or info.module.parts[0] != package
                ):
                    continue
                origin[callee] = origin[current]
                queue.append(callee)
        return origin


def build_project(modules: Sequence[ModuleSource]) -> ProjectIndex:
    """Build the per-run project index (symbol table + call graph)."""
    return ProjectIndex(modules)
