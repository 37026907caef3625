"""Wire-schema drift pass: the daemon and the client agree on the ops.

The sweep service ships requests between processes as ndjson messages
whose ``op`` names live in three places that must agree: the module-level
``OPS`` tuple of the protocol, the daemon's op dispatch, and
``SweepClient``'s call sites. Each pair can drift silently — a declared
op no branch handles is answered "unhandled" at run time, and an op the
client issues outside ``OPS`` is rejected as unknown. (Job payloads need
no such pass: their codec is derived from the job dataclass fields in
:mod:`repro.jobs`, so it cannot drift from them.)

* ``WIRE002`` — protocol op-set drift: an op in the module-level ``OPS``
  tuple that no daemon branch handles, an ``OPS`` op the client never
  issues, or a handled/issued op missing from ``OPS``.

Op detection is syntactic but anchored to the tree's idioms: the daemon
dispatches with ``if op == "name"`` chains, the client funnels every
request through ``self._call("name", ...)``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Sequence, Set, Tuple

from repro.lint.base import ModuleSource, ProjectLintPass
from repro.lint.findings import Finding, Rule
from repro.lint.graph import ProjectIndex


class WireSchemaPass(ProjectLintPass):
    """Flags protocol op-set drift (``WIRE002``)."""

    name = "wire-schema"
    rules: Tuple[Rule, ...] = (
        Rule("WIRE002", "protocol-op-drift",
             "protocol op known to only some of OPS / daemon / client"),
    )

    def check_project(self, project: ProjectIndex) -> Iterator[Finding]:
        ops_node: Optional[ast.Assign] = None
        ops_module: Optional[ModuleSource] = None
        declared: Set[str] = set()
        svc_modules = [
            m for parts, m in sorted(project.modules.items())
            if parts and parts[0] == "svc"
        ]
        for module in svc_modules:
            found = _declared_ops(module)
            if found is not None:
                ops_node, declared = found
                ops_module = module
                break
        if ops_module is None or ops_node is None:
            return
        handled = _handled_ops(svc_modules)
        called = _called_ops(svc_modules)
        for op in sorted(declared - set(handled)):
            yield self.finding(
                "WIRE002", ops_module, ops_node,
                f"protocol op {op!r} is declared in OPS but no daemon "
                "branch handles it (no `op == \"" + op + "\"` dispatch)",
            )
        for op in sorted(declared - set(called)):
            yield self.finding(
                "WIRE002", ops_module, ops_node,
                f"protocol op {op!r} is declared in OPS but the client "
                "never issues it (no `self._call(\"" + op + "\", ...)`)",
            )
        for op, (module, node) in sorted(handled.items()):
            if op not in declared:
                yield self.finding(
                    "WIRE002", module, node,
                    f"daemon handles op {op!r} which is missing from OPS; "
                    "add it to the protocol or drop the branch",
                )
        for op, (module, node) in sorted(called.items()):
            if op not in declared:
                yield self.finding(
                    "WIRE002", module, node,
                    f"client issues op {op!r} which is missing from OPS; "
                    "the daemon will reject it as unknown",
                )


def _declared_ops(
    module: ModuleSource,
) -> Optional[Tuple[ast.Assign, Set[str]]]:
    """The module-level ``OPS = ("...", ...)`` tuple, if this module has it."""
    for node in ast.iter_child_nodes(module.tree):
        if not isinstance(node, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == "OPS" for t in node.targets
        ):
            continue
        if isinstance(node.value, (ast.Tuple, ast.List)):
            ops = {
                e.value for e in node.value.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            }
            return node, ops
    return None


def _handled_ops(
    modules: Sequence[ModuleSource],
) -> Dict[str, Tuple[ModuleSource, ast.AST]]:
    """Every ``op == "name"`` comparison in the svc tree (daemon dispatch)."""
    handled: Dict[str, Tuple[ModuleSource, ast.AST]] = {}
    for module in modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not (isinstance(node.left, ast.Name) and node.left.id == "op"):
                continue
            if len(node.ops) != 1 or not isinstance(node.ops[0], ast.Eq):
                continue
            comparator = node.comparators[0]
            if isinstance(comparator, ast.Constant) and isinstance(
                comparator.value, str
            ):
                handled.setdefault(comparator.value, (module, node))
    return handled


def _called_ops(
    modules: Sequence[ModuleSource],
) -> Dict[str, Tuple[ModuleSource, ast.AST]]:
    """Every literal first argument of a ``*._call("name", ...)`` call."""
    called: Dict[str, Tuple[ModuleSource, ast.AST]] = {}
    for module in modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr == "_call"):
                continue
            if node.args and isinstance(node.args[0], ast.Constant) and (
                isinstance(node.args[0].value, str)
            ):
                called.setdefault(node.args[0].value, (module, node))
    return called
