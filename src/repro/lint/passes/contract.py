"""Checkpoint-contract pass: mutable sim state must declare a contract.

The runtime half of this check lives in :mod:`repro.ckpt.contract`: every
capture checks that each *registered* object it serialises holds only
attributes its contract classifies. This pass covers what no capture can
see — a class in a sim-critical package that was never registered at
all. If it holds mutable containers, its state silently
escapes every snapshot and ``capture``/``restore`` round trips diverge.

* ``CKPT001`` a sim-critical class assigns a mutable container
  (list/dict/set/deque/... literal, comprehension, or constructor) to
  ``self`` — or declares a dataclass field with one — without being
  ``@checkpointable`` / ``@checkpointable_dataclass`` / frozen.

Pre-resolved observability handle bundles (pure derived wiring rebuilt at
attach time) are the legitimate exception; they carry a baseline entry with
that justification rather than a contract.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.lint.astutil import (
    call_name,
    class_is_frozen_dataclass,
    decorator_names,
    self_assignments,
)
from repro.lint.base import LintPass, ModuleSource
from repro.lint.findings import Finding, Rule

#: Decorators that register a state contract.
_CONTRACT_DECORATORS = frozenset({
    "checkpointable", "checkpointable_dataclass", "register_class",
})

#: Constructors whose results are mutable containers.
_MUTABLE_CONSTRUCTORS = frozenset({
    "list", "dict", "set", "deque", "OrderedDict", "defaultdict",
    "Counter", "bytearray", "array", "zeros", "empty", "full", "ones",
})


def _mutable_initializer(value: ast.AST) -> Optional[str]:
    """A short description when ``value`` builds a mutable container."""
    if isinstance(value, (ast.List, ast.Dict, ast.Set)):
        return type(value).__name__.lower() + " literal"
    if isinstance(value, (ast.ListComp, ast.DictComp, ast.SetComp)):
        return "comprehension"
    if isinstance(value, ast.Call):
        parts = call_name(value)
        if parts and parts[-1] in _MUTABLE_CONSTRUCTORS:
            return f"{parts[-1]}(...)"
    return None


def _dataclass_mutable_fields(node: ast.ClassDef) -> List[Tuple[str, str]]:
    """(field, description) for mutable dataclass field declarations."""
    out: List[Tuple[str, str]] = []
    for stmt in node.body:
        if not isinstance(stmt, ast.AnnAssign):
            continue
        if not isinstance(stmt.target, ast.Name):
            continue
        value = stmt.value
        if value is None:
            continue
        described = _mutable_initializer(value)
        if described is None and isinstance(value, ast.Call):
            parts = call_name(value)
            if parts and parts[-1] == "field":
                for kw in value.keywords:
                    if kw.arg == "default_factory":
                        factory = kw.value
                        factory_parts = (
                            call_name(factory)
                            if isinstance(factory, ast.Call)
                            else None
                        )
                        name = None
                        if isinstance(factory, ast.Name):
                            name = factory.id
                        elif factory_parts:
                            name = factory_parts[-1]
                        if name in _MUTABLE_CONSTRUCTORS:
                            described = f"default_factory={name}"
        if described is not None:
            out.append((stmt.target.id, described))
    return out


def _is_dataclass(node: ast.ClassDef) -> bool:
    return "dataclass" in decorator_names(node)


class ContractPass(LintPass):
    """Flags unregistered mutable sim-critical classes (``CKPT001``)."""

    name = "checkpoint-contract"
    rules: Tuple[Rule, ...] = (
        Rule("CKPT001", "ckpt-mutable",
             "mutable sim-critical class without a state contract"),
    )

    def applies_to(self, module: ModuleSource) -> bool:
        return module.is_sim_critical

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            decorators = decorator_names(node)
            if decorators & _CONTRACT_DECORATORS:
                continue
            if class_is_frozen_dataclass(node):
                continue
            mutable: List[Tuple[str, str]] = []
            for attr, value, _assign in self_assignments(node):
                described = _mutable_initializer(value)
                if described is not None:
                    mutable.append((attr, described))
            if _is_dataclass(node):
                mutable.extend(_dataclass_mutable_fields(node))
            if not mutable:
                continue
            attrs = ", ".join(
                f"self.{name} = {desc}" for name, desc in sorted(mutable)[:3]
            )
            yield self.finding(
                "CKPT001", module, node,
                f"class {node.name} holds mutable state ({attrs}) but "
                "declares no state contract: it will silently escape every "
                "snapshot; register it with @checkpointable (or classify "
                "the attribute as derived) — see docs/checkpointing.md",
            )
