"""Shared AST helpers for the lint passes (stdlib only)."""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple


def dotted_name(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """Resolve an ``ast.Name``/``ast.Attribute`` chain to its parts.

    ``np.random.default_rng`` -> ``("np", "random", "default_rng")``;
    returns ``None`` for anything rooted in a call or subscript (those
    chains have no static name).
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def call_name(call: ast.Call) -> Optional[Tuple[str, ...]]:
    """The dotted name of a call's callee, or ``None``."""
    return dotted_name(call.func)


def first_arg(call: ast.Call, keyword: Optional[str] = None,
              position: int = 0) -> Optional[ast.expr]:
    """The argument at ``position`` (or keyword ``keyword``) of a call."""
    if len(call.args) > position:
        return call.args[position]
    if keyword is not None:
        for kw in call.keywords:
            if kw.arg == keyword:
                return kw.value
    return None


def constant_str(node: Optional[ast.expr]) -> Optional[str]:
    """The literal value when ``node`` is a string constant, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def decorator_names(node: ast.ClassDef) -> Set[str]:
    """The trailing identifier of each decorator on a class.

    ``@checkpointable(state=...)`` and ``@repro.ckpt.checkpointable(...)``
    both contribute ``"checkpointable"``.
    """
    names: Set[str] = set()
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        parts = dotted_name(target)
        if parts:
            names.add(parts[-1])
    return names


def class_is_frozen_dataclass(node: ast.ClassDef) -> bool:
    """True for ``@dataclass(frozen=True)`` (any spelling of dataclass)."""
    for dec in node.decorator_list:
        if not isinstance(dec, ast.Call):
            continue
        parts = dotted_name(dec.func)
        if not parts or parts[-1] != "dataclass":
            continue
        for kw in dec.keywords:
            if kw.arg == "frozen" and isinstance(kw.value, ast.Constant):
                if kw.value.value is True:
                    return True
    return False


def self_assignments(tree: ast.AST) -> Iterator[Tuple[str, ast.AST, ast.AST]]:
    """Yield ``(attr, value, node)`` for each ``self.X = value`` in ``tree``.

    Only plain single-target assignments carry a usable value expression;
    augmented assignments yield their value too (``self.x += [..]``).
    """
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    yield target.attr, node.value, node
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target = node.target
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                yield target.attr, node.value, node
