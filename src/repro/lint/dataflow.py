"""Interprocedural dataflow over the project call graph.

:func:`escaped_attribute_writes` finds every attribute *write* performed
on an instance of one class by code **outside** that class (a helper the
object was passed to), by tracking typed parameters (``def f(x: Cls)``)
and ``self`` through call-graph argument passing to a fixpoint. The
runtime contract walk (:func:`repro.ckpt.contract.verify_contract`) only
sees ``self.X = ...`` inside the class's own methods; this closure is the
``CKPT002`` half it cannot see.

The analysis is flow-insensitive within a function (any write anywhere in
the body counts) and path-insensitive across calls — exactly as
conservative as a lint should be: over-approximating the write set can
only demand a contract entry, never hide a hole.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterator, List, Set, Tuple

from repro.lint.graph import (
    CallSite,
    ClassInfo,
    FunctionInfo,
    ProjectIndex,
    own_statements,
)

#: One tracked binding: this parameter of this function holds an instance
#: of the class under analysis.
TrackedParam = Tuple[str, str]  # (function qname, parameter name)


@dataclass(frozen=True)
class AttributeAccess:
    """One attribute write on a tracked value."""

    attr: str
    function: str  # qname of the function the access happens in
    node: ast.AST  # the assignment node


def _tracked_seed(project: ProjectIndex, cls: ClassInfo) -> Set[TrackedParam]:
    """Initial tracked set: annotated params plus ``self`` in the class."""
    tracked: Set[TrackedParam] = set()
    for method in cls.methods.values():
        if method.params and method.params[0] == "self":
            tracked.add((method.qname, "self"))
    for info in project.functions.values():
        for param, annotation in info.annotations.items():
            if annotation == cls.name:
                tracked.add((info.qname, param))
    return tracked


def _argument_bindings(
    project: ProjectIndex, site: CallSite, param: str
) -> Iterator[TrackedParam]:
    """Callee params that receive ``param`` (a plain name) at ``site``."""
    if site.callee is None:
        return
    callee = project.functions.get(site.callee)
    if callee is None:
        return
    # Bound-style calls (`self.m(x)`, `obj.m(x)`) skip the receiver slot;
    # direct function / unbound `Class.method(self, x)` calls do not.
    offset = 0
    if callee.is_method and callee.params and callee.params[0] == "self":
        bound = len(site.parts) > 1 and site.parts[0] != callee.class_name
        if bound or site.parts == (callee.class_name,):
            # Constructor calls bind the object being built, not our value.
            offset = 1
        if site.parts and site.parts[-1] == "__init__":
            offset = 1
    for position, arg in enumerate(site.node.args):
        if isinstance(arg, ast.Name) and arg.id == param:
            index = position + offset
            if index < len(callee.params):
                yield (callee.qname, callee.params[index])
    for keyword in site.node.keywords:
        if (
            keyword.arg is not None
            and isinstance(keyword.value, ast.Name)
            and keyword.value.id == param
            and keyword.arg in callee.params
        ):
            yield (callee.qname, keyword.arg)


def _close_over_calls(
    project: ProjectIndex, tracked: Set[TrackedParam]
) -> Set[TrackedParam]:
    """Fixpoint: propagate tracked values through call-site arguments."""
    queue: List[TrackedParam] = list(tracked)
    while queue:
        qname, param = queue.pop()
        for site in project.calls_from(qname):
            for binding in _argument_bindings(project, site, param):
                if binding not in tracked:
                    tracked.add(binding)
                    queue.append(binding)
    return tracked


def escaped_attribute_writes(
    project: ProjectIndex, cls: ClassInfo
) -> List[AttributeAccess]:
    """Attribute writes on ``cls`` instances made outside the class.

    The tracked set starts from ``self`` in the class's own methods and
    from parameters annotated with the class name, then closes over
    argument passing; writes are reported only for functions that are not
    methods of ``cls`` itself (those are the runtime contract walk's job).
    """
    tracked = _close_over_calls(project, _tracked_seed(project, cls))
    own_methods = {m.qname for m in cls.methods.values()}
    writes: List[AttributeAccess] = []
    for qname, param in sorted(tracked):
        if qname in own_methods:
            continue
        info = project.functions.get(qname)
        if info is None:
            continue
        for access in _writes_on(info, param):
            writes.append(access)
    return writes


def _writes_on(info: FunctionInfo, param: str) -> Iterator[AttributeAccess]:
    """``param.X = ...`` style bindings inside ``info`` (incl. augmented)."""
    def targets(node: ast.AST) -> Iterator[ast.Attribute]:
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id == param:
                yield node
        elif isinstance(node, (ast.Tuple, ast.List)):
            for element in node.elts:
                for found in targets(element):
                    yield found

    for node in own_statements(info.node):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                for attr in targets(target):
                    yield AttributeAccess(attr.attr, info.qname, node)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            for attr in targets(node.target):
                yield AttributeAccess(attr.attr, info.qname, node)
