"""Pass infrastructure: parsed module sources, pragmas, and the pass ABC.

A :class:`ModuleSource` is one parsed file plus everything a pass needs to
scope itself (the module's dotted path under ``repro``) and everything the
driver needs to suppress findings (the per-line pragma map). Passes are
stateless visitors: ``run(module)`` yields findings; the driver owns
suppression and reporting.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import PurePath
from typing import (
    TYPE_CHECKING, Dict, FrozenSet, Iterable, Iterator, List, Optional, Tuple,
)

from repro.lint.findings import ERROR, Finding, Rule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (graph imports base)
    from repro.lint.graph import ProjectIndex

#: Packages whose modules feed simulated behaviour: a nondeterminism here
#: silently invalidates every seed-keyed result. ``security.kernels`` is the
#: one sim-critical module inside an otherwise analytical package.
SIM_CRITICAL_PACKAGES: Tuple[str, ...] = (
    "sim", "mc", "dram", "core", "rfm", "trackers",
)
SIM_CRITICAL_MODULES: Tuple[Tuple[str, ...], ...] = (
    ("security", "kernels"),
)

#: ``# repro: lint-ignore[DET003]`` / ``# repro: lint-ignore[env-read, RNG001]``
PRAGMA_RE = re.compile(
    r"#\s*repro:\s*lint-ignore\[([A-Za-z0-9_\-\*,\s]+)\]"
)


def module_parts(path: str) -> Tuple[str, ...]:
    """Dotted-module parts of ``path`` relative to the ``repro`` package.

    ``src/repro/mc/controller.py`` -> ``("mc", "controller")``. Paths not
    under a ``repro`` directory fall back to their bare stem, so fixture
    files in tests can still opt into a package by spelling a synthetic
    path like ``src/repro/sim/fixture.py``.
    """
    parts = PurePath(path).parts
    if "repro" in parts:
        rel = parts[len(parts) - 1 - parts[::-1].index("repro"):]
        rel = rel[1:]
    else:
        rel = parts[-1:]
    rel = tuple(p[:-3] if p.endswith(".py") else p for p in rel)
    return tuple(p for p in rel if p != "__init__")


def parse_pragmas(lines: Iterable[str]) -> Dict[int, FrozenSet[str]]:
    """Map 1-based line numbers to the rule tokens ignored on that line."""
    pragmas: Dict[int, FrozenSet[str]] = {}
    for lineno, line in enumerate(lines, start=1):
        match = PRAGMA_RE.search(line)
        if match:
            tokens = frozenset(
                t.strip().lower() for t in match.group(1).split(",")
                if t.strip()
            )
            if tokens:
                pragmas[lineno] = tokens
    return pragmas


@dataclass
class ModuleSource:
    """One parsed source file, ready for the passes."""

    path: str
    text: str
    tree: ast.AST
    lines: List[str] = field(default_factory=list)
    parts: Tuple[str, ...] = ()
    pragmas: Dict[int, FrozenSet[str]] = field(default_factory=dict)

    @classmethod
    def from_text(cls, text: str, path: str) -> "ModuleSource":
        lines = text.splitlines()
        return cls(
            path=path,
            text=text,
            tree=ast.parse(text, filename=path),
            lines=lines,
            parts=module_parts(path),
            pragmas=parse_pragmas(lines),
        )

    @property
    def is_sim_critical(self) -> bool:
        if self.parts and self.parts[0] in SIM_CRITICAL_PACKAGES:
            return True
        return self.parts in SIM_CRITICAL_MODULES

    def in_package(self, package: str) -> bool:
        """True when the module sits under ``package`` within repro."""
        return bool(self.parts) and self.parts[0] == package

    def line_text(self, lineno: int) -> str:
        """The stripped source text of 1-based ``line`` (empty if absent)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1].strip()
        return ""

    def ignored_rules(self, line: int, end_line: Optional[int]) -> FrozenSet[str]:
        """Union of pragma tokens anywhere in ``[line, end_line]``."""
        stop = end_line if end_line and end_line >= line else line
        tokens: set = set()
        for lineno in range(line, stop + 1):
            tokens |= self.pragmas.get(lineno, frozenset())
        return frozenset(tokens)


class LintPass:
    """Base class for one analysis pass.

    Subclasses set ``name``/``rules`` and implement :meth:`check`; the
    shared :meth:`run` handles scoping and fills in per-finding context.
    """

    #: Pass name used in reports and ``--pass`` filters.
    name: str = ""
    #: The rules this pass can emit.
    rules: Tuple[Rule, ...] = ()

    def applies_to(self, module: ModuleSource) -> bool:
        """Whether this pass scans ``module`` at all (default: yes)."""
        return True

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        """Yield the findings this pass produces for ``module``."""
        raise NotImplementedError

    def run(self, module: ModuleSource) -> List[Finding]:
        """Run the pass over ``module``, filling in finding context lines."""
        if not self.applies_to(module):
            return []
        findings = []
        for finding in self.check(module):
            finding.context = module.line_text(finding.line)
            findings.append(finding)
        return findings

    # ------------------------------------------------------------------
    def rule(self, rule_id: str) -> Rule:
        """Look up one of this pass's rules by id."""
        for rule in self.rules:
            if rule.rule_id == rule_id:
                return rule
        raise KeyError(f"pass {self.name!r} has no rule {rule_id!r}")

    def finding(self, rule_id: str, module: ModuleSource, node: ast.AST,
                message: str) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(
            rule_id=rule_id,
            path=module.path,
            line=getattr(node, "lineno", 1),
            end_line=getattr(node, "end_lineno", None),
            col=getattr(node, "col_offset", 0),
            message=message,
            severity=ERROR,
        )


class ProjectLintPass(LintPass):
    """Base class for whole-program passes.

    A project pass sees every parsed module at once through a
    :class:`~repro.lint.graph.ProjectIndex` instead of one module at a
    time, so it can follow calls across files. The driver
    builds the index once per run and calls :meth:`check_project`; the
    per-module :meth:`check` never runs (``applies_to`` is False).

    Findings carry the path of whatever module they anchor in; the driver
    maps them back to that module for pragma suppression and context.
    """

    def applies_to(self, module: ModuleSource) -> bool:
        return False

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        return iter(())

    def check_project(self, project: "ProjectIndex") -> Iterator[Finding]:
        """Yield findings for the whole project."""
        raise NotImplementedError
