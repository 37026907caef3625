"""Structured lint findings.

A :class:`Finding` is one rule violation at one source location. Findings
are plain data: the driver (:mod:`repro.lint.driver`) decides what to do
with them (fail, warn because baselined, hide because pragma-suppressed),
and the renderers (:mod:`repro.lint.report`) turn them into text, JSON, or
SARIF. Nothing in this module imports the rest of ``repro``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple


#: Suppression states the driver attaches after pragma/baseline matching.
NEW = "new"              # not suppressed: fails the run
BASELINED = "baselined"  # matched a checked-in baseline entry: warns only
SUPPRESSED = "suppressed"  # matched an inline ``# repro: lint-ignore[...]``

ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class Rule:
    """One lint rule: a stable id, a short kebab-case name, a summary.

    ``rule_id`` (e.g. ``DET003``) is what SARIF and the baseline key on;
    ``name`` (e.g. ``env-read``) is the human handle accepted by pragmas
    and ``--rule`` filters interchangeably with the id.
    """

    rule_id: str
    name: str
    summary: str

    def matches_token(self, token: str) -> bool:
        """True when a pragma/filter token refers to this rule."""
        token = token.strip().lower()
        return token in ("*", self.rule_id.lower(), self.name.lower())


@dataclass
class Finding:
    """One rule violation at one source location."""

    rule_id: str
    path: str
    line: int
    message: str
    severity: str = ERROR
    #: Last source line of the flagged node; pragmas anywhere in
    #: ``[line, end_line]`` suppress the finding (multi-line calls).
    end_line: Optional[int] = None
    col: int = 0
    #: Set by the driver: one of NEW / BASELINED / SUPPRESSED.
    status: str = NEW
    #: The stripped source text of ``line`` — the baseline's line-drift-
    #: tolerant context key.
    context: str = ""
    #: Baseline justification, when ``status == BASELINED``.
    justification: str = ""

    def sort_key(self) -> Tuple[str, int, int, str]:
        """Stable ordering key: (path, line, col, rule)."""
        return (self.path, self.line, self.col, self.rule_id)

    def location(self) -> str:
        """Human-readable ``path:line`` anchor for reports."""
        return f"{self.path}:{self.line}"


@dataclass
class LintResult:
    """Everything one lint run produced, pre-sorted and pre-classified."""

    findings: list = field(default_factory=list)
    #: Baseline entries that matched no finding (candidates for removal).
    stale_baseline: list = field(default_factory=list)
    files_scanned: int = 0
    #: What the run checked: the parsed module paths and the rules that
    #: ran on them. Baseline entries outside this scope were not checked.
    checked_paths: list = field(default_factory=list)
    checked_rules: list = field(default_factory=list)

    @property
    def new_findings(self) -> list:
        return [f for f in self.findings if f.status == NEW]

    @property
    def baselined_findings(self) -> list:
        return [f for f in self.findings if f.status == BASELINED]

    @property
    def suppressed_findings(self) -> list:
        return [f for f in self.findings if f.status == SUPPRESSED]

    @property
    def ok(self) -> bool:
        """True when the run should exit 0 (no new findings)."""
        return not self.new_findings
