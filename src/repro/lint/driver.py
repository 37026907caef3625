"""The lint driver: discover, parse, run passes, suppress, classify.

The pipeline per run:

1. discover ``.py`` files under the given paths (skipping ``__pycache__``),
2. parse each into a :class:`~repro.lint.base.ModuleSource`,
3. run every pass that applies, deduplicating identical findings,
4. drop findings covered by a same-line ``# repro: lint-ignore[rule]``
   pragma (kept in the result, marked ``suppressed``),
5. downgrade findings matched by the checked-in baseline to warnings,
6. report stale baseline entries — those for a scanned file and a rule
   that ran, which no finding used — so the suppression file shrinks as
   the code heals.

The exit contract (used by ``repro lint`` and CI): new findings fail,
baselined findings warn, suppressed findings are invisible by default.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence, Set

from repro.lint.base import LintPass, ModuleSource, ProjectLintPass
from repro.lint.baseline import Baseline
from repro.lint.findings import Finding, LintResult, Rule, SUPPRESSED
from repro.lint.graph import build_project
from repro.lint.passes import ALL_PASSES, ALL_RULES


def discover_files(paths: Sequence[str]) -> List[str]:
    """Every ``.py`` file under ``paths`` (files pass through), sorted."""
    out: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            out.append(path)
            continue
        for root, dirs, files in os.walk(path):
            dirs[:] = sorted(
                d for d in dirs if d != "__pycache__" and not d.startswith(".")
            )
            for name in sorted(files):
                if name.endswith(".py"):
                    out.append(os.path.join(root, name))
    return sorted(dict.fromkeys(out))


def _display_path(path: str, relative_to: Optional[str]) -> str:
    """Stable forward-slash path for reports and baseline matching."""
    base = relative_to if relative_to is not None else os.getcwd()
    try:
        rel = os.path.relpath(path, base)
    except ValueError:  # different drive on Windows
        rel = path
    if not rel.startswith(".."):
        path = rel
    return path.replace(os.sep, "/")


def selected_rules(
    passes: Optional[Iterable[LintPass]],
    rule_filter: Optional[Sequence[str]],
) -> List[Rule]:
    """The rules of ``passes`` (default: every registered pass) that
    ``rule_filter`` names by id or name; all of them when it is empty."""
    return [
        rule
        for lint_pass in (ALL_PASSES if passes is None else passes)
        for rule in lint_pass.rules
        if not rule_filter
        or any(rule.matches_token(token) for token in rule_filter)
    ]


def _select_passes(
    passes: Optional[Iterable[LintPass]],
    rule_filter: Optional[Sequence[str]],
) -> List[LintPass]:
    selected = list(passes) if passes is not None else list(ALL_PASSES)
    return [p for p in selected if selected_rules([p], rule_filter)]


def _wanted(rule_filter: Optional[Sequence[str]]) -> Optional[Set[str]]:
    """Ids of the registered rules ``rule_filter`` keeps (None: all)."""
    if not rule_filter:
        return None
    return {rule.rule_id for rule in selected_rules(None, rule_filter)}


def lint_module(
    module: ModuleSource,
    passes: Optional[Iterable[LintPass]] = None,
    rule_filter: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Run the passes over one parsed module; pragma-classify, dedupe, sort.

    With ``rule_filter``, only findings for the named rules (by id or name)
    are kept — the passes still run whole, the filter applies to output.
    """
    wanted = _wanted(rule_filter)
    findings: List[Finding] = []
    seen: set = set()
    for lint_pass in _select_passes(passes, None):
        for finding in lint_pass.run(module):
            key = (finding.rule_id, finding.path, finding.line, finding.col,
                   finding.message)
            if key in seen:
                continue
            seen.add(key)
            if wanted is not None and finding.rule_id not in wanted:
                continue
            tokens = module.ignored_rules(finding.line, finding.end_line)
            if tokens:
                rule = ALL_RULES.get(finding.rule_id)
                if rule is not None and any(
                    rule.matches_token(token) for token in tokens
                ):
                    finding.status = SUPPRESSED
            findings.append(finding)
    findings.sort(key=lambda f: f.sort_key())
    return findings


def lint_source(
    text: str,
    path: str = "src/repro/sim/fixture.py",
    passes: Optional[Iterable[LintPass]] = None,
) -> List[Finding]:
    """Lint a source snippet as if it lived at ``path`` (test helper)."""
    return lint_module(ModuleSource.from_text(text, path), passes=passes)


def _project_findings(
    modules: Sequence[ModuleSource],
    passes: Optional[Iterable[LintPass]] = None,
    rule_filter: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Run the whole-program passes once over ``modules``.

    The :class:`~repro.lint.graph.ProjectIndex` is built once and shared by
    every project pass — graph construction dominates the interprocedural
    cost, so this is the lever that keeps the full-tree run under the CI
    wall-time budget. Findings are mapped back to their module for pragma
    suppression and context, exactly like per-module findings.
    """
    selected = [
        p for p in _select_passes(passes, rule_filter)
        if isinstance(p, ProjectLintPass)
    ]
    if not selected:
        return []
    project = build_project(modules)
    by_path = {module.path: module for module in modules}
    wanted = _wanted(rule_filter)
    findings: List[Finding] = []
    seen: set = set()
    for lint_pass in selected:
        for finding in lint_pass.check_project(project):
            key = (finding.rule_id, finding.path, finding.line, finding.col,
                   finding.message)
            if key in seen:
                continue
            seen.add(key)
            if wanted is not None and finding.rule_id not in wanted:
                continue
            module = by_path.get(finding.path)
            if module is not None:
                finding.context = module.line_text(finding.line)
                tokens = module.ignored_rules(finding.line, finding.end_line)
                if tokens:
                    rule = ALL_RULES.get(finding.rule_id)
                    if rule is not None and any(
                        rule.matches_token(token) for token in tokens
                    ):
                        finding.status = SUPPRESSED
            findings.append(finding)
    findings.sort(key=lambda f: f.sort_key())
    return findings


def lint_project(
    files: Dict[str, str],
    passes: Optional[Iterable[LintPass]] = None,
    rule_filter: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint an in-memory file set with the whole-program passes (test helper).

    ``files`` maps display paths to source text. Only project passes run by
    default, so fixture trees exercise the ASYNC rule without noise from
    the per-module passes; pass ``passes`` explicitly to mix in
    per-module ones (they run per file first, then the project passes).
    """
    modules = [
        ModuleSource.from_text(text, path)
        for path, text in sorted(files.items())
    ]
    findings: List[Finding] = []
    if passes is not None:
        for module in modules:
            findings.extend(
                lint_module(module, passes=passes, rule_filter=rule_filter)
            )
    findings.extend(_project_findings(modules, passes, rule_filter))
    findings.sort(key=lambda f: f.sort_key())
    return findings


def run_lint(
    paths: Sequence[str],
    baseline: Optional[Baseline] = None,
    passes: Optional[Iterable[LintPass]] = None,
    rule_filter: Optional[Sequence[str]] = None,
    relative_to: Optional[str] = None,
    project: bool = True,
) -> LintResult:
    """Lint every file under ``paths`` and classify against ``baseline``.

    ``project=False`` skips the whole-program passes (no call graph is
    built) — the fast pre-commit mode behind ``repro lint --changed`` and
    ``make lint-fast``; CI always runs the full interprocedural set.
    """
    result = LintResult()
    all_findings: List[Finding] = []
    modules: List[ModuleSource] = []
    for filename in discover_files(paths):
        with open(filename, "r", encoding="utf-8") as handle:
            text = handle.read()
        display = _display_path(filename, relative_to)
        result.files_scanned += 1
        try:
            module = ModuleSource.from_text(text, display)
        except SyntaxError as exc:
            finding = Finding(
                rule_id="PARSE",
                path=display,
                line=exc.lineno or 1,
                message=f"file does not parse: {exc.msg}",
            )
            all_findings.append(finding)
            continue
        modules.append(module)
        all_findings.extend(
            lint_module(module, passes=passes, rule_filter=rule_filter)
        )
    if project:
        all_findings.extend(_project_findings(modules, passes, rule_filter))
    checked = [
        lint_pass for lint_pass in _select_passes(passes, None)
        if project or not isinstance(lint_pass, ProjectLintPass)
    ]
    result.checked_paths = [m.path for m in modules]
    result.checked_rules = [
        rule.rule_id for rule in selected_rules(checked, rule_filter)
    ]
    if baseline is not None:
        active = [f for f in all_findings if f.status != SUPPRESSED]
        result.stale_baseline = baseline.apply(
            active, paths=result.checked_paths, rules=result.checked_rules
        )
    all_findings.sort(key=lambda f: f.sort_key())
    result.findings = all_findings
    return result


def load_baseline(path: Optional[str]) -> Optional[Baseline]:
    """Load ``path`` when given/present; missing default is simply no baseline."""
    if path is None:
        return None
    if not os.path.exists(path):
        return None
    return Baseline.load(path)
