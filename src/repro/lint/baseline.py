"""The checked-in suppression baseline.

A baseline entry grandfathers one *justified* existing finding: the run
reports it as a warning instead of failing. Entries key on
``(rule, path, context)`` where ``context`` is the stripped source text of
the flagged line — tolerant to line-number drift from unrelated edits, but
strict enough that changing the flagged code itself expires the entry.
``count`` allows N identical occurrences on distinct lines of one file.

Every entry must carry a non-empty ``justification``; the driver refuses
baselines with silent entries, so the file cannot quietly become a
dumping ground.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.lint.findings import BASELINED, Finding

BASELINE_VERSION = 1


class BaselineError(ValueError):
    """The baseline file is malformed."""


@dataclass
class BaselineEntry:
    rule: str
    path: str
    context: str
    justification: str
    count: int = 1

    def key(self) -> Tuple[str, str, str]:
        """Line-drift-tolerant identity: (rule, normalized path, context)."""
        return (self.rule, _norm_path(self.path), self.context)


@dataclass
class Baseline:
    entries: List[BaselineEntry] = field(default_factory=list)

    # ------------------------------------------------------------------
    @classmethod
    def load(cls, path: str) -> "Baseline":
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        if not isinstance(payload, dict) or "entries" not in payload:
            raise BaselineError(f"{path}: not a lint baseline file")
        version = payload.get("version")
        if version != BASELINE_VERSION:
            raise BaselineError(
                f"{path}: unsupported baseline version {version!r}"
            )
        entries = []
        for raw in payload["entries"]:
            try:
                entry = BaselineEntry(
                    rule=raw["rule"],
                    path=raw["path"],
                    context=raw["context"],
                    justification=raw.get("justification", ""),
                    count=int(raw.get("count", 1)),
                )
            except (KeyError, TypeError) as exc:
                raise BaselineError(f"{path}: malformed entry {raw!r}") from exc
            if not entry.justification.strip():
                raise BaselineError(
                    f"{path}: entry for {entry.rule} at {entry.path} has no "
                    "justification — every suppression must say why"
                )
            entries.append(entry)
        return cls(entries)

    def save(self, path: str) -> None:
        """Write the baseline to ``path`` as sorted, versioned JSON."""
        payload = {
            "version": BASELINE_VERSION,
            "entries": [
                {
                    "rule": e.rule,
                    "path": e.path,
                    "context": e.context,
                    "count": e.count,
                    "justification": e.justification,
                }
                for e in sorted(
                    self.entries, key=lambda e: (e.path, e.rule, e.context)
                )
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")

    # ------------------------------------------------------------------
    def apply(
        self,
        findings: List[Finding],
        paths: Iterable[str],
        rules: Iterable[str],
    ) -> List[BaselineEntry]:
        """Mark matching findings BASELINED; return the stale entries.

        Each entry suppresses up to ``count`` findings with the same rule,
        (normalised) path, and stripped line text. An entry left with
        unused capacity is *stale* — the caller reports it so the baseline
        shrinks as code heals — but only when this run checked it: its
        path is among the scanned ``paths`` and its rule among the
        ``rules`` that ran.
        """
        budget: Dict[Tuple[str, str, str], int] = {}
        by_key: Dict[Tuple[str, str, str], BaselineEntry] = {}
        for entry in self.entries:
            budget[entry.key()] = budget.get(entry.key(), 0) + entry.count
            by_key[entry.key()] = entry
        for finding in findings:
            key = (finding.rule_id, _norm_path(finding.path), finding.context)
            if budget.get(key, 0) > 0:
                budget[key] -= 1
                finding.status = BASELINED
                finding.justification = by_key[key].justification
        scanned = {_norm_path(path) for path in paths}
        ran = set(rules)
        return [
            by_key[key] for key, remaining in sorted(budget.items())
            if remaining > 0 and key[1] in scanned and key[0] in ran
        ]

    def unchecked(
        self, paths: Iterable[str], rules: Iterable[str]
    ) -> List[BaselineEntry]:
        """The entries a run over ``paths`` with ``rules`` did not check:
        those whose path was not scanned or whose rule did not run."""
        scanned = {_norm_path(path) for path in paths}
        ran = set(rules)
        return [
            entry for entry in self.entries
            if _norm_path(entry.path) not in scanned or entry.rule not in ran
        ]

    @classmethod
    def from_findings(
        cls, findings: List[Finding], previous: Optional["Baseline"] = None
    ) -> "Baseline":
        """A baseline covering ``findings``, keeping prior justifications."""
        prior: Dict[Tuple[str, str, str], str] = {}
        if previous is not None:
            for entry in previous.entries:
                prior[entry.key()] = entry.justification
        counts: Dict[Tuple[str, str, str], int] = {}
        for finding in findings:
            key = (finding.rule_id, _norm_path(finding.path), finding.context)
            counts[key] = counts.get(key, 0) + 1
        entries = [
            BaselineEntry(
                rule=rule,
                path=path,
                context=context,
                count=count,
                justification=prior.get(
                    (rule, path, context),
                    "TODO: justify this suppression",
                ),
            )
            for (rule, path, context), count in sorted(counts.items())
        ]
        return cls(entries)


def _norm_path(path: str) -> str:
    """Forward-slash relative-ish path so baselines are OS/cwd-portable."""
    norm = path.replace(os.sep, "/")
    while norm.startswith("./"):
        norm = norm[2:]
    return norm
