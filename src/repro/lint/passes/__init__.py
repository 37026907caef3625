"""The built-in analysis passes.

``ALL_PASSES`` is the registry the driver runs by default; ``ALL_RULES``
maps every rule id to its :class:`~repro.lint.findings.Rule` for reports,
SARIF rule metadata, and pragma validation.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.lint.base import LintPass
from repro.lint.findings import Rule
from repro.lint.passes.async_blocking import AsyncBlockingPass
from repro.lint.passes.callbacks import CallbackPass
from repro.lint.passes.contract import ContractPass
from repro.lint.passes.determinism import DeterminismPass
from repro.lint.passes.obs_hotloop import ObsHotLoopPass
from repro.lint.passes.obs_names import ObsNamesPass
from repro.lint.passes.payload_literals import PayloadLiteralPass
from repro.lint.passes.rng_stream import RngStreamPass
from repro.lint.passes.svc_clock import SvcClockPass

#: Per-module passes first, then the whole-program (project) passes; the
#: driver runs the former per file and the latter once over the full set.
ALL_PASSES: Tuple[LintPass, ...] = (
    DeterminismPass(),
    RngStreamPass(),
    ContractPass(),
    CallbackPass(),
    ObsNamesPass(),
    ObsHotLoopPass(),
    PayloadLiteralPass(),
    SvcClockPass(),
    AsyncBlockingPass(),
)

ALL_RULES: Dict[str, Rule] = {
    rule.rule_id: rule
    for lint_pass in ALL_PASSES
    for rule in lint_pass.rules
}

__all__ = [
    "ALL_PASSES",
    "ALL_RULES",
    "AsyncBlockingPass",
    "CallbackPass",
    "ContractPass",
    "DeterminismPass",
    "ObsHotLoopPass",
    "ObsNamesPass",
    "PayloadLiteralPass",
    "RngStreamPass",
    "SvcClockPass",
]
