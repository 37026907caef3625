"""``repro.lint`` — determinism & contract static analysis for the repro tree.

An AST-based framework with five built-in passes that enforce, at analysis
time, the invariants the differential test suites can only check after a
violation ships:

* **determinism** (``DET001``–``DET005``) — no wall clocks, global RNG
  state, stray ``os.environ`` reads, ``id()`` keys, or unordered set
  iteration in sim-critical packages;
* **rng-stream** (``RNG001``/``RNG002``) — every RNG construction flows
  from :class:`repro.sim.rng.RngStreams` or a ``SeedSequence`` parameter;
* **checkpoint-contract** (``CKPT001``) — mutable sim-critical classes
  declare a state contract at all (whether a registered class's contract
  covers every attribute is checked on each capture, by
  :func:`repro.ckpt.contract.checked_contract`);
* **schedulable-callback** (``CB001``) — event-heap callbacks are bound
  methods or partials, never closures;
* **obs-naming** (``OBS001``/``OBS002``) — metric/span names are literal
  and convention-shaped.

On top of the per-module passes sits a whole-program layer
(:mod:`repro.lint.graph`, one call graph per run over the full
``src/repro`` tree) with one pass:

* **async-blocking** (``ASYNC001``) — nothing reachable from the
  ``repro.svc`` event loop blocks it.

Some contracts need no pass because they hold by construction: job wire
codecs and cache keys are derived from the job dataclass fields
(:mod:`repro.jobs`), and the daemon's op dispatch table is built from the
protocol's ``OPS`` when :mod:`repro.svc.scheduler` is imported, which
fails on an op without a handler.

Run it as ``python -m repro lint [paths]`` (or ``make lint``); suppress a
justified finding inline with ``# repro: lint-ignore[rule-id]`` or in the
checked-in ``lint-baseline.json``. ``repro lint --changed`` (or ``make
lint-fast``) lints only git-modified files and skips the whole-program
layer for quick pre-commit runs. See ``docs/static-analysis.md`` for the
rule catalog.

Nothing in the simulator imports this package; it is loaded only by the
``repro lint`` command and its tests.
"""

from repro.lint.base import LintPass, ModuleSource, ProjectLintPass
from repro.lint.baseline import Baseline, BaselineEntry, BaselineError
from repro.lint.driver import (
    discover_files,
    lint_module,
    lint_project,
    lint_source,
    load_baseline,
    run_lint,
    selected_rules,
)
from repro.lint.findings import Finding, LintResult, Rule
from repro.lint.graph import ProjectIndex, build_project
from repro.lint.passes import ALL_PASSES, ALL_RULES
from repro.lint.report import FORMATS, render

__all__ = [
    "ALL_PASSES",
    "ALL_RULES",
    "Baseline",
    "BaselineEntry",
    "BaselineError",
    "FORMATS",
    "Finding",
    "LintPass",
    "LintResult",
    "ModuleSource",
    "ProjectIndex",
    "ProjectLintPass",
    "Rule",
    "build_project",
    "discover_files",
    "lint_module",
    "lint_project",
    "lint_source",
    "load_baseline",
    "render",
    "run_lint",
    "selected_rules",
]
