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
  declare a state contract (the runtime half lives in
  :mod:`repro.ckpt.contract`, which shares this package's AST walk);
* **schedulable-callback** (``CB001``) — event-heap callbacks are bound
  methods or partials, never closures;
* **obs-naming** (``OBS001``/``OBS002``) — metric/span names are literal
  and convention-shaped.

On top of the per-module passes sits a whole-program layer
(:mod:`repro.lint.graph` + :mod:`repro.lint.dataflow`) whose passes see
the full ``src/repro`` tree through one call graph per run:

* **wire-schema** (``WIRE002``) — daemon and client agree on the
  protocol op set;
* **checkpoint-flow** (``CKPT002``) — self-attributes written by helpers
  the object escapes to are covered by the ``@checkpointable`` contract;
* **async-blocking** (``ASYNC001``) — nothing reachable from the
  ``repro.svc`` event loop blocks it.

Job wire codecs and cache keys need no pass: :mod:`repro.jobs` derives
both from the job dataclass fields, so they agree by construction.

Run it as ``python -m repro lint [paths]`` (or ``make lint``); suppress a
justified finding inline with ``# repro: lint-ignore[rule-id]`` or in the
checked-in ``lint-baseline.json``. ``repro lint --changed`` (or ``make
lint-fast``) lints only git-modified files and skips the whole-program
layer for quick pre-commit runs. See ``docs/static-analysis.md`` for the
rule catalog.

This package (like :mod:`repro.ckpt.contract`, which imports it) stays
dependency-free within ``repro`` so any layer can use it without cycles.
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
]
