"""Adaptive Monte-Carlo threshold-search campaigns: bisection over the
candidate Rowhammer threshold with SPRT early-stopping per probe.

The fixed-``seeds=`` sweep in :mod:`repro.security.thresholds` spends the
same seed budget on every point, including points whose verdict is
statistically settled after a handful of replays. A campaign cell — one
{tracker x policy x pattern} configuration — instead searches for the
**empirical tolerated threshold**: the smallest integer ``T`` such that
the probability a random seed's replay reaches pressure ``>= T`` is low.

Three ideas make the search cheap:

* **SPRT per probe** (Wald's sequential probability-ratio test). A probe
  at threshold ``T`` tests ``H0: p <= p0`` (safe) against ``H1: p >= p1``
  (unsafe) over the per-seed exceedance indicators. The log-likelihood
  ratio walks by ``log(p1/p0)`` per exceedance and ``log((1-p1)/(1-p0))``
  per survival; the probe stops the moment it crosses
  ``log((1-beta)/alpha)`` (UNSAFE) or ``log(beta/(1-alpha))`` (SAFE) —
  typically after 3-80 seeds at the default ``alpha = beta = 1e-3``
  instead of the full fixed budget. A probe that exhausts ``max_seeds``
  undecided falls back to comparing the exceedance rate against the
  midpoint ``(p0 + p1) / 2`` (``decided_by="budget"``) — the same rule
  the exhaustive oracle uses, so truncation can never create a verdict
  the oracle would not reach.
* **One shared seed pool per cell.** A seed's replay pressure does not
  depend on the probed threshold, so every probe walks the *same* pool of
  per-seed max pressures (seed 0, 1, 2, ... in order) and the pool only
  grows when a probe runs past its frontier — by ``max_chunk`` seeds (up
  to ``max_seeds``) in one batched replay. A replay's cost is set by its
  ACT steps, each paying a fixed dispatch overhead, far more than by its
  seed count, so one wide extension is cheaper than several narrow ones.
  ``seeds_spent`` for the whole cell is the pool size, not the per-probe
  sum.
* **Replay-invariant reuse.** The cell compiles its pattern once, builds
  the batch engine (and the cipher's ``encrypt_array`` table) once, and
  replays chunks through :meth:`_BatchEngine.run_prepared` with a
  recycled pressure arena — no per-probe pattern or remap work.

Determinism and resume: the pool's contents are a pure function of the
job description (seed ``s`` always produces the same pressure), and every
probe decision depends only on a prefix of the pool, so the extension
width, restarts, and partial frontiers can never change a verdict. A cell
given a result cache persists its frontier (the evaluated pool) after
every extension; a killed campaign reloads it and continues
mid-bisection.

See ``docs/threshold_campaign.md`` for the full algorithm and error-bound
discussion.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.jobs import (
    KEY_BLIND,
    JobSpec,
    RunContext,
    check_attack_fields,
    keyed_when,
)

__all__ = [
    "SAFE",
    "UNSAFE",
    "CampaignJob",
    "CellEngine",
    "ProbeResult",
    "SprtConfig",
    "UndecidedProbe",
    "frontier_path",
    "load_frontier",
    "oracle_campaign_cell",
    "run_campaign_cell",
    "save_frontier",
    "search_smallest_safe",
    "sprt_probe",
    "summarize_campaign",
]

#: Probe verdicts. ``UNSAFE`` = the exceedance probability at this
#: threshold is high (the defense does not tolerate it); ``SAFE`` = low.
SAFE = "safe"
UNSAFE = "unsafe"

DEFAULT_ALPHA = 1e-3
DEFAULT_BETA = 1e-3
#: Indifference-region edges for the per-seed exceedance probability:
#: ``p <= p0`` reads as safe, ``p >= p1`` as unsafe.
DEFAULT_P0 = 0.01
DEFAULT_P1 = 0.10

#: Seeds per pool extension, i.e. per kernel call; it also bounds the
#: pressure arena at ``max_chunk x`` the rows the replay can reach (see
#: ``_BatchEngine._span``), not ``x rows_per_bank``.
DEFAULT_MAX_CHUNK = 256

#: Hard ceiling for the exponential search (pressure is bounded by
#: activations x the largest hammer damage, far below this).
_SEARCH_CAP = 1 << 40


# ----------------------------------------------------------------------
# The sequential test
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SprtConfig:
    """Wald SPRT parameters for one probe.

    ``alpha`` bounds the probability of calling a truly-safe threshold
    unsafe, ``beta`` the reverse (both via Wald's inequalities:
    the realized error rates are at most ``alpha / (1 - beta)`` and
    ``beta / (1 - alpha)``).
    """

    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA
    p0: float = DEFAULT_P0
    p1: float = DEFAULT_P1

    def __post_init__(self):
        if not (0.0 < self.alpha < 0.5 and 0.0 < self.beta < 0.5):
            raise ValueError(
                f"alpha/beta must be in (0, 0.5), got "
                f"{self.alpha}/{self.beta}"
            )
        if not (0.0 < self.p0 < self.p1 < 1.0):
            raise ValueError(
                f"need 0 < p0 < p1 < 1, got p0={self.p0} p1={self.p1}"
            )

    # -- log-likelihood geometry --------------------------------------
    @property
    def step_break(self) -> float:
        """LLR increment per exceedance (positive)."""
        return math.log(self.p1 / self.p0)

    @property
    def step_survive(self) -> float:
        """LLR increment per survival (negative)."""
        return math.log((1.0 - self.p1) / (1.0 - self.p0))

    @property
    def upper_bound(self) -> float:
        """Crossing here rejects H0: verdict UNSAFE."""
        return math.log((1.0 - self.beta) / self.alpha)

    @property
    def lower_bound(self) -> float:
        """Crossing here accepts H0: verdict SAFE."""
        return math.log(self.beta / (1.0 - self.alpha))

    def llr(self, exceedances: int, n: int) -> float:
        """The log-likelihood ratio after ``n`` seeds, ``exceedances``
        of which broke the threshold."""
        return (
            exceedances * self.step_break
            + (n - exceedances) * self.step_survive
        )

    def decide(self, exceedances: int, n: int) -> Optional[str]:
        """SPRT decision after ``n`` seeds, or None (keep sampling)."""
        value = self.llr(exceedances, n)
        if value >= self.upper_bound:
            return UNSAFE
        if value <= self.lower_bound:
            return SAFE
        return None

    def budget_verdict(self, exceedances: int, n: int) -> str:
        """Forced verdict at the seed budget: exceedance rate vs the
        indifference-region midpoint. The exhaustive fixed-seed oracle
        uses this same rule over the full budget."""
        return UNSAFE if exceedances / n >= (self.p0 + self.p1) / 2 else SAFE


@dataclass(frozen=True)
class ProbeResult:
    """One threshold probe's outcome."""

    threshold: int
    verdict: str
    #: Seeds consumed before the verdict (pool prefix length).
    seeds_used: int
    #: How many of those seeds reached pressure >= threshold.
    exceedances: int
    #: "sprt" (a bound was crossed) or "budget" (max_seeds fallback).
    decided_by: str

    def to_dict(self) -> dict:
        """Plain-JSON form for result records."""
        return dataclasses.asdict(self)


class UndecidedProbe(ValueError):
    """The indicators ran out before a Wald bound or the seed budget."""


def sprt_probe(
    exceed: Sequence[bool], cfg: SprtConfig, max_seeds: int,
    threshold: int = 0,
) -> ProbeResult:
    """Walk exceedance indicators in order until a bound is crossed.

    The one probe decision rule: :class:`CellEngine` calls it over its
    pool and grows the pool when it raises :class:`UndecidedProbe`;
    tests pin it against exact binomial probabilities.
    """
    exceedances = 0
    for n, broke in enumerate(exceed[:max_seeds], start=1):
        if broke:
            exceedances += 1
        verdict = cfg.decide(exceedances, n)
        if verdict is not None:
            return ProbeResult(threshold, verdict, n, exceedances, "sprt")
    n = min(len(exceed), max_seeds)
    if n < max_seeds:
        raise UndecidedProbe(
            f"undecided after {n} indicators; need up to {max_seeds}"
        )
    return ProbeResult(
        threshold, cfg.budget_verdict(exceedances, n), n, exceedances,
        "budget",
    )


# ----------------------------------------------------------------------
# Threshold search
# ----------------------------------------------------------------------
def search_smallest_safe(
    probe: Callable[[int], str], cap: int = _SEARCH_CAP
) -> int:
    """Smallest ``T >= 1`` with ``probe(T) == SAFE``.

    ``probe`` must be monotone (SAFE at ``T`` implies SAFE at every
    larger threshold) — which the shared-pool SPRT probe is, because the
    per-seed exceedance indicators are pointwise non-increasing in ``T``
    over the same pool prefix. Exponential search brackets the boundary,
    then integer bisection pins it: ``O(log T*)`` probes total.
    """
    if probe(1) == SAFE:
        return 1
    lo, hi = 1, 2
    while probe(hi) == UNSAFE:
        lo = hi
        hi *= 2
        if hi > cap:
            raise RuntimeError(f"no safe threshold found below {cap}")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if probe(mid) == SAFE:
            hi = mid
        else:
            lo = mid
    return hi


# ----------------------------------------------------------------------
# Campaign jobs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignJob(JobSpec):
    """One campaign cell: a {tracker x policy x pattern} configuration
    plus the search's statistical contract.

    Mirrors :class:`repro.analysis.runner.SecurityJob`: describes *what*
    to search, not how. ``backend`` is excluded from the cache key (both
    kernel backends produce exactly equal pressures). The SPRT parameters
    and ``max_chunk`` **are** key material — a cell probed under
    different error bounds is a different artifact, and ``max_chunk``
    sets the ``seeds_spent`` its record reports.

    With no ``scenario``, the pattern is ``attack`` over ``rows`` (or,
    for the default ``round_robin`` with empty ``rows``, the
    window-optimal (ABCD)^K aggressors ``base_row + 10*i``). A scenario
    compiles from the versioned corpus and pins its manifest version and
    compiled-rows digest into the cell identity.
    """

    kind = "campaign"
    section = "campaign"
    result_type = dict
    profile_counters = ("campaign_cells", None, "campaign_executed")

    tracker: str = "mint"
    policy: str = "fractal"
    window: int = 4
    acts: int = 6_000
    attack: str = "round_robin"
    rows: Tuple[int, ...] = ()
    base_row: int = 70_000
    scenario: Optional[str] = field(
        default=None, metadata=keyed_when("scenario")
    )
    scenario_version: Optional[str] = field(
        default=None, metadata=keyed_when("scenario")
    )
    #: sha256 of the scenario's compiled row stream (corpus-pinned);
    #: auto-filled from the manifest at construction.
    scenario_digest: Optional[str] = field(
        default=None, metadata=keyed_when("scenario")
    )
    scenario_params: Tuple[Tuple[str, int], ...] = field(
        default=(), metadata=keyed_when("scenario")
    )
    rows_per_bank: int = 128 * 1024
    blast_radius: int = 2
    refresh_interval_acts: Optional[int] = None
    rubix_key: Optional[int] = None
    #: Per-probe seed budget (the fixed-sweep cost one probe would pay).
    max_seeds: int = 400
    alpha: float = DEFAULT_ALPHA
    beta: float = DEFAULT_BETA
    p0: float = DEFAULT_P0
    p1: float = DEFAULT_P1
    max_chunk: int = DEFAULT_MAX_CHUNK
    backend: str = field(default="numpy", metadata=KEY_BLIND)

    def __post_init__(self):
        check_attack_fields(self)
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if self.acts < self.window:
            raise ValueError("acts must cover at least one window")
        if self.max_seeds < 2:
            raise ValueError("max_seeds must be >= 2")
        if self.max_chunk < 1:
            raise ValueError("max_chunk must be >= 1")
        # Validate the statistical contract eagerly (same errors a probe
        # would raise, but at construction time).
        self.sprt_config()

    def execute(self, key: str, context: RunContext) -> dict:
        """Search this cell. With a cache directory the cell persists its
        seed-pool frontier there after every extension and resumes from a
        surviving frontier, so a killed campaign re-invoked with the same
        jobs picks up mid-bisection instead of from seed 0."""
        if context.cache_dir is None:
            return run_campaign_cell(self)
        return run_campaign_cell(self, cache_dir=context.cache_dir, key=key)

    @classmethod
    def summary(cls, payload: dict) -> str:
        return (
            f"tolerated threshold {payload['tolerated_threshold']}, "
            f"{len(payload['probes'])} probe(s), "
            f"{payload['seeds_spent']} seeds spent "
            f"({payload['seeds_saved_pct']:.1f}% saved)"
        )

    def sprt_config(self) -> SprtConfig:
        """The probe decision rule this job pins."""
        return SprtConfig(self.alpha, self.beta, self.p0, self.p1)

    def pattern_rows(self) -> List[int]:
        """Compile/generate this cell's logical row stream."""
        if self.scenario is not None:
            from repro.payload import compile_scenario

            return list(
                compile_scenario(
                    self.scenario,
                    params=dict(self.scenario_params),
                    acts=self.acts,
                ).rows
            )
        from repro.security.kernels import build_pattern

        rows = list(self.rows)
        if not rows and self.attack == "round_robin":
            rows = [self.base_row + 10 * i for i in range(self.window)]
        elif not rows:
            raise ValueError(f"attack {self.attack!r} needs explicit rows")
        return build_pattern(self.attack, rows, self.acts)

    def cell_label(self) -> str:
        """Human-readable cell identity for tables and logs."""
        pattern = self.scenario or f"{self.attack}"
        return f"{self.tracker}/{self.policy} W={self.window} {pattern}"


# ----------------------------------------------------------------------
# Frontier persistence (mid-bisection resume)
# ----------------------------------------------------------------------
#: Partial-frontier files live next to the cell's result cache entry.
FRONTIER_SUFFIX = ".part.json"


def frontier_path(cache_dir: str, key: str) -> str:
    """Where the cell keyed ``key`` persists its in-progress seed pool."""
    return os.path.join(cache_dir, f"{key}{FRONTIER_SUFFIX}")


def save_frontier(cache_dir: str, key: str, pool: Sequence[float]) -> None:
    """Atomically persist the evaluated seed pool (resume checkpoint).

    JSON float round-trips are exact in Python, so a reloaded frontier is
    bit-identical to the pool that was saved.
    """
    os.makedirs(cache_dir, exist_ok=True)
    payload = {"pool": list(pool)}
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as f:
            json.dump(payload, f, separators=(",", ":"))
        os.replace(tmp, frontier_path(cache_dir, key))
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_frontier(cache_dir: str, key: str) -> Optional[List[float]]:
    """The persisted pool for ``key`` (None if absent or unreadable)."""
    try:
        with open(frontier_path(cache_dir, key)) as f:
            data = json.load(f)
        pool = data["pool"]
        if not isinstance(pool, list):
            raise ValueError("malformed frontier")
        return [float(v) for v in pool]
    except (OSError, ValueError, KeyError, TypeError):
        return None


def drop_frontier(cache_dir: str, key: str) -> None:
    """Remove the scratch frontier (the cell's record reached the cache)."""
    try:
        os.unlink(frontier_path(cache_dir, key))
    except OSError:
        pass


# ----------------------------------------------------------------------
# The cell engine
# ----------------------------------------------------------------------
class CellEngine:
    """One campaign cell's shared-pool prober.

    Owns the compiled pattern, the prepared batch engine, and the growing
    pool of per-seed max pressures. ``cache_dir``/``key`` opt into
    frontier persistence: the pool is saved after every extension and
    reloaded at construction, so a killed campaign resumes exactly where
    the frontier stood.
    """

    def __init__(
        self,
        job: CampaignJob,
        cache_dir: Optional[str] = None,
        key: Optional[str] = None,
    ):
        self.job = job
        self.cfg = job.sprt_config()
        self.cache_dir = cache_dir
        self.key = key
        #: Per-seed max pressures for seeds ``0..len(pool)-1``.
        self.pool: List[float] = []
        #: Seeds actually replayed by *this* engine (excludes the resumed
        #: frontier) — the resume tests read this.
        self.seeds_executed = 0
        self._engine = None
        self._prep = None
        if cache_dir is not None and key is not None:
            resumed = load_frontier(cache_dir, key)
            if resumed:
                self.pool = resumed[:job.max_seeds]

    # ------------------------------------------------------------------
    def _ensure_engine(self):
        if self._engine is not None:
            return
        from repro.mapping.kcipher import KCipher
        from repro.security.kernels import (
            _BatchEngine,
            policy_spec_from_string,
            tracker_spec_from_strings,
        )

        job = self.job
        cipher = (
            KCipher(job.rows_per_bank, job.rubix_key)
            if job.rubix_key is not None
            else None
        )
        self._engine = _BatchEngine(
            tracker_spec_from_strings(job.tracker, job.window),
            policy_spec_from_string(job.policy),
            job.window,
            job.rows_per_bank,
            job.blast_radius,
            job.refresh_interval_acts,
            cipher,
            False,  # collect_pressure: only max pressures matter
        )
        self._prep = self._engine.prepare(job.pattern_rows())

    def ensure_seeds(self, n: int) -> None:
        """Grow the pool to cover seeds ``0..n-1`` (one batched replay).

        The scalar backend routes through :func:`run_attack_batch` for
        oracle parity; the numpy backend replays the prepared pattern.
        """
        n = min(n, self.job.max_seeds)
        if len(self.pool) >= n:
            return
        start = len(self.pool)
        seeds = list(range(start, n))
        if self.job.backend == "scalar":
            from repro.security.kernels import (
                policy_spec_from_string,
                run_attack_batch,
                tracker_spec_from_strings,
            )
            from repro.mapping.kcipher import KCipher

            job = self.job
            cipher = (
                KCipher(job.rows_per_bank, job.rubix_key)
                if job.rubix_key is not None
                else None
            )
            results = run_attack_batch(
                [job.pattern_rows()],
                tracker_spec_from_strings(job.tracker, job.window),
                policy_spec_from_string(job.policy),
                window=job.window,
                seeds=seeds,
                rows_per_bank=job.rows_per_bank,
                blast_radius=job.blast_radius,
                refresh_interval_acts=job.refresh_interval_acts,
                row_cipher=cipher,
                backend="scalar",
                collect_pressure=False,
            )[0]
        else:
            self._ensure_engine()
            results = self._engine.run_prepared(self._prep, seeds)
        self.pool.extend(r.max_pressure for r in results)
        self.seeds_executed += len(seeds)
        if self.cache_dir is not None and self.key is not None:
            save_frontier(self.cache_dir, self.key, self.pool)

    # ------------------------------------------------------------------
    def probe(self, threshold: int) -> ProbeResult:
        """SPRT probe at ``threshold`` over the shared pool, extending it
        by ``max_chunk`` seeds whenever the walk runs past the frontier."""
        while True:
            exceed = [p >= threshold for p in self.pool]
            try:
                return sprt_probe(
                    exceed, self.cfg, self.job.max_seeds, threshold
                )
            except UndecidedProbe:
                self.ensure_seeds(len(self.pool) + self.job.max_chunk)

    def run(self) -> dict:
        """Bisect to the tolerated threshold; returns the cell's result
        record (JSON-round-trippable, cacheable)."""
        probes: List[ProbeResult] = []

        def probing(threshold: int) -> str:
            result = self.probe(threshold)
            probes.append(result)
            return result.verdict

        tolerated = search_smallest_safe(probing)
        seeds_spent = len(self.pool)
        fixed_cost = len(probes) * self.job.max_seeds
        result = {
            "tolerated_threshold": tolerated,
            "seeds_spent": seeds_spent,
            "probes": [p.to_dict() for p in probes],
            "fixed_cost_seeds": fixed_cost,
            "seeds_saved_pct": round(
                100.0 * (1.0 - seeds_spent / fixed_cost), 2
            ),
            "cell": {
                "tracker": self.job.tracker,
                "policy": self.job.policy,
                "window": self.job.window,
                "acts": self.job.acts,
                "scenario": self.job.scenario,
                "attack": self.job.attack,
                "max_seeds": self.job.max_seeds,
            },
        }
        if self.cache_dir is not None and self.key is not None:
            # The frontier outlives the run only as scratch; the final
            # record supersedes it.
            drop_frontier(self.cache_dir, self.key)
        return result


def run_campaign_cell(
    job: CampaignJob,
    cache_dir: Optional[str] = None,
    key: Optional[str] = None,
) -> dict:
    """Search one cell (resuming from a persisted frontier if present)."""
    return CellEngine(job, cache_dir=cache_dir, key=key).run()


def oracle_campaign_cell(job: CampaignJob) -> dict:
    """The exhaustive fixed-seed reference for one cell.

    Evaluates the **full** ``max_seeds`` pool up front and decides every
    probe with the budget rule over all of it — what the fixed-``seeds=``
    sweep would conclude, at the cost the campaign is supposed to avoid.
    The differential suite holds the SPRT cell to this oracle's verdicts.
    """
    engine = CellEngine(job)
    engine.ensure_seeds(job.max_seeds)
    pool = engine.pool
    cfg = job.sprt_config()
    probes: List[ProbeResult] = []

    def probing(threshold: int) -> str:
        exceedances = sum(1 for p in pool if p >= threshold)
        verdict = cfg.budget_verdict(exceedances, len(pool))
        probes.append(ProbeResult(
            threshold, verdict, len(pool), exceedances, "budget"
        ))
        return verdict

    tolerated = search_smallest_safe(probing)
    return {
        "tolerated_threshold": tolerated,
        "seeds_spent": len(pool) ,
        "probes": [p.to_dict() for p in probes],
        "fixed_cost_seeds": len(probes) * job.max_seeds,
        "seeds_saved_pct": 0.0,
        "cell": {
            "tracker": job.tracker,
            "policy": job.policy,
            "window": job.window,
            "acts": job.acts,
            "scenario": job.scenario,
            "attack": job.attack,
            "max_seeds": job.max_seeds,
        },
    }


# ----------------------------------------------------------------------
# Campaign-level aggregation and obs
# ----------------------------------------------------------------------
def summarize_campaign(results: Sequence[dict], metrics=None) -> dict:
    """Aggregate cell records into campaign totals.

    ``metrics`` (a :class:`repro.obs.MetricsRegistry`) receives the
    deterministic ``campaign.*`` counters — cells, probes, seeds_spent,
    and seeds_saved_vs_fixed. Wall-clock-derived rates
    (``cells_per_second``) are deliberately **not** registry material
    (the registry is determinism-contracted); they ride on the runner's
    :class:`~repro.obs.PhaseProfiler` snapshot instead.
    """
    cells = len(results)
    probes = sum(len(r["probes"]) for r in results)
    seeds_spent = sum(r["seeds_spent"] for r in results)
    fixed = sum(r["fixed_cost_seeds"] for r in results)
    saved = fixed - seeds_spent
    summary = {
        "cells": cells,
        "probes": probes,
        "seeds_spent": seeds_spent,
        "fixed_cost_seeds": fixed,
        "seeds_saved_vs_fixed": saved,
        "seeds_saved_pct": (
            round(100.0 * saved / fixed, 2) if fixed else 0.0
        ),
    }
    if metrics is not None:
        metrics.counter("campaign.cells").inc(cells)
        metrics.counter("campaign.probes").inc(probes)
        metrics.counter("campaign.seeds_spent").inc(seeds_spent)
        metrics.counter("campaign.seeds_saved_vs_fixed").inc(saved)
    return summary
