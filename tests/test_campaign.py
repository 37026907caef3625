"""Adaptive threshold-campaign engine: SPRT decision rule against exact
binomial arithmetic, bisection against exhaustive scans, the shared-pool
cell engine against the fixed-seed oracle, and kill/resume determinism.
"""

import json
import math
import os
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.runner import ExperimentRunner, Job, SecurityJob
from repro.jobs import JobSpec, RunContext
from repro.security.campaign import (
    SAFE,
    UNSAFE,
    CampaignJob,
    CellEngine,
    SprtConfig,
    UndecidedProbe,
    load_frontier,
    oracle_campaign_cell,
    run_campaign_cell,
    save_frontier,
    search_smallest_safe,
    sprt_probe,
    summarize_campaign,
)
from repro.security.kernels import _BatchEngine
from repro.sim.config import SystemConfig

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# ----------------------------------------------------------------------
# SPRT decision rule vs exact binomial arithmetic
# ----------------------------------------------------------------------
class TestSprtConfig:
    def test_llr_is_exact_binomial_likelihood_ratio(self):
        """The incremental llr must equal log(P(k; n, p1) / P(k; n, p0))
        computed from the binomial pmf — the C(n, k) factor cancels."""
        cfg = SprtConfig(alpha=0.01, beta=0.02, p0=0.05, p1=0.3)
        for n in range(1, 30):
            for k in range(n + 1):
                pmf1 = (
                    math.comb(n, k)
                    * cfg.p1 ** k * (1 - cfg.p1) ** (n - k)
                )
                pmf0 = (
                    math.comb(n, k)
                    * cfg.p0 ** k * (1 - cfg.p0) ** (n - k)
                )
                assert cfg.llr(k, n) == pytest.approx(
                    math.log(pmf1 / pmf0), rel=1e-12
                )

    def test_default_bounds(self):
        cfg = SprtConfig()
        assert cfg.upper_bound == pytest.approx(
            math.log((1 - 1e-3) / 1e-3)
        )
        assert cfg.lower_bound == pytest.approx(
            math.log(1e-3 / (1 - 1e-3))
        )

    def test_decide_matches_bounds(self):
        cfg = SprtConfig()
        # Pure break: each exceedance adds log(10) ~ 2.303, so the upper
        # bound (~6.9) is crossed at the 3rd exceedance.
        assert cfg.decide(2, 2) is None
        assert cfg.decide(3, 3) == UNSAFE
        # Pure survive: each survival adds log(0.9/0.99) ~ -0.0953, so
        # the lower bound needs ceil(6.9 / 0.0953) = 73 seeds.
        assert cfg.decide(0, 72) is None
        assert cfg.decide(0, 73) == SAFE

    def test_budget_verdict_is_midpoint_rule(self):
        cfg = SprtConfig(p0=0.1, p1=0.5)  # midpoint 0.3
        assert cfg.budget_verdict(29, 100) == SAFE
        assert cfg.budget_verdict(30, 100) == UNSAFE

    def test_validation(self):
        with pytest.raises(ValueError):
            SprtConfig(alpha=0.0)
        with pytest.raises(ValueError):
            SprtConfig(p0=0.5, p1=0.1)
        with pytest.raises(ValueError):
            SprtConfig(beta=0.7)

    def test_error_rates_within_wald_bounds(self):
        """Exact error probabilities of the truncated SPRT, by dynamic
        programming over the reachable (n, exceedances) states, stay
        within Wald's bounds plus the mass the truncation forces.

        Under H0 (p = p0) the probability of an UNSAFE verdict must be
        <= alpha / (1 - beta) + P(truncated); under H1 symmetrically.
        A loose config keeps the state space tiny and the truncated mass
        visible.
        """
        cfg = SprtConfig(alpha=0.05, beta=0.05, p0=0.1, p1=0.5)
        max_seeds = 60

        def error_rate(p: float, wrong_verdict: str) -> tuple:
            # mass[k] = P(undecided after n seeds with k exceedances)
            mass = {0: 1.0}
            wrong = truncated = 0.0
            for n in range(1, max_seeds + 1):
                nxt = {}
                for k, prob in mass.items():
                    for broke, step_p in ((True, p), (False, 1 - p)):
                        k2 = k + 1 if broke else k
                        verdict = cfg.decide(k2, n)
                        contribution = prob * step_p
                        if verdict is None:
                            nxt[k2] = nxt.get(k2, 0.0) + contribution
                        elif verdict == wrong_verdict:
                            wrong += contribution
                mass = nxt
            for k, prob in mass.items():
                truncated += prob
                if cfg.budget_verdict(k, max_seeds) == wrong_verdict:
                    wrong += prob
            return wrong, truncated

        false_unsafe, trunc0 = error_rate(cfg.p0, UNSAFE)
        false_safe, trunc1 = error_rate(cfg.p1, SAFE)
        assert false_unsafe <= cfg.alpha / (1 - cfg.beta) + trunc0
        assert false_safe <= cfg.beta / (1 - cfg.alpha) + trunc1
        # And the bounds are meaningful: the test would also pass with
        # everything truncated, so pin that most sequences decide.
        assert trunc0 < 0.25 and trunc1 < 0.25


class TestSprtProbe:
    def test_pure_break_stops_fast(self):
        result = sprt_probe([True] * 100, SprtConfig(), 100, threshold=7)
        assert result.verdict == UNSAFE
        assert result.decided_by == "sprt"
        assert result.seeds_used == 3
        assert result.threshold == 7

    def test_pure_survive_stops_at_73(self):
        result = sprt_probe([False] * 100, SprtConfig(), 100)
        assert result.verdict == SAFE
        assert result.seeds_used == 73

    def test_budget_fallback_matches_oracle_rule(self):
        cfg = SprtConfig(p0=0.1, p1=0.5)
        # Alternate just under the midpoint so no bound is ever crossed
        # ... construct an undecided walk: exceed once every 4 seeds sits
        # between the drifts for this config.
        exceed = [i % 4 == 0 for i in range(40)]
        result = sprt_probe(exceed, cfg, 40)
        if result.decided_by == "budget":
            k = sum(exceed)
            assert result.verdict == cfg.budget_verdict(k, 40)
            assert result.seeds_used == 40

    def test_undecided_short_sequence_raises(self):
        with pytest.raises(UndecidedProbe):
            sprt_probe([False] * 10, SprtConfig(), 100)

    def test_decision_depends_only_on_prefix(self):
        """Everything after the crossing is irrelevant — the invariant
        that makes chunked pool growth and resume exact."""
        cfg = SprtConfig()
        head = [True, True, True]
        for tail in ([], [False] * 50, [True] * 50):
            result = sprt_probe(head + tail, cfg, 200)
            assert (result.verdict, result.seeds_used) == (UNSAFE, 3)


# ----------------------------------------------------------------------
# Bisection vs exhaustive scan
# ----------------------------------------------------------------------
class TestSearchSmallestSafe:
    def probe_for(self, boundary):
        """Monotone probe: SAFE at thresholds >= boundary."""
        return lambda t: SAFE if t >= boundary else UNSAFE

    def test_exact_boundaries(self):
        for boundary in [1, 2, 3, 5, 17, 64, 65, 1000, 12345]:
            assert search_smallest_safe(self.probe_for(boundary)) == boundary

    def test_probe_count_is_logarithmic(self):
        calls = []
        boundary = 5000

        def probe(t):
            calls.append(t)
            return SAFE if t >= boundary else UNSAFE

        assert search_smallest_safe(probe) == boundary
        assert len(calls) < 2 * math.log2(boundary) + 4

    def test_no_safe_threshold_raises(self):
        with pytest.raises(RuntimeError):
            search_smallest_safe(lambda t: UNSAFE, cap=1 << 12)

    @given(st.lists(st.floats(min_value=0, max_value=200), min_size=1,
                    max_size=60),
           st.integers(min_value=2, max_value=100))
    @settings(max_examples=200, deadline=None)
    def test_bisection_equals_linear_scan_over_pools(self, pool, max_t):
        """Against arbitrary seed-pressure pools, the bisection finds
        exactly the threshold an exhaustive smallest-to-largest scan of
        the same budget-rule probe finds — the probe family is monotone
        in T by construction, which is the property bisection needs."""
        cfg = SprtConfig(p0=0.1, p1=0.5)

        def probe(t):
            k = sum(1 for p in pool if p >= t)
            return cfg.budget_verdict(k, len(pool))

        found = search_smallest_safe(probe)
        linear = next(t for t in range(1, max(found, max_t) + 2)
                      if probe(t) == SAFE)
        assert found == linear

    @given(st.lists(st.floats(min_value=0, max_value=60), min_size=4,
                    max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_sprt_probe_family_is_monotone(self, pool):
        """SAFE at T implies SAFE at every T' > T when every probe walks
        the same pool prefix — the exceedance indicators are pointwise
        non-increasing in T, so the llr path can only drop. This is the
        cell engine's licence to bisect over SPRT probes."""
        cfg = SprtConfig(alpha=0.05, beta=0.05, p0=0.1, p1=0.5)
        verdicts = [
            sprt_probe([p >= t for p in pool], cfg, len(pool), t).verdict
            for t in range(1, int(max(pool)) + 3)
        ]
        # Once SAFE, never UNSAFE again at a higher threshold.
        first_safe = verdicts.index(SAFE) if SAFE in verdicts else None
        if first_safe is not None:
            assert all(v == SAFE for v in verdicts[first_safe:])


# ----------------------------------------------------------------------
# Campaign jobs: validation, wire codec, cache keys
# ----------------------------------------------------------------------
class TestCampaignJob:
    def test_scenario_pins_version_and_digest(self):
        job = CampaignJob(scenario="row_press", acts=1000, max_seeds=40)
        assert job.scenario_version is not None
        assert len(job.scenario_digest) == 64

    def test_wrong_digest_rejected(self):
        job = CampaignJob(scenario="row_press", acts=1000, max_seeds=40)
        with pytest.raises(ValueError, match="digest"):
            CampaignJob(
                scenario="row_press", scenario_digest="0" * 64,
                acts=1000, max_seeds=40,
            )
        with pytest.raises(ValueError, match="version"):
            CampaignJob(
                scenario="row_press", scenario_version="9.9.9",
                acts=1000, max_seeds=40,
            )
        # and the real values round-trip
        CampaignJob(
            scenario="row_press",
            scenario_version=job.scenario_version,
            scenario_digest=job.scenario_digest,
            acts=1000, max_seeds=40,
        )

    def test_scenario_fields_require_scenario(self):
        with pytest.raises(ValueError):
            CampaignJob(scenario_digest="0" * 64)

    def test_bad_stat_contract_rejected_eagerly(self):
        with pytest.raises(ValueError):
            CampaignJob(p0=0.5, p1=0.1)
        with pytest.raises(ValueError):
            CampaignJob(max_chunk=0)
        with pytest.raises(ValueError):
            CampaignJob(tracker="nope")

    def test_wire_round_trip(self):
        for job in (
            CampaignJob(window=4, acts=1000, max_seeds=50),
            CampaignJob(scenario="abcd_k", acts=1000, max_seeds=50,
                        alpha=0.01, rubix_key=3),
        ):
            wire = job.to_wire()
            decoded = CampaignJob.from_wire(json.loads(json.dumps(wire)))
            assert decoded == job
            assert JobSpec.from_wire(wire) == job
            assert decoded.key() == job.key()

    def test_wire_rejects_unknown_fields(self):
        wire = CampaignJob(max_seeds=50).to_wire()
        wire["surprise"] = 1
        with pytest.raises(ValueError, match="surprise"):
            CampaignJob.from_wire(wire)

    def test_wire_rejects_dropped_min_chunk(self):
        """``min_chunk`` left the job; an old payload carrying it is
        refused with the typed wire error, not silently accepted."""
        wire = CampaignJob(max_seeds=50).to_wire()
        wire["min_chunk"] = 8
        with pytest.raises(ValueError,
                           match=r"unknown CampaignJob wire fields.*min_chunk"):
            CampaignJob.from_wire(wire)

    def test_key_is_backend_blind(self):
        a = CampaignJob(window=4, max_seeds=50, backend="numpy")
        b = CampaignJob(window=4, max_seeds=50, backend="scalar")
        assert a.key() == b.key()

    def test_key_covers_statistical_contract(self):
        base = CampaignJob(window=4, max_seeds=50)
        assert base.key() != (
            CampaignJob(window=4, max_seeds=50, alpha=0.01).key()
        )
        assert base.key() != (
            CampaignJob(window=4, max_seeds=50, max_chunk=128).key()
        )
        assert base.key() != CampaignJob(window=4, max_seeds=60).key()

    def test_only_campaign_keys_moved_with_min_chunk(self):
        """Dropping ``min_chunk`` re-keys campaign cells (the field left
        the hashed dataclass) without a schema bump; simulation and
        security keys are pinned to their values from before the drop."""
        assert Job("add").key(RunContext(SystemConfig(), 300)) == (
            "d856c092f7176fe14c23c370181c194b"
            "8cba623119329cdb2359eedd69553c26"
        )
        assert SecurityJob().key() == (
            "9b4115a1db64c8ac01740891f617775a"
            "0cd3a1f34b874ee1447f9231b2c22c6b"
        )
        assert SecurityJob(scenario="row_press", acts=1000).key() == (
            "02744bb5763cba2fd562bef9ce33ab4a"
            "7ab7e1daa813870fc718ac3933c5659a"
        )
        # The default cell's key while it still carried min_chunk=8.
        assert CampaignJob().key() != (
            "d93203289d8640eb4ed536289837845b"
            "8f4208f5ad9ac1eee79740dab1dd7de3"
        )


# ----------------------------------------------------------------------
# The cell engine: differential vs the fixed-seed oracle
# ----------------------------------------------------------------------
#: Mini-campaign grid used by both the test differential and CI: chosen
#: to span trackers, policies, and corpus scenarios while keeping the
#: fixed-seed oracle affordable.
DIFFERENTIAL_CELLS = (
    dict(tracker="mint", policy="fractal", window=4, acts=1500,
         max_seeds=80),
    dict(tracker="mint", policy="blast", window=4, acts=1500,
         max_seeds=80),
    dict(tracker="para", policy="fractal", window=4, acts=1500,
         max_seeds=80),
    dict(tracker="graphene", policy="fractal", window=4, acts=1500,
         max_seeds=80),
    dict(scenario="row_press", acts=2000, max_seeds=120),
    dict(scenario="abcd_k", acts=2000, max_seeds=120),
)


class TestCellDifferential:
    @pytest.mark.parametrize("cell", DIFFERENTIAL_CELLS,
                             ids=lambda c: c.get("scenario")
                             or f"{c['tracker']}-{c['policy']}")
    def test_sprt_cell_matches_fixed_seed_oracle(self, cell):
        job = CampaignJob(**cell)
        adaptive = run_campaign_cell(job)
        oracle = oracle_campaign_cell(job)
        assert (
            adaptive["tolerated_threshold"]
            == oracle["tolerated_threshold"]
        )
        assert adaptive["seeds_saved_pct"] >= 80.0
        # The pool is shared, so the cell can never spend more than one
        # full budget regardless of probe count.
        assert adaptive["seeds_spent"] <= job.max_seeds

    def test_backend_parity(self):
        a = run_campaign_cell(
            CampaignJob(window=4, acts=1200, max_seeds=80, rubix_key=7)
        )
        b = run_campaign_cell(
            CampaignJob(window=4, acts=1200, max_seeds=80, rubix_key=7,
                        backend="scalar")
        )
        assert a == b

    def test_chunking_never_changes_the_answer(self):
        """The extension width shapes when the pool grows, never what
        any probe concludes: narrow and wide extensions reach the same
        probes and threshold (only seeds_spent may differ)."""
        narrow = CampaignJob(window=4, acts=1200, max_seeds=300,
                             max_chunk=16)
        wide = CampaignJob(window=4, acts=1200, max_seeds=300,
                           max_chunk=256)
        a, b = run_campaign_cell(narrow), run_campaign_cell(wide)
        assert a["tolerated_threshold"] == b["tolerated_threshold"]
        assert a["probes"] == b["probes"]

    @staticmethod
    def _extensions(monkeypatch, job) -> list:
        """Seeds per kernel call while ``job``'s cell searches."""
        widths = []
        replay = _BatchEngine.run_prepared

        def spy(engine, prep, seeds):
            widths.append(len(seeds))
            return replay(engine, prep, seeds)

        monkeypatch.setattr(_BatchEngine, "run_prepared", spy)
        run_campaign_cell(job)
        return widths

    def test_pool_grows_in_one_call_up_to_max_chunk(self, monkeypatch):
        cell = DIFFERENTIAL_CELLS[0]
        job = CampaignJob(**cell)
        assert job.max_seeds <= job.max_chunk
        assert self._extensions(monkeypatch, job) == [job.max_seeds]

    def test_default_budget_cell_extends_at_most_twice(self, monkeypatch):
        job = CampaignJob(window=4, acts=1200)
        assert job.max_seeds == 400 and job.max_chunk == 256
        widths = self._extensions(monkeypatch, job)
        assert widths in ([256], [256, 144])

    def test_result_record_round_trips_json(self):
        record = run_campaign_cell(
            CampaignJob(window=4, acts=1200, max_seeds=80)
        )
        assert json.loads(json.dumps(record)) == record


class TestSummarize:
    def test_totals_and_metrics(self):
        from repro.obs import MetricsRegistry

        records = [
            run_campaign_cell(CampaignJob(window=4, acts=1200,
                                          max_seeds=80)),
        ]
        registry = MetricsRegistry()
        summary = summarize_campaign(records, metrics=registry)
        counters = registry.snapshot()["counters"]
        assert counters["campaign.cells"] == 1
        assert counters["campaign.probes"] == len(records[0]["probes"])
        assert counters["campaign.seeds_spent"] == summary["seeds_spent"]
        assert summary["seeds_saved_vs_fixed"] == (
            summary["fixed_cost_seeds"] - summary["seeds_spent"]
        )


# ----------------------------------------------------------------------
# Frontier persistence and resume
# ----------------------------------------------------------------------
class TestResume:
    def test_frontier_round_trip_is_exact(self, tmp_path):
        pool = [0.0, 3.5, 17.0, 2.0 ** -40, 123456.789]
        save_frontier(str(tmp_path), "k", pool)
        assert load_frontier(str(tmp_path), "k") == pool

    def test_missing_or_corrupt_frontier_is_none(self, tmp_path):
        assert load_frontier(str(tmp_path), "absent") is None
        (tmp_path / "bad.part.json").write_text("{not json")
        assert load_frontier(str(tmp_path), "bad") is None

    def test_resumed_cell_is_bit_identical(self, tmp_path):
        job = CampaignJob(window=4, acts=1200, max_seeds=100)
        baseline = run_campaign_cell(job)

        # Simulate a kill after the first pool extensions: persist a
        # 30-seed frontier, then run a fresh engine against it.
        seeding = CellEngine(job, cache_dir=str(tmp_path), key="cell")
        seeding.ensure_seeds(30)
        resumed_engine = CellEngine(job, cache_dir=str(tmp_path),
                                    key="cell")
        assert resumed_engine.pool == seeding.pool
        result = resumed_engine.run()
        assert result == baseline
        # The resumed engine replayed only the seeds past the frontier.
        assert resumed_engine.seeds_executed == len(
            resumed_engine.pool
        ) - 30
        # The scratch frontier is cleaned up after a completed cell.
        assert load_frontier(str(tmp_path), "cell") is None

    def test_sigkilled_campaign_resumes_to_identical_table(self, tmp_path):
        """Kill a campaign subprocess mid-cell, re-run it, and require
        the final record to be identical to an undisturbed run.

        Timing-robust by construction: whether the kill lands before the
        first pool extension, mid-bisection, or after completion, the
        re-run must converge to the same record (the frontier file and
        the result cache are both content-addressed by the job key).
        """
        cache_dir = str(tmp_path / "cache")
        script = (
            "import sys\n"
            "sys.path.insert(0, %r)\n"
            "from repro.analysis.runner import ExperimentRunner, CampaignJob\n"
            "job = CampaignJob(window=4, acts=2000, max_seeds=300,\n"
            "                  max_chunk=16)\n"
            "runner = ExperimentRunner(cache_dir=%r, jobs=1)\n"
            "record = runner.run_campaign(job)\n"
            "print(record['tolerated_threshold'])\n"
        ) % (os.path.join(REPO_ROOT, "src"), cache_dir)

        victim = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        # Wait for evidence of progress (a frontier or a finished cell),
        # then SIGKILL. If the run already finished, the kill exercises
        # the trivial resume (pure cache hit) — still a valid case.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if os.path.isdir(cache_dir) and any(
                name.endswith(".json") for name in os.listdir(cache_dir)
            ):
                break
            if victim.poll() is not None:
                break
            time.sleep(0.02)
        if victim.poll() is None:
            victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=30)

        job = CampaignJob(window=4, acts=2000, max_seeds=300,
                          max_chunk=16)
        resumed = ExperimentRunner(cache_dir=cache_dir, jobs=1)
        resumed_record = resumed.run_campaign(job)
        pristine = ExperimentRunner(
            cache_dir=str(tmp_path / "fresh"), jobs=1
        ).run_campaign(job)
        assert resumed_record == pristine


# ----------------------------------------------------------------------
# Runner integration
# ----------------------------------------------------------------------
class TestRunnerIntegration:
    def test_dedup_cache_and_backend_twins(self, tmp_path):
        job = CampaignJob(window=4, acts=1200, max_seeds=80)
        twin = CampaignJob(window=4, acts=1200, max_seeds=80,
                           backend="scalar")
        runner = ExperimentRunner(cache_dir=str(tmp_path), jobs=1)
        first, second, third = runner.run_campaign_many([job, job, twin])
        assert first == second == third

        rerun = ExperimentRunner(cache_dir=str(tmp_path), jobs=1)
        assert rerun.run_campaign(job) == first
        assert rerun.cache.hits == 1 and rerun.cache.misses == 0

    def test_parallel_matches_serial(self, tmp_path):
        jobs = [
            CampaignJob(window=4, acts=1200, max_seeds=80),
            CampaignJob(window=4, acts=1200, max_seeds=80,
                        policy="blast"),
        ]
        serial = ExperimentRunner(
            cache_dir=str(tmp_path / "a"), jobs=1
        ).run_campaign_many(jobs)
        parallel = ExperimentRunner(
            cache_dir=str(tmp_path / "b"), jobs=2
        ).run_campaign_many(jobs)
        assert serial == parallel
