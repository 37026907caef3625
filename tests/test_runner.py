"""Experiment runner: parallel determinism and the persistent result cache.

The contract under test is the one the benchmarks rely on: fanning a batch
across worker processes changes wall-clock only — results are bit-identical
to the serial path, in submission order — and a warm cache answers repeat
jobs without running a single simulation.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.runner import (
    CACHE_SCHEMA_VERSION,
    CampaignJob,
    ExperimentRunner,
    Job,
    ResultCache,
    SecurityJob,
)
from repro.jobs import RunContext
from repro.mc.setup import MitigationSetup
from repro.obs import ObsConfig

REQUESTS = 200  # tiny slices: this file tests plumbing, not the paper


def make_runner(small_config, tmp_path, **kwargs):
    kwargs.setdefault("cache_dir", str(tmp_path / "cache"))
    kwargs.setdefault("requests", REQUESTS)
    return ExperimentRunner(config=small_config, **kwargs)


def sample_jobs():
    return [
        Job("add", MitigationSetup("none"), "zen", REQUESTS, 1),
        Job("add", MitigationSetup("rfm", threshold=8), "zen", REQUESTS, 1),
        Job("mcf", MitigationSetup("autorfm", threshold=4, policy="fractal"),
            "rubix", REQUESTS, 1),
    ]


class TestParallelDeterminism:
    def test_parallel_matches_serial_bit_for_bit(self, small_config, tmp_path):
        serial = make_runner(small_config, tmp_path / "s", jobs=1,
                             use_cache=False)
        parallel = make_runner(small_config, tmp_path / "p", jobs=4,
                               use_cache=False)
        jobs = sample_jobs()
        serial_results = serial.run_many(jobs)
        parallel_results = parallel.run_many(jobs)
        assert serial.simulations_run == len(jobs)
        assert parallel.simulations_run == len(jobs)
        for ours, theirs in zip(serial_results, parallel_results):
            # SimStats is a plain dataclass tree of ints: == is bit-exact.
            assert ours.stats == theirs.stats
            assert ours.mapping == theirs.mapping

    def test_jobs_env_var_drives_worker_count(self, small_config, tmp_path,
                                              monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "4")
        runner = make_runner(small_config, tmp_path, use_cache=False)
        assert runner.jobs == 4
        monkeypatch.setenv("REPRO_JOBS", "1")
        assert runner.jobs == 1  # re-read per batch, not frozen at init

    def test_obs_outputs_bit_identical_across_worker_counts(
        self, small_config, tmp_path
    ):
        """The observability outputs honour the same contract as SimStats:
        the trace JSONL and the metrics snapshot coming back from a worker
        process are byte-for-byte what the serial path produces."""
        obs = ObsConfig(metrics=True, trace=True)
        jobs = [
            Job("add", MitigationSetup("autorfm", threshold=4,
                                       policy="fractal"),
                "rubix", REQUESTS, 1, obs=obs),
            Job("mcf", MitigationSetup("rfm", threshold=8),
                "zen", REQUESTS, 1, obs=obs),
        ]
        serial = make_runner(small_config, tmp_path / "s", jobs=1,
                             use_cache=False)
        parallel = make_runner(small_config, tmp_path / "p", jobs=4,
                               use_cache=False)
        for ours, theirs in zip(serial.run_many(jobs),
                                parallel.run_many(jobs)):
            assert ours.obs is not None and theirs.obs is not None
            assert ours.obs.trace_jsonl == theirs.obs.trace_jsonl
            assert ours.obs.metrics == theirs.obs.metrics
            assert ours.obs.trace_dropped == theirs.obs.trace_dropped
            # Only the quarantined wall-clock profile may differ.
            assert ours.obs.trace_jsonl  # non-trivial: events were traced

    def test_run_many_preserves_order_and_dedups(self, small_config, tmp_path):
        runner = make_runner(small_config, tmp_path, jobs=1)
        jobs = sample_jobs()
        batch = [jobs[0], jobs[1], jobs[0], jobs[2], jobs[1]]
        results = runner.run_many(batch)
        assert len(results) == len(batch)
        # Duplicates simulate once but every slot gets its answer.
        assert runner.simulations_run == len(jobs)
        assert results[0].stats == results[2].stats
        assert results[1].stats == results[4].stats


class TestResultCache:
    def test_warm_cache_runs_zero_simulations(self, small_config, tmp_path):
        first = make_runner(small_config, tmp_path, jobs=1)
        jobs = sample_jobs()
        cold = first.run_many(jobs)
        assert first.simulations_run == len(jobs)

        second = make_runner(small_config, tmp_path, jobs=1)
        warm = second.run_many(jobs)
        assert second.simulations_run == 0
        assert second.cache_hits == len(jobs)
        for a, b in zip(cold, warm):
            assert a.stats == b.stats
            assert a.setup == b.setup
            assert a.seed == b.seed

    def test_schema_version_bump_invalidates(self, small_config, tmp_path):
        job = sample_jobs()[0]
        v1 = make_runner(small_config, tmp_path, jobs=1)
        v1.run(job)
        assert v1.simulations_run == 1

        v2 = make_runner(small_config, tmp_path, jobs=1,
                         schema_version=CACHE_SCHEMA_VERSION + 1)
        v2.run(job)
        assert v2.cache_hits == 0
        assert v2.simulations_run == 1  # stale entry ignored, re-simulated

    def test_cache_key_separates_every_knob(self, small_config):
        base = Job("add", MitigationSetup("none"), "zen", REQUESTS, 1)
        variants = [
            Job("mcf", MitigationSetup("none"), "zen", REQUESTS, 1),
            Job("add", MitigationSetup("rfm", threshold=8), "zen", REQUESTS, 1),
            Job("add", MitigationSetup("none"), "rubix", REQUESTS, 1),
            Job("add", MitigationSetup("none"), "zen", REQUESTS + 1, 1),
            Job("add", MitigationSetup("none"), "zen", REQUESTS, 2),
        ]
        context = RunContext(small_config, REQUESTS)
        keys = {j.key(context) for j in [base] + variants}
        assert len(keys) == len(variants) + 1
        # ... and the key is stable across processes/runs for equal inputs.
        assert base.key(context) == Job(
            "add", MitigationSetup("none"), "zen", REQUESTS, 1
        ).key(context)

    def test_corrupt_entry_is_a_miss(self, small_config, tmp_path):
        runner = make_runner(small_config, tmp_path, jobs=1)
        job = sample_jobs()[0]
        reference = runner.run(job)
        key = runner.key_for(job)
        path = runner.cache._path(key)
        with open(path, "w") as f:
            f.write("{ not json")
        again = runner.run(job)
        assert runner.simulations_run == 2  # corrupt file did not poison it
        assert again.stats == reference.stats

    def test_disabled_cache_always_simulates(self, small_config, tmp_path):
        runner = make_runner(small_config, tmp_path, jobs=1, use_cache=False)
        assert runner.cache is None
        job = sample_jobs()[0]
        runner.run(job)
        runner.run(job)
        assert runner.simulations_run == 2

    def test_clear_empties_the_directory(self, small_config, tmp_path):
        runner = make_runner(small_config, tmp_path, jobs=1)
        runner.run_many(sample_jobs())
        assert len(runner.cache) == len(sample_jobs())
        removed = runner.cache.clear()
        assert removed == len(sample_jobs())
        assert len(runner.cache) == 0


def _store_entry(runner, name):
    """Run one small job of kind ``name`` through ``runner`` (which stores
    it); returns ``(job class, cache key)``."""
    if name in ("sim", "sim_observed"):
        obs = ObsConfig(trace=True, trace_capacity=64) if name != "sim" else None
        job = Job("add", MitigationSetup("autorfm", threshold=4), "rubix",
                  REQUESTS, 1, obs=obs)
        runner.run(job)
    elif name == "security":
        job = SecurityJob(acts=2000, window=4, seeds=3)
        runner.run_security(job)
    else:
        job = CampaignJob(window=4, acts=1200, max_seeds=80)
        runner.run_campaign(job)
    return type(job), runner.key_for(job)


def _corrupt(path, fault):
    """Damage the cache entry at ``path`` in the way ``fault`` names."""
    with open(path, "rb") as f:
        raw = f.read()
    entry = json.loads(raw)
    if fault == "truncated":
        damaged = raw[: len(raw) // 2]
    elif fault == "bit_flipped":
        damaged = bytes([raw[0] ^ 1]) + raw[1:]  # '{' -> 'z'
    elif fault == "not_an_object":
        damaged = b"[]"
    elif fault == "foreign_schema":
        entry["schema"] = CACHE_SCHEMA_VERSION + 1
        damaged = json.dumps(entry).encode()
    else:  # wrong_section: another kind's entry under this key
        section = next(k for k in entry if k != "schema")
        other = "security" if section != "security" else "result"
        entry[other] = entry.pop(section)
        damaged = json.dumps(entry).encode()
    with open(path, "wb") as f:
        f.write(damaged)


CACHE_FAULTS = (
    "truncated", "bit_flipped", "not_an_object", "foreign_schema",
    "wrong_section",
)


class TestCacheReadPath:
    """``load`` and ``load_payload`` share one validated read: the payload
    is the stored section exactly as the decoded value re-encodes, and a
    damaged entry is a miss on both."""

    @pytest.mark.parametrize(
        "name", ["sim", "sim_observed", "security", "campaign"]
    )
    def test_payload_is_the_encoded_decoded_value(
        self, small_config, tmp_path, name
    ):
        runner = make_runner(small_config, tmp_path, jobs=1)
        kind, key = _store_entry(runner, name)
        cache = runner.cache
        payload = cache.load_payload(key, kind)
        assert payload is not None
        assert payload == kind.encode_result(cache.load(key, kind))
        with open(cache._path(key)) as f:
            assert payload == json.load(f)[kind.section]

    @pytest.mark.parametrize("fault", CACHE_FAULTS)
    def test_damaged_entry_is_a_miss_on_both_paths(
        self, small_config, tmp_path, fault
    ):
        runner = make_runner(small_config, tmp_path, jobs=1)
        kind, key = _store_entry(runner, "sim")
        cache = ResultCache(runner.cache.directory)
        _corrupt(cache._path(key), fault)
        assert cache.load(key, kind) is None
        assert cache.load_payload(key, kind) is None
        assert (cache.hits, cache.misses) == (0, 2)


class TestJobValidation:
    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="workload"):
            Job("definitely-not-a-workload")

    def test_unknown_mapping_rejected(self):
        with pytest.raises(ValueError, match="mapping"):
            Job("add", mapping="striped")
