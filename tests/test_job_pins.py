"""Byte-level pins of the job model's observable contract.

Three things leave the process and must never drift silently, because
other processes (the sweep daemon, an older cache directory, another
host's client) rely on them:

* the sha256 cache key of each job kind;
* the versioned wire dict a job travels as;
* the bytes :class:`ResultCache` writes for one stored result.

Each pin below was computed once and is compared exactly. A change that
moves any of them must bump ``CACHE_SCHEMA_VERSION`` (keys, entries) or
``JOB_WIRE_SCHEMA_VERSION`` (wire dicts) and re-pin on purpose.
"""

import dataclasses

import pytest

from repro.analysis.runner import (
    CACHE_SCHEMA_VERSION,
    JOB_WIRE_SCHEMA_VERSION,
    CampaignJob,
    ExperimentRunner,
    Job,
    ResultCache,
    SecurityJob,
    result_from_dict,
)
from repro.mc.setup import MitigationSetup
from repro.obs import ObsConfig
from repro.sim.config import SystemConfig

SETUP = MitigationSetup("autorfm", threshold=4)

JOBS = {
    "sim": Job("add", SETUP, "rubix", seed=3),
    "sim_observed": Job(
        "add", SETUP, "rubix", seed=3,
        obs=ObsConfig(trace=True, trace_capacity=128),
    ),
    # Segmentation and the timing backend are execution strategies: the
    # key must equal the plain job's.
    "sim_segmented_batch": Job(
        "add", SETUP, "rubix", seed=3, segment_cycles=5000, backend="batch",
    ),
    "security": SecurityJob(
        attack="single_sided", rows=(1000, 1002), acts=2000, seeds=8,
        rubix_key=7,
    ),
    "security_scenario": SecurityJob(
        scenario="row_press", acts=1000, seeds=4,
        scenario_params={"victim": 5000, "hold": 32},
    ),
    "campaign": CampaignJob(),
    "campaign_scenario": CampaignJob(
        scenario="abcd_k", acts=1000, max_seeds=50,
        scenario_params={"stride": 12},
    ),
}

PLAIN_SIM_KEY = (
    "a3aa4459e46e34e703619dfe151447989a184d77ad7cf50650e2d80d81cc4fe3"
)

EXPECTED_KEYS = {
    "sim": PLAIN_SIM_KEY,
    "sim_observed": (
        "18a91d0730ed76570026f8185efea6500dc213e135e9081ba7a7465aa59d417a"
    ),
    "sim_segmented_batch": PLAIN_SIM_KEY,
    "security": (
        "26d054dbc07246ff24f375d9e1a58ad1a1e9e21e99850dc29c936a30971e77d9"
    ),
    "security_scenario": (
        "dd4c90048ba9771e048bdff1b5388eb8852ff8c07a8901fa51e45102b7ca2aca"
    ),
    "campaign": (
        "7a1d1b8a35c90681612ba173dd1a3f2581e575e10a3fef9b5ce47f112caa99c2"
    ),
    "campaign_scenario": (
        "e79a4aeee3a36293a923cdc3a0e115d88195a684241f0f7ad29e1f9a8cde8452"
    ),
}

SETUP_WIRE = {
    "mechanism": "autorfm", "threshold": 4, "tracker": "mint",
    "policy": "fractal", "pride_fifo_entries": 4, "mithril_entries": 1024,
    "prac_trh_d": 100, "per_request_retry": False, "tm_retry_cycles": 0,
    "smd_regions_per_bank": 8, "blockhammer_trh": 1000,
}
SIM_WIRE = {
    "kind": "sim", "schema": 1, "workload": "add", "setup": SETUP_WIRE,
    "mapping": "rubix", "requests": None, "seed": 3, "obs": None,
    "segment_cycles": None, "backend": "scalar",
}
SECURITY_WIRE = {
    "kind": "security", "schema": 1, "attack": "single_sided",
    "rows": [1000, 1002], "acts": 2000, "window": 4, "tracker": "mint",
    "policy": "fractal", "seeds": 8, "rows_per_bank": 131072,
    "blast_radius": 2, "refresh_interval_acts": None, "rubix_key": 7,
    "scenario": None, "scenario_version": None, "scenario_params": [],
    "backend": "numpy",
}
CAMPAIGN_WIRE = {
    "kind": "campaign", "schema": 1, "tracker": "mint", "policy": "fractal",
    "window": 4, "acts": 6000, "attack": "round_robin", "rows": [],
    "base_row": 70000, "scenario": None, "scenario_version": None,
    "scenario_digest": None, "scenario_params": [], "rows_per_bank": 131072,
    "blast_radius": 2, "refresh_interval_acts": None, "rubix_key": None,
    "max_seeds": 400, "alpha": 0.001, "beta": 0.001, "p0": 0.01, "p1": 0.1,
    "max_chunk": 256, "backend": "numpy",
}

EXPECTED_WIRE = {
    "sim": SIM_WIRE,
    "sim_observed": dict(
        SIM_WIRE, obs={"metrics": True, "trace": True, "trace_capacity": 128},
    ),
    "sim_segmented_batch": dict(
        SIM_WIRE, segment_cycles=5000, backend="batch",
    ),
    "security": SECURITY_WIRE,
    "security_scenario": dict(
        SECURITY_WIRE, attack="double_sided", rows=[70000], acts=1000,
        seeds=4, rubix_key=None, scenario="row_press",
        scenario_version="1.0.0",
        scenario_params=[["hold", 32], ["victim", 5000]],
    ),
    "campaign": CAMPAIGN_WIRE,
    "campaign_scenario": dict(
        CAMPAIGN_WIRE, acts=1000, max_seeds=50, scenario="abcd_k",
        scenario_version="1.0.0",
        scenario_digest=(
            "b2d6b4a928a97ab56de0e091c140b396"
            "6700e3cdf4f2d473c6a2e18ab0d46b04"
        ),
        scenario_params=[["stride", 12]],
    ),
}


def _runner():
    return ExperimentRunner(
        config=SystemConfig(), requests=300, use_cache=False
    )


def _key(runner, job):
    if isinstance(job, Job):
        return runner.key_for(job)
    if isinstance(job, SecurityJob):
        return runner.security_key_for(job)
    return runner.campaign_key_for(job)


def _wire(job):
    encode = getattr(job, "to_wire", None)
    if encode is None:
        # Jobs without a codec method: the per-kind module-level codec.
        from repro.analysis import runner

        return runner.any_job_to_wire(job)
    return encode()


def test_schema_versions_are_pinned():
    assert CACHE_SCHEMA_VERSION == 2
    assert JOB_WIRE_SCHEMA_VERSION == 1


@pytest.mark.parametrize("name", sorted(JOBS))
def test_cache_key_is_pinned(name):
    assert _key(_runner(), JOBS[name]) == EXPECTED_KEYS[name]


@pytest.mark.parametrize("name", sorted(JOBS))
def test_wire_dict_is_pinned(name):
    assert _wire(JOBS[name]) == EXPECTED_WIRE[name]


# ----------------------------------------------------------------------
# Stored cache entries, one per kind
# ----------------------------------------------------------------------
SIM_RESULT = {
    "setup": dataclasses.asdict(SETUP),
    "mapping": "rubix",
    "seed": 3,
    "stats": {
        "cycles": 1234,
        "refresh_windows": 2,
        "max_request_alerts": 1,
        "banks": [{
            "activations": 7, "row_hits": 3, "reads": 8, "writes": 2,
            "refreshes": 1, "rfm_commands": 0, "mitigations": 1,
            "victim_refreshes": 4, "row_swaps": 0, "alerts": 1,
            "recursive_rounds": 0,
        }],
        "cores": [{
            "instructions": 900, "memory_requests": 10,
            "finish_cycle": 1200, "read_latency_sum": 640,
            "reads_completed": 8,
        }],
    },
    "obs": {
        "schema": 1, "metrics": {"mc.requests": 10},
        "trace_jsonl": "", "trace_events": 0, "trace_dropped": 0,
        "profile": {"wall_s": 9.5},
    },
}

SECURITY_RESULT = [
    {"max_pressure": 41, "max_pressure_row": 1001, "activations": 2000,
     "mitigations": 500, "victim_refreshes": 2000},
    {"max_pressure": 39, "max_pressure_row": 1003, "activations": 2000,
     "mitigations": 500, "victim_refreshes": 2000},
]

CAMPAIGN_RECORD = {
    "label": "mint/fractal W=4 round_robin",
    "threshold": 17,
    "seeds_spent": 256,
    "probes": [{"threshold": 16, "verdict": "unsafe", "seeds": 12}],
}

EXPECTED_SIM_ENTRY = (
    '{"schema":2,"result":{"setup":{"mechanism":"autorfm","threshold":4,'
    '"tracker":"mint","policy":"fractal","pride_fifo_entries":4,'
    '"mithril_entries":1024,"prac_trh_d":100,"per_request_retry":false,'
    '"tm_retry_cycles":0,"smd_regions_per_bank":8,"blockhammer_trh":1000},'
    '"mapping":"rubix","seed":3,"stats":{"cycles":1234,"refresh_windows":2,'
    '"max_request_alerts":1,"banks":[{"activations":7,"row_hits":3,'
    '"reads":8,"writes":2,"refreshes":1,"rfm_commands":0,"mitigations":1,'
    '"victim_refreshes":4,"row_swaps":0,"alerts":1,"recursive_rounds":0}],'
    '"cores":[{"instructions":900,"memory_requests":10,"finish_cycle":1200,'
    '"read_latency_sum":640,"reads_completed":8}]},"obs":{"schema":1,'
    '"metrics":{"mc.requests":10},"trace_jsonl":"","trace_events":0,'
    '"trace_dropped":0,"profile":{}}}}'
)
EXPECTED_SECURITY_ENTRY = (
    '{"schema":2,"security":[{"max_pressure":41,"max_pressure_row":1001,'
    '"activations":2000,"mitigations":500,"victim_refreshes":2000},'
    '{"max_pressure":39,"max_pressure_row":1003,"activations":2000,'
    '"mitigations":500,"victim_refreshes":2000}]}'
)
EXPECTED_CAMPAIGN_ENTRY = (
    '{"schema":2,"campaign":{"label":"mint/fractal W=4 round_robin",'
    '"threshold":17,"seeds_spent":256,"probes":[{"threshold":16,'
    '"verdict":"unsafe","seeds":12}]}}'
)


def _stored_bytes(tmp_path, store):
    cache = ResultCache(str(tmp_path))
    store(cache, "k")
    with open(tmp_path / "k.json", "rb") as handle:
        return handle.read().decode("utf-8")


def test_sim_cache_entry_bytes_are_pinned(tmp_path):
    result = result_from_dict(SIM_RESULT)
    stored = _stored_bytes(tmp_path, lambda c, k: c.put(k, result))
    assert stored == EXPECTED_SIM_ENTRY


def test_security_cache_entry_bytes_are_pinned(tmp_path):
    stored = _stored_bytes(
        tmp_path, lambda c, k: c.put_security(k, SECURITY_RESULT)
    )
    assert stored == EXPECTED_SECURITY_ENTRY


def test_campaign_cache_entry_bytes_are_pinned(tmp_path):
    stored = _stored_bytes(
        tmp_path, lambda c, k: c.put_campaign(k, CAMPAIGN_RECORD)
    )
    assert stored == EXPECTED_CAMPAIGN_ENTRY


def test_stored_entries_read_back(tmp_path):
    cache = ResultCache(str(tmp_path))
    cache.put("sim", result_from_dict(SIM_RESULT))
    cache.put_security("security", SECURITY_RESULT)
    cache.put_campaign("campaign", CAMPAIGN_RECORD)
    assert cache.get("sim").stats.cycles == 1234
    assert cache.get_security("security") == SECURITY_RESULT
    assert cache.get_campaign("campaign") == CAMPAIGN_RECORD
