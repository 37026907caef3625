"""The job model's derived contract, checked for every registered kind.

``repro.jobs`` derives each job kind's wire codec and cache key from its
dataclass fields, so the codec cannot drop a field and the key cannot
miss one unless field metadata says so. These tests pin that derivation:

* every job survives a JSON round trip through its wire dict unchanged;
* changing any field that is not declared key-blind changes the key,
  and the key-blind set is exactly the execution strategies;
* the decoder refuses unknown fields (nested ones included) by name
  instead of dropping them.

Byte-level pins of the keys, wire dicts and cache entries live in
``tests/test_job_pins.py``.
"""

import copy
import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.runner import Job, SecurityJob
from repro.cpu.system import MAPPINGS
from repro.jobs import (
    ATTACKS,
    KERNEL_BACKENDS,
    POLICIES,
    TRACKERS,
    JobSpec,
    RunContext,
)
from repro.mc import setup as mc_setup
from repro.mc.setup import MitigationSetup
from repro.obs import ObsConfig
from repro.payload import load_scenario, scenario_names
from repro.security.campaign import CampaignJob
from repro.sim.config import SystemConfig
from repro.workloads.catalog import WORKLOADS

CONTEXT = RunContext(SystemConfig(), 300)

ints = st.integers(min_value=1, max_value=1 << 20)
maybe_ints = st.none() | ints


@st.composite
def sim_jobs(draw):
    setup = MitigationSetup(
        mechanism=draw(st.sampled_from(mc_setup.MECHANISMS)),
        threshold=draw(st.integers(min_value=1, max_value=64)),
        tracker=draw(st.sampled_from(mc_setup.TRACKERS)),
        policy=draw(st.sampled_from(mc_setup.POLICIES)),
        per_request_retry=draw(st.booleans()),
        tm_retry_cycles=draw(st.integers(min_value=0, max_value=500)),
    )
    obs = draw(st.none() | st.builds(
        ObsConfig, metrics=st.booleans(), trace=st.booleans(),
        trace_capacity=ints,
    ))
    return Job(
        draw(st.sampled_from(sorted(WORKLOADS))), setup,
        draw(st.sampled_from(MAPPINGS)), draw(maybe_ints),
        draw(st.integers(min_value=0, max_value=1 << 31)), obs,
        segment_cycles=draw(maybe_ints),
        backend=draw(st.sampled_from(("scalar", "batch"))),
    )


@st.composite
def scenario_fields(draw):
    name = draw(st.none() | st.sampled_from(scenario_names()))
    if name is None:
        return {}
    declared = sorted(dict(load_scenario(name).params))
    chosen = draw(st.lists(st.sampled_from(declared), unique=True))
    params = {p: draw(st.integers(min_value=0, max_value=1 << 16))
              for p in chosen}
    return {"scenario": name, "scenario_params": params}


def attack_fields(draw):
    """Fields the two Monte-Carlo kinds share."""
    return dict(
        attack=draw(st.sampled_from(ATTACKS)),
        rows=tuple(draw(st.lists(
            st.integers(min_value=0, max_value=(1 << 17) - 1),
            min_size=1, max_size=4,
        ))),
        tracker=draw(st.sampled_from(TRACKERS)),
        policy=draw(st.sampled_from(POLICIES)),
        blast_radius=draw(st.integers(min_value=1, max_value=4)),
        refresh_interval_acts=draw(maybe_ints),
        rubix_key=draw(maybe_ints),
        backend=draw(st.sampled_from(KERNEL_BACKENDS)),
        **draw(scenario_fields()),
    )


@st.composite
def security_jobs(draw):
    return SecurityJob(
        acts=draw(ints), window=draw(st.integers(min_value=1, max_value=16)),
        seeds=draw(st.integers(min_value=1, max_value=64)),
        **attack_fields(draw),
    )


@st.composite
def campaign_jobs(draw):
    window = draw(st.integers(min_value=1, max_value=16))
    probability = st.floats(min_value=1e-4, max_value=0.49)
    return CampaignJob(
        window=window, acts=window + draw(ints),
        base_row=draw(ints), max_seeds=draw(st.integers(2, 1000)),
        alpha=draw(probability), beta=draw(probability),
        p0=draw(st.floats(min_value=1e-3, max_value=0.4)),
        p1=draw(st.floats(min_value=0.41, max_value=0.99)),
        max_chunk=draw(ints),
        **attack_fields(draw),
    )


STRATEGIES = {
    "sim": sim_jobs(),
    "security": security_jobs(),
    "campaign": campaign_jobs(),
}


def test_every_registered_kind_is_covered():
    assert set(STRATEGIES) == set(JobSpec.kinds)
    assert JobSpec.kinds == {
        "sim": Job, "security": SecurityJob, "campaign": CampaignJob,
    }


@pytest.mark.parametrize("kind", sorted(STRATEGIES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_wire_round_trip_is_lossless(kind, data):
    job = data.draw(STRATEGIES[kind])
    decoded = JobSpec.from_wire(json.loads(json.dumps(job.to_wire())))
    assert type(decoded) is type(job)
    assert decoded == job
    assert decoded.key(CONTEXT) == job.key(CONTEXT)


# ----------------------------------------------------------------------
# Key coverage
# ----------------------------------------------------------------------
#: One job per kind with every key gate open (``obs`` and ``scenario``
#: set) and every optional field filled, so every non-blind field is
#: key material.
FULL_JOBS = {
    "sim": Job(
        "add", MitigationSetup("autorfm", threshold=4), "rubix", 300, 3,
        ObsConfig(trace=True), segment_cycles=5000,
    ),
    "security": SecurityJob(
        rows=(1000, 1002), acts=1000, refresh_interval_acts=64,
        rubix_key=7, scenario="row_press", scenario_params={"hold": 32},
    ),
    "campaign": CampaignJob(
        rows=(1000,), acts=1000, refresh_interval_acts=64, rubix_key=7,
        scenario="abcd_k", scenario_params={"stride": 12},
    ),
}

BLIND = {
    "sim": {"backend", "segment_cycles"},
    "security": {"backend"},
    "campaign": {"backend"},
}


def _perturbed(value):
    """A different value of the same shape (validation is bypassed)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "~"
    if isinstance(value, tuple):
        return value + (value[-1],)
    if dataclasses.is_dataclass(value):
        first = dataclasses.fields(value)[0].name
        return _with(value, first, _perturbed(getattr(value, first)))
    raise TypeError(f"no perturbation for {value!r}")


def _with(obj, name, value):
    twin = copy.copy(obj)
    object.__setattr__(twin, name, value)
    return twin


def _fields(kind):
    return [f.name for f in dataclasses.fields(JobSpec.kinds[kind])]


@pytest.mark.parametrize("kind", sorted(FULL_JOBS))
def test_blind_set_is_exactly_the_execution_strategies(kind):
    blind = {
        f.name for f in dataclasses.fields(JobSpec.kinds[kind])
        if f.metadata.get("key_blind")
    }
    assert blind == BLIND[kind]


@pytest.mark.parametrize(
    "kind, name",
    [(kind, name) for kind in sorted(FULL_JOBS) for name in _fields(kind)],
)
def test_every_field_but_the_blind_ones_is_key_material(kind, name):
    job = FULL_JOBS[kind]
    value = getattr(job, name)
    assert value is not None, "FULL_JOBS must fill every field"
    twin = _with(job, name, _perturbed(value))
    if name in BLIND[kind]:
        assert twin.key(CONTEXT) == job.key(CONTEXT)
    else:
        assert twin.key(CONTEXT) != job.key(CONTEXT)


def test_sim_key_resolves_the_default_request_slice():
    job = FULL_JOBS["sim"]
    unset = _with(job, "requests", None)
    assert unset.key(CONTEXT) == job.key(CONTEXT)
    assert unset.key(RunContext(SystemConfig(), 301)) != job.key(CONTEXT)
    with pytest.raises(ValueError, match="requests"):
        unset.key(RunContext(SystemConfig()))


def test_sim_key_covers_the_system_config():
    job = FULL_JOBS["sim"]
    other = dataclasses.replace(SystemConfig(), num_cores=4)
    assert job.key(RunContext(other, 300)) != job.key(CONTEXT)


# ----------------------------------------------------------------------
# Decoder strictness
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind, path, name", [
    ("sim", (), "segmnet_cycles"),
    ("sim", ("setup",), "treshold"),
    ("sim", ("obs",), "trace_capcity"),
    ("security", (), "seedz"),
    ("campaign", (), "max_seed"),
])
def test_unknown_wire_fields_are_refused_by_name(kind, path, name):
    wire = FULL_JOBS[kind].to_wire()
    target = wire
    for part in path:
        target = target[part]
    target[name] = 5
    with pytest.raises(ValueError, match=name):
        JobSpec.from_wire(wire)
