"""Golden pins for the span tracer's output bytes.

``tests/test_scalar_pins.py::OBSERVED_PIN`` covers one AutoRFM run, whose
trace holds only ACT, SAUM, ALERT and all-bank REF records. These pins
cover every other record the built-in hooks emit and every way the bytes
leave the tracer: RFM stall spans (RFM mode), ABO back-offs (PRAC),
same-bank REF spans, a ring that evicts, the bytes a ``trace_stream``
receives, and a run checkpointed mid-way, saved, restored and resumed.
Each pin is the sha256 of ``trace_jsonl`` plus ``trace_events`` /
``trace_dropped`` and the sha256 of the metrics snapshot (the long runs
cross several ``HEAP_SAMPLE_STRIDE`` boundaries, so the heap-depth
samples are pinned too).

The literals were recorded on the tracer that kept one dict per record
and rendered it with ``json``; they hold any change to the record buffer
or the renderer to the same bytes. Never regenerate them to make a
change pass.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json

import pytest

from repro.ckpt import capture, load_snapshot, restore, save_snapshot
from repro.ckpt.snapshot import canonical_json
from repro.cpu.system import SimulatedSystem, simulate
from repro.mc.setup import MitigationSetup
from repro.obs import ObsConfig, Observability
from repro.sim.config import SystemConfig
from repro.workloads.catalog import WORKLOADS
from repro.workloads.rate import make_rate_traces

SEED = 3

#: The small geometry of ``tests/test_scalar_pins.py``: few banks, so
#: ALERTs, RFMs and ABO stalls all occur within a few hundred requests.
CONFIG = SystemConfig(
    num_cores=2,
    num_subchannels=2,
    banks_per_subchannel=4,
    rows_per_bank=4096,
    subarrays_per_bank=16,
    llc_size_bytes=64 * 1024,
)

AUTORFM = MitigationSetup("autorfm", threshold=4, tracker="mint",
                          policy="fractal")

#: name -> (workload, mapping, setup, config overrides, requests,
#: trace_capacity, the record kinds the trace must contain).
SCENARIOS = {
    "rfm": ("mcf", "zen", MitigationSetup("rfm", threshold=4), {}, 300,
            65536, {"ACT", "RFM", "REF"}),
    "prac": ("mcf", "zen", MitigationSetup("prac", prac_trh_d=30), {}, 300,
             65536, {"ACT", "ABO", "REF"}),
    "same-bank-refresh": ("mcf", "rubix", AUTORFM,
                          {"refresh_mode": "same_bank"}, 300, 65536,
                          {"ACT", "ALERT", "SAUM", "REF"}),
    "ring-evicts": ("mcf", "rubix", AUTORFM, {}, 300, 100,
                    {"ACT", "SAUM"}),
    "long-autorfm": ("lbm", "rubix", AUTORFM, {}, 2000, 65536,
                     {"ACT", "ALERT", "SAUM", "REF"}),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _traces(workload, config, requests):
    return make_rate_traces(
        WORKLOADS[workload], config, requests=requests, seed=SEED
    )


def _observed(capacity=65536, stream=None):
    return Observability(
        ObsConfig(metrics=True, trace=True, trace_capacity=capacity),
        trace_stream=stream,
    )


def _fingerprint(obs_result):
    return {
        "trace": _sha(obs_result.trace_jsonl),
        "trace_events": obs_result.trace_events,
        "trace_dropped": obs_result.trace_dropped,
        "metrics": _sha(json.dumps(obs_result.metrics, sort_keys=True)),
    }


def _kinds(jsonl):
    return {json.loads(line)["kind"] for line in jsonl.splitlines()}


def _run_scenario(name, stream=None):
    workload, mapping, setup, overrides, requests, capacity, _ = (
        SCENARIOS[name]
    )
    config = dataclasses.replace(CONFIG, **overrides)
    return simulate(
        _traces(workload, config, requests), setup, config, mapping=mapping,
        seed=SEED, obs=_observed(capacity, stream),
    )


#: name -> fingerprint of the straight run.
PINS = {
    "long-autorfm": {
        "metrics": (
            "2a4b1cce1d01d3064c54e7bb1833de1046f7bef12b567d370a62bd02edff0123"
        ),
        "trace": (
            "dfd0c692c2590834fbc5c082818730ea52aedcad3ec3898fd0b79b6cb65f1bae"
        ),
        "trace_dropped": 0,
        "trace_events": 5141,
    },
    "prac": {
        "metrics": (
            "a973d7a5af66147a9a8a816807f412945422a5456e21c2d32333390e45a44140"
        ),
        "trace": (
            "57121c207dcdee8463b5d38073de5bd68795ba9def5712fe4df0aa88abcf6e85"
        ),
        "trace_dropped": 0,
        "trace_events": 582,
    },
    "rfm": {
        "metrics": (
            "a163f7233337938d100186ee311e4c2eba97d85d6ea851365f6ae43997581290"
        ),
        "trace": (
            "534d18850d3ba91733cbf4026d6dd15a982fdd2a4d5098b265f54cbee5af3b62"
        ),
        "trace_dropped": 0,
        "trace_events": 696,
    },
    "ring-evicts": {
        "metrics": (
            "f7113c1011b0d378c2a2ee352a025067f5582076f5b75845f77a7b557d9912cd"
        ),
        "trace": (
            "7ab18226705dc832786ed596dddcc1b635304dff9e5f689fdfd3ff517c3bef08"
        ),
        "trace_dropped": 671,
        "trace_events": 771,
    },
    "same-bank-refresh": {
        "metrics": (
            "a67a81462b5bd6d3ca4408b51745263eb1fcdc700fee37af52a9c26f2e17d66b"
        ),
        "trace": (
            "26286d7337de0fbcfc315442cae9bffc30df99c6a02ed7ca7a9f206940b9c066"
        ),
        "trace_dropped": 0,
        "trace_events": 784,
    },
}

#: sha256 of every byte a ``trace_stream`` receives over the ring-evicts
#: run (the stream sees the evicted records too).
STREAM_PIN = (
    "b45cfbb3afc04e34c7b695d02b8e917a75d7403a06c4e750b0a2606f38e7fb2f"
)

#: The long AutoRFM run checkpointed at its midpoint: the sha256 of the
#: snapshot's tracer state and of the whole snapshot body, and the
#: resumed run's fingerprint (equal to the straight run's).
RESUME_PIN = {
    "snapshot": (
        "d6601a318f43b7dd7dfaa5ea47e203b9eb72c8d96c5e97ca93b1eb992ded1f8d"
    ),
    "tracer_state": (
        "c6b88edef98f30aff27e5adc8c814d7eca2fbf5b50594e22285914b5b7d5b7c9"
    ),
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_trace_matches_pin(name):
    result = _run_scenario(name)
    assert _kinds(result.obs.trace_jsonl) >= SCENARIOS[name][-1]
    assert _fingerprint(result.obs) == PINS[name]


def test_trace_stream_bytes_match_pin():
    stream = io.StringIO()
    result = _run_scenario("ring-evicts", stream=stream)
    streamed = stream.getvalue()
    assert len(streamed.splitlines()) == result.obs.trace_events
    # The ring keeps the newest records: the stream's tail.
    assert streamed.endswith(result.obs.trace_jsonl)
    assert _sha(streamed) == STREAM_PIN


def test_checkpointed_and_resumed_run_matches_pin(tmp_path):
    workload, mapping, setup, overrides, requests, capacity, _ = (
        SCENARIOS["long-autorfm"]
    )
    config = dataclasses.replace(CONFIG, **overrides)
    traces = _traces(workload, config, requests)
    system = SimulatedSystem(traces, setup, config, mapping=mapping,
                             seed=SEED, obs=_observed(capacity))
    system.start()
    # Segments of a prime number of cycles re-enter the observed drain at
    # arbitrary event ordinals between heap-depth samples.
    captured = {}

    def on_checkpoint(live, boundary):
        if not captured and boundary >= 100000:
            captured["snap"] = capture(live, boundary=boundary)

    segmented = system.run(checkpoint_every=7919,
                           on_checkpoint=on_checkpoint)
    snap = captured["snap"]
    path = str(tmp_path / "mid.ckpt.gz")
    save_snapshot(snap, path)
    resumed = restore(load_snapshot(path)).run()

    assert _fingerprint(segmented.obs) == PINS["long-autorfm"]
    assert _fingerprint(resumed.obs) == PINS["long-autorfm"]
    assert {
        "snapshot": _sha(canonical_json(
            {"meta": snap.meta, "payload": snap.payload}
        )),
        "tracer_state": _sha(canonical_json(snap.payload["obs"]["tracer"])),
    } == RESUME_PIN
