"""Golden pins for the scalar timing engine.

The batch differential (``tests/test_sim_batch.py``) only checks that the
two backends agree with each other; nothing there would notice a change
that moves both, or a refactor of the scalar request path that shifts one
event. These pins hold the scalar engine to its own recorded output: for a
small matrix of mechanisms x mappings x workloads, the sha256 of the
serialised result plus the full command log, and the number of events the
engine scheduled. One observed Rubix run additionally pins its metrics
snapshot and its JSONL trace.

The literals were recorded before the request-path rework that decodes each
trace once at system construction; a mismatch means the simulated schedule
changed, not just its speed. Regenerate them only for a deliberate model
change, and say so in the change record.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.analysis.runner import result_to_dict
from repro.cpu.system import SimulatedSystem
from repro.mc.setup import MitigationSetup
from repro.obs import ObsConfig, Observability
from repro.sim.cmdlog import CommandLog
from repro.sim.config import SystemConfig
from repro.workloads.catalog import WORKLOADS
from repro.workloads.rate import make_rate_traces

REQUESTS = 300
SEED = 3

#: The small test geometry (see ``tests/conftest.py::small_config``): few
#: banks, so bank conflicts, ALERTs, RFMs and ABO stalls all occur within
#: a few hundred requests per core.
CONFIG = SystemConfig(
    num_cores=2,
    num_subchannels=2,
    banks_per_subchannel=4,
    rows_per_bank=4096,
    subarrays_per_bank=16,
    llc_size_bytes=64 * 1024,
)

SETUPS = {
    "none": MitigationSetup("none"),
    "autorfm-mint-fm": MitigationSetup(
        "autorfm", threshold=4, tracker="mint", policy="fractal"
    ),
    "autorfm-retry": MitigationSetup(
        "autorfm", threshold=4, per_request_retry=True
    ),
    "rfm": MitigationSetup("rfm", threshold=4),
    "prac": MitigationSetup("prac", prac_trh_d=30),
    "blockhammer": MitigationSetup("blockhammer", blockhammer_trh=50),
    "smd": MitigationSetup("smd", threshold=4),
}
MAPPINGS = ("zen", "rubix")
WORKLOAD_NAMES = ("lbm", "mcf")

#: Controller variants off the default closed-page path, one run each.
VARIANTS = {
    "open-page": {"page_policy": "open"},
    "write-drain": {"write_drain": True},
    "same-bank-refresh": {"refresh_mode": "same_bank"},
}


def _run(workload, mapping, setup, config=CONFIG, obs=None):
    traces = make_rate_traces(
        WORKLOADS[workload], config, requests=REQUESTS, seed=SEED
    )
    log = CommandLog()
    system = SimulatedSystem(
        traces, setup, config, mapping, seed=SEED, command_log=log, obs=obs
    )
    system.start()
    result = system.run()
    return result, log, system.engine._seq


def _digest(result, log) -> str:
    payload = {
        "result": result_to_dict(result),
        "commands": [[r.time, r.kind, r.bank, r.row] for r in log.records],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


#: (workload, mapping, setup) -> (sha256 of result + command log, events).
PINS = {
    ("lbm", "zen", "autorfm-mint-fm"): (
        "6bd6ba73e824373954ce9d8ea45e37ff5b9b7feae2843c3b9ffe56d872ebd58d",
        1213,
    ),
    ("lbm", "zen", "autorfm-retry"): (
        "20cdbe242f6c1d79bebe4981f51341786c2e180c3f7d654865e31984f1e3694f",
        1327,
    ),
    ("lbm", "zen", "blockhammer"): (
        "e4cd994e0b3b98f0d1f2fe171f940c9aeb79ff738871c88b225ed60400784b84",
        1190,
    ),
    ("lbm", "zen", "none"): (
        "034e772e9f78b931e87b610e38f1a06a3a8b88f0dcbd750e2999e74d1acce8a9",
        1190,
    ),
    ("lbm", "zen", "prac"): (
        "3cf53e52a81b29d7f9e017e010d5f2307197f00023c72a2a2824d6d493beb686",
        1301,
    ),
    ("lbm", "zen", "rfm"): (
        "e9e388376b4668cb45d5467f06dff6a47ff2cf629097df0fcc81cda54e0bb325",
        1254,
    ),
    ("lbm", "zen", "smd"): (
        "cdf5b6af6baa38bcfcc102753a1eb773c186b2e8386860832dc64b5299fc0108",
        1189,
    ),
    ("lbm", "rubix", "autorfm-mint-fm"): (
        "6757bbccafbdbe6f915e35771c6573864cc4f897a39188a9b0e638a146c63d0f",
        1401,
    ),
    ("lbm", "rubix", "autorfm-retry"): (
        "cb1d5444f1210fd55d571047218cc7c1f876d1a72381f4b5985360dc03fdb9ac",
        1490,
    ),
    ("lbm", "rubix", "blockhammer"): (
        "65ab8dd7cfea71265e4fb8a28d8bfca2058d995d2fa25949526077349ba1fda3",
        1399,
    ),
    ("lbm", "rubix", "none"): (
        "24454ad070dd148a96d5cc28abe8749becc2348ed054d03097c6cb82d4e5b506",
        1399,
    ),
    ("lbm", "rubix", "prac"): (
        "1943e72860ae084f3b66dade14782decc20f83f3d331e5b08f9cd212c326d10c",
        1408,
    ),
    ("lbm", "rubix", "rfm"): (
        "1b7e3c8ca11235909603fc252ff15ede820e7968e37bf91dc46af5adb820a0ab",
        1474,
    ),
    ("lbm", "rubix", "smd"): (
        "2c79ff460d368610e06e892be7e30d7c69f7ddf1e94efaba3fc7aa44a6f9868b",
        1423,
    ),
    ("mcf", "zen", "autorfm-mint-fm"): (
        "cda764b8621bf5798b428d50a0a461401eef816ebe8c017305e6279496f323fa",
        1451,
    ),
    ("mcf", "zen", "autorfm-retry"): (
        "a24cce4705b04f2793b37e2f7c0338dbb6f757e3e384a20a680a2aeff274262c",
        1485,
    ),
    ("mcf", "zen", "blockhammer"): (
        "e2c79e86a54ff7552dba6faf24ce5708ef08a850f526d3e8637bebaa64a02452",
        2754,
    ),
    ("mcf", "zen", "none"): (
        "0647fa105df9258f9d65b1b043d7e30758e52f0bc1b7c3be0aa23272a6fbefe8",
        1441,
    ),
    ("mcf", "zen", "prac"): (
        "3109ce8aa220e288c941a418149162ca3e05ef982b715436a554fa1a97a785c2",
        1467,
    ),
    ("mcf", "zen", "rfm"): (
        "4c5788add0de1af3000b6c67f2de83cb669c5bd431b8ab73662aadd7c823badb",
        1506,
    ),
    ("mcf", "zen", "smd"): (
        "79b2fca7bddac7da3f66d9449e5aa6d82f436027cadeaa14e58505c1f46101f0",
        1441,
    ),
    ("mcf", "rubix", "autorfm-mint-fm"): (
        "92d0f9f043bc424e34d927ef683bdfa839b10f6dc266c28f09b8378c53c12ca5",
        1506,
    ),
    ("mcf", "rubix", "autorfm-retry"): (
        "bb9227d49b673232994de2c77d877d3ee1a184b4ee90c0520b7bdbecf33cf9cd",
        1559,
    ),
    ("mcf", "rubix", "blockhammer"): (
        "985eab70a1474ecb408c2de04b62f129b5c320173570216f223ab1731ad41758",
        1487,
    ),
    ("mcf", "rubix", "none"): (
        "f5edf204835d2817efccc903f5785c7ca8499ae80a656fef7405f42e8cf9d9aa",
        1487,
    ),
    ("mcf", "rubix", "prac"): (
        "5ee14b4e900c2dc1d16769a0d21e9438041a7a4c51de4a0b782496fc26cec128",
        1525,
    ),
    ("mcf", "rubix", "rfm"): (
        "78fa202f4fda81ae5132d99cb6e60b74a1ea9f6c660110ea002874a33974ce4f",
        1580,
    ),
    ("mcf", "rubix", "smd"): (
        "0f4a64665f26b35a449989c349f8a23f8e08308193d6b9e4a90c9a6cd800fbf4",
        1508,
    ),
}

#: variant -> (sha256, events), on mcf / Rubix / AutoRFM-4 MINT+FM.
VARIANT_PINS = {
    "open-page": (
        "48408f2153ab9701b2313539175833de1db1c3082e47bdd75fed63ba207b52b6",
        1115,
    ),
    "same-bank-refresh": (
        "f0bf5679f2e154328caee2673803be10db57b6a17ccd2e6e9f55f5cc0bb0a8a6",
        1511,
    ),
    "write-drain": (
        "363a5d0868fe32e7e8b8e1e41ab804666aa4720a804b431db9b8f6b4150a4f6e",
        1558,
    ),
}

#: The observed run: mcf / Rubix / AutoRFM-4 MINT+FM with metrics and
#: trace on.
OBSERVED_PIN = {
    "digest": (
        "d57592c4efe7f36dda18fd26555a3f4cd7cd021e5d300a7feb01716894d74a6f"
    ),
    "events": 1506,
    "metrics": (
        "f7113c1011b0d378c2a2ee352a025067f5582076f5b75845f77a7b557d9912cd"
    ),
    "trace": (
        "b45cfbb3afc04e34c7b695d02b8e917a75d7403a06c4e750b0a2606f38e7fb2f"
    ),
    "trace_events": 771,
}


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
@pytest.mark.parametrize("mapping", MAPPINGS)
@pytest.mark.parametrize("setup_name", sorted(SETUPS))
def test_scalar_engine_matches_pin(workload, mapping, setup_name):
    result, log, events = _run(workload, mapping, SETUPS[setup_name])
    assert (_digest(result, log), events) == PINS[
        (workload, mapping, setup_name)
    ]


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_controller_variant_matches_pin(variant):
    config = dataclasses.replace(CONFIG, **VARIANTS[variant])
    result, log, events = _run(
        "mcf", "rubix", SETUPS["autorfm-mint-fm"], config=config
    )
    assert (_digest(result, log), events) == VARIANT_PINS[variant]


def test_observed_rubix_run_matches_pin():
    obs = Observability(ObsConfig(metrics=True, trace=True))
    result, log, events = _run(
        "mcf", "rubix", SETUPS["autorfm-mint-fm"], obs=obs
    )
    metrics = json.dumps(result.obs.metrics, sort_keys=True)
    assert {
        "digest": _digest(result, log),
        "events": events,
        "metrics": _sha(metrics),
        "trace": _sha(result.obs.trace_jsonl),
        "trace_events": result.obs.trace_events,
    } == OBSERVED_PIN
