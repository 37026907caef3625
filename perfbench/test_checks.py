"""Every benchmark check must pass on real outputs and fail on corrupted ones.

Run from the repository root:  python3 -m pytest perfbench -q

The outputs come from small real runs of the program; each test corrupts
one of them the way a bug would (a dropped request, a threshold off by
one, a batch/scalar mismatch, an uncounted cache hit, ...) and requires
the check to report it, so no check passes by construction.
"""

from __future__ import annotations

import copy
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.analysis.runner import result_to_dict  # noqa: E402
from repro.cpu.system import simulate  # noqa: E402
from repro.mc.setup import MitigationSetup  # noqa: E402
from repro.obs import ObsConfig, Observability  # noqa: E402
from repro.security.campaign import (  # noqa: E402
    CampaignJob,
    oracle_campaign_cell,
    run_campaign_cell,
)
from repro.security.kernels import (  # noqa: E402
    build_pattern,
    policy_spec_from_string,
    run_attack_batch,
    tracker_spec_from_strings,
)
from repro.sim.batch import SimLane, simulate_batch  # noqa: E402
from repro.sim.config import SystemConfig  # noqa: E402
from repro.workloads.catalog import WORKLOADS  # noqa: E402
from repro.workloads.rate import make_rate_traces  # noqa: E402

import checks  # noqa: E402

REQUESTS = 300
SEED = 5
AUTORFM = MitigationSetup("autorfm", threshold=4, policy="fractal")


@pytest.fixture(scope="module")
def sims():
    config = SystemConfig()
    traces = make_rate_traces(WORKLOADS["lbm"], config, REQUESTS, SEED)
    run = {}
    for name, setup, mapping in (("zen", AUTORFM, "zen"),
                                 ("rubix", AUTORFM, "rubix"),
                                 ("rfm", MitigationSetup("rfm", threshold=4),
                                  "zen"),
                                 ("base", MitigationSetup("none"), "zen")):
        run[name] = simulate(traces, setup, config, mapping=mapping,
                             seed=SEED)
    run["observed"] = simulate(
        traces, AUTORFM, config, mapping="rubix", seed=SEED,
        obs=Observability(ObsConfig(metrics=True, trace=True)))
    run["batch"] = simulate_batch(
        [SimLane(traces, setup=AUTORFM, config=config, mapping="zen",
                 seed=SEED)])[0]
    run["traces"] = traces
    return run


@pytest.fixture(scope="module")
def attack():
    pattern = build_pattern("double_sided", [5000], 400)
    args = (tracker_spec_from_strings("mint", 4),
            policy_spec_from_string("fractal"))
    kw = dict(window=4, seeds=3, collect_pressure=False)
    return {
        "numpy": run_attack_batch([pattern], *args, **kw)[0],
        "scalar": run_attack_batch([pattern], *args, backend="scalar",
                                   **kw)[0],
    }


@pytest.fixture(scope="module")
def cells():
    out = {}
    for policy in ("fractal", "blast"):
        job = CampaignJob(tracker="mint", policy=policy, acts=400,
                          max_seeds=40)
        out[policy] = (run_campaign_cell(job), oracle_campaign_cell(job))
    return out


def _corrupt(result, **bank0):
    bad = copy.deepcopy(result)
    for field, delta in bank0.items():
        bank = bad.stats.banks[0]
        setattr(bank, field, getattr(bank, field) + delta)
    return bad


# ----------------------------------------------------------------------
# timing-sweep
# ----------------------------------------------------------------------
def test_conservation(sims):
    good = sims["zen"]
    assert checks.check_conservation("zen", good.stats, sims["traces"]) == []
    dropped = copy.deepcopy(good)
    dropped.stats.cores[0].memory_requests -= 1
    assert checks.check_conservation("zen", dropped.stats, sims["traces"])
    lost_hit = _corrupt(good, row_hits=-1, reads=-1)
    assert checks.check_conservation("zen", lost_hit.stats, sims["traces"])
    extra_write = _corrupt(good, writes=1, reads=-1)
    assert checks.check_conservation("zen", extra_write.stats,
                                     sims["traces"])
    short = copy.deepcopy(good)
    short.stats.cores[1].instructions -= 1
    assert checks.check_conservation("zen", short.stats, sims["traces"])


def test_autorfm_banks(sims):
    good = sims["rubix"]
    assert checks.check_autorfm_banks("r", good.stats, 4, True) == []
    assert checks.check_autorfm_banks(
        "r", _corrupt(good, mitigations=1).stats, 4, False)
    halved = copy.deepcopy(good)
    for bank in halved.stats.banks:
        bank.victim_refreshes = 2 * bank.mitigations
    assert checks.check_autorfm_banks("r", halved.stats, 4, True)
    assert checks.check_autorfm_banks(
        "r", _corrupt(good, victim_refreshes=1).stats, 4, True)
    retried = copy.deepcopy(good)
    retried.stats.max_request_alerts = 2
    assert checks.check_autorfm_banks("r", retried.stats, 4, True)


def test_unmitigated(sims):
    assert checks.check_unmitigated("b", sims["base"].stats) == []
    assert checks.check_unmitigated("b", _corrupt(sims["base"],
                                                  alerts=1).stats)
    assert checks.check_unmitigated("b", _corrupt(sims["base"],
                                                  rfm_commands=1).stats)


def test_observed(sims):
    observed, plain = sims["observed"], sims["rubix"]
    assert checks.check_observed("o", observed, plain) == []
    miscounted = copy.deepcopy(observed)
    counters = miscounted.obs.metrics["counters"]
    key = next(k for k in counters if k.startswith("mc.act{"))
    counters[key] += 1
    assert checks.check_observed("o", miscounted, plain)
    assert checks.check_observed("o", observed, sims["zen"])


def test_backends(sims):
    assert checks.check_backends(["j"], [sims["batch"]], [sims["zen"]]) == []
    assert checks.check_backends(["j"], [_corrupt(sims["batch"],
                                                  activations=1)],
                                 [sims["zen"]])
    assert checks.check_backends(["j"], [], [sims["zen"]])


def test_paper_shape():
    rows = {"zen": {"w": 0.10}, "rubix": {"w": 0.02}, "rfm": {"w": 0.30}}
    alerts = {"zen": {"w": 0.03}, "rubix": {"w": 0.004}, "rfm": {"w": 0.0}}
    args = (["w"], "zen", "rubix", "rfm")
    assert checks.check_paper_shape(rows, alerts, *args) == []
    swapped = {"zen": {"w": 0.02}, "rubix": {"w": 0.10}, "rfm": {"w": 0.30}}
    assert checks.check_paper_shape(swapped, alerts, *args)
    more_alerts = dict(alerts, rubix={"w": 0.05})
    assert checks.check_paper_shape(rows, more_alerts, *args)
    cheap_rfm = dict(rows, rfm={"w": 0.01})
    assert checks.check_paper_shape(cheap_rfm, alerts, *args)
    # Zen vs Rubix slowdown is judged on the slice mean, not per workload.
    two = (["w", "v"], "zen", "rubix", "rfm")
    rows2 = {"zen": {"w": 0.10, "v": 0.03}, "rubix": {"w": 0.02, "v": 0.04},
             "rfm": {"w": 0.30, "v": 0.30}}
    alerts2 = {k: dict(v, v=v["w"]) for k, v in alerts.items()}
    assert checks.check_paper_shape(rows2, alerts2, *two) == []
    rows2["rubix"]["v"] = 0.20
    assert checks.check_paper_shape(rows2, alerts2, *two)


def test_same_outputs():
    assert checks.check_same_outputs("x", [1, 2], [[1, 2], [1, 2]]) == []
    assert checks.check_same_outputs("x", [1, 2], [[1, 2], [1, 3]])


# ----------------------------------------------------------------------
# security-sweep
# ----------------------------------------------------------------------
def test_batch(attack):
    good = attack["numpy"]
    assert checks.check_batch("m", good, 3, 400, 4, "mint") == []
    short = copy.deepcopy(good)
    short[1].activations -= 1
    assert checks.check_batch("m", short, 3, 400, 4, "mint")
    skipped = copy.deepcopy(good)
    skipped[0].mitigations -= 1
    assert checks.check_batch("m", skipped, 3, 400, 4, "mint")
    assert checks.check_batch("m", good[:2], 3, 400, 4, "mint")


def test_scalar_prefix(attack):
    assert checks.check_scalar_prefix("m", attack["numpy"],
                                      attack["scalar"][:2]) == []
    drifted = copy.deepcopy(attack["scalar"])
    drifted[0].max_pressure += 1
    assert checks.check_scalar_prefix("m", attack["numpy"], drifted)
    assert checks.check_scalar_prefix("m", attack["numpy"][:1],
                                      attack["scalar"])


def test_campaign_cell(cells):
    record, oracle = cells["fractal"]
    assert checks.check_campaign_cell("c", record, oracle) == []
    off_by_one = copy.deepcopy(record)
    off_by_one["tolerated_threshold"] += 1
    assert checks.check_campaign_cell("c", off_by_one, oracle)
    flipped = copy.deepcopy(record)
    probe = flipped["probes"][0]
    probe["verdict"] = "safe" if probe["verdict"] == "unsafe" else "unsafe"
    assert checks.check_campaign_cell("c", flipped, oracle)


def test_mint_policies(cells):
    fm, blast = cells["fractal"][0], cells["blast"][0]
    assert checks.check_mint_policies(fm, blast) == []
    raised = dict(fm, tolerated_threshold=blast["tolerated_threshold"] + 1)
    assert checks.check_mint_policies(raised, blast)


# ----------------------------------------------------------------------
# service-sweep
# ----------------------------------------------------------------------
def test_cold_results(sims):
    good = [result_to_dict(sims["zen"])]
    assert checks.check_cold_results(["j"], good, copy.deepcopy(good)) == []
    wrong = [result_to_dict(sims["rubix"])]
    assert checks.check_cold_results(["j"], wrong, good)
    assert checks.check_cold_results(["j"], [], good)


def test_warm():
    assert checks.check_warm([{"from_cache": True}] * 3) == []
    assert checks.check_warm([{"from_cache": True}, {"from_cache": False}])


def test_daemon_counters():
    good = {"svc.cache_hits": 200, "svc.cache_misses": 20}
    assert checks.check_daemon_counters(good, 20, 200) == []
    uncounted_hit = dict(good, **{"svc.cache_hits": 199})
    assert checks.check_daemon_counters(uncounted_hit, 20, 200)
    extra_miss = dict(good, **{"svc.cache_misses": 21})
    assert checks.check_daemon_counters(extra_miss, 20, 200)


def test_no_children():
    assert checks.check_no_children([]) == []
    assert checks.check_no_children([12345])
