"""timing-sweep: a Fig. 8 / Fig. 11 slice through the timing simulator.

One round runs ``ExperimentRunner.slowdown_matrix`` over four Table V
workloads (two high- and two low-intensity) and four setups (AutoRFM-4/FM
on Zen and on Rubix, RFM-4 and PRAC on Zen) plus their unmitigated
baselines, on the default scalar backend with ``WORKERS`` processes and a
cold result cache. A second phase re-runs the AutoRFM-4/Rubix row with
metrics and tracing on, so a change that speeds up plain runs at the cost
of instrumented ones shows up.

``--seed`` is the job seed: it generates every trace and seeds the
simulator's random streams.
"""

from __future__ import annotations

import os
import shutil
import time
from typing import Dict, List

from repro.analysis.runner import ExperimentRunner, Job, result_to_dict
from repro.cpu.system import simulate
from repro.mc.setup import MitigationSetup
from repro.obs import ObsConfig, Observability
from repro.sim.batch import SimLane, simulate_batch
from repro.sim.config import SystemConfig
from repro.workloads.catalog import WORKLOADS
from repro.workloads.rate import make_rate_traces

import checks
from common import WORKERS, Spans
from layers import model_counts, runner_layer, sim_layers

#: Two high-intensity (lbm 25.5, ConnComp 80.7 ACT-PKI) and two
#: low-intensity (omnetpp 9.5, cam4 4.2) Table V workloads, covering the
#: stream, mixed and random generators.
SLICE = ("lbm", "ConnComp", "omnetpp", "cam4")
REQUESTS = 2000  # per core
WINDOW = 4
AUTORFM = MitigationSetup("autorfm", threshold=WINDOW, tracker="mint",
                          policy="fractal")
ZEN, RUBIX, RFM, PRAC = ("AutoRFM-4/Zen", "AutoRFM-4/Rubix", "RFM-4/Zen",
                         "PRAC/Zen")
SETUPS = (
    (ZEN, AUTORFM, "zen"),
    (RUBIX, AUTORFM, "rubix"),
    (RFM, MitigationSetup("rfm", threshold=WINDOW), "zen"),
    (PRAC, MitigationSetup("prac"), "zen"),
)
BASELINE = ("baseline", MitigationSetup("none"), "zen")
OBS_CONFIG = ObsConfig(metrics=True, trace=True)

#: Paper slowdowns for the report: Fig. 8 (AutoRFM-4 on Zen and Rubix,
#: mean over all workloads) and Fig. 11 (RFM-4).
PAPER = {ZEN: 0.165, RUBIX: 0.031, RFM: 0.33}


def plain_specs(seed: int) -> List[tuple]:
    """Unique ``(label, job)`` pairs of the plain phase, in a fixed order."""
    return [(f"{w}/{label}", Job(w, setup, mapping, REQUESTS, seed))
            for w in SLICE
            for label, setup, mapping in SETUPS + (BASELINE,)]


def observed_specs(seed: int) -> List[tuple]:
    """The AutoRFM-4/Rubix row again, with metrics and tracing on."""
    return [(f"{w}/{RUBIX}",
             Job(w, AUTORFM, "rubix", REQUESTS, seed, obs=OBS_CONFIG))
            for w in SLICE]


#: What the generic end-to-end metrics measure on this workload.
NAMES = {"phase1_per_s": "sim_instructions_per_s",
         "phase2_per_s": "obs_sim_instructions_per_s"}


def ops_per_round() -> int:
    return len(plain_specs(0)) + len(observed_specs(0))


def prepare(seed: int, run_dir: str) -> dict:
    return {"seed": seed, "run_dir": run_dir,
            "plain": plain_specs(seed), "observed": observed_specs(seed)}


def run_round(ctx: dict, index: int) -> dict:
    """One cold-cache round; returns its timings and outputs."""
    cache_dir = os.path.join(ctx["run_dir"], f"cache-{index}")
    runner = ExperimentRunner(jobs=WORKERS, cache_dir=cache_dir,
                              use_cache=True, requests=REQUESTS)
    t0 = time.perf_counter()
    table = runner.slowdown_matrix(SLICE, SETUPS, requests=REQUESTS,
                                   seed=ctx["seed"])
    t1 = time.perf_counter()
    observed = runner.run_many([job for _, job in ctx["observed"]])
    t2 = time.perf_counter()
    # Outside the timed region: the plain results, answered by the cache.
    plain = runner.run_many([job for _, job in ctx["plain"]])
    shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "plain_s": t1 - t0,
        "obs_s": t2 - t1,
        "table": table,
        "plain": plain,
        "observed": observed,
        "plain_instructions": sum(r.stats.total_instructions for r in plain),
        "obs_instructions": sum(r.stats.total_instructions
                                for r in observed),
    }


def stop(ctx: dict) -> List[str]:
    return []


def round_metrics(r: dict) -> Dict[str, float]:
    """Wall time and phase rates of one round."""
    return {
        "wall_s": r["plain_s"] + r["obs_s"],
        "phase1_per_s": r["plain_instructions"] / r["plain_s"],
        "phase2_per_s": r["obs_instructions"] / r["obs_s"],
    }


def counts(out: dict) -> Dict[str, int]:
    """Deterministic model counts of the round's plain jobs."""
    return model_counts(out["plain"])


def digest(out: dict) -> str:
    """Hash of every output of a round: stats, observability, slowdowns."""
    return checks.digest([[result_to_dict(r) for r in out["plain"]],
                          [result_to_dict(r) for r in out["observed"]],
                          out["table"]])


def _lanes(ctx: dict, traces: Dict[str, list], config: SystemConfig):
    return [SimLane(traces[job.workload], setup=job.setup, config=config,
                    mapping=job.mapping, seed=job.seed)
            for _, job in ctx["plain"]]


def check(ctx: dict, first: dict, traced_out=None) -> List[str]:
    """Every timing-sweep check, on the first round's outputs."""
    config = SystemConfig()
    traces = {w: make_rate_traces(WORKLOADS[w], config, REQUESTS,
                                  ctx["seed"]) for w in SLICE}
    by_label = {label: r for (label, _), r in zip(ctx["plain"],
                                                   first["plain"])}
    errors: List[str] = []
    for (label, job), result in zip(ctx["plain"], first["plain"]):
        errors += checks.check_conservation(label, result.stats,
                                            traces[job.workload])
        if job.setup.mechanism == "autorfm":
            errors += checks.check_autorfm_banks(
                label, result.stats, job.setup.threshold,
                job.setup.policy == "fractal")
        if job.setup.mechanism == "none":
            errors += checks.check_unmitigated(label, result.stats)
    for (label, _), result in zip(ctx["observed"], first["observed"]):
        errors += checks.check_observed(label + " observed", result,
                                        by_label[label])
    if traced_out is not None:
        batch = traced_out["batch_results"]
    else:
        batch = simulate_batch(_lanes(ctx, traces, config), backend="batch")
    errors += checks.check_backends([label for label, _ in ctx["plain"]],
                                    batch, first["plain"])
    alerts = {label: {w: by_label[f"{w}/{label}"].stats.alerts_per_act
                      for w in SLICE} for label, _, _ in SETUPS}
    errors += checks.check_paper_shape(first["table"], alerts, SLICE,
                                       ZEN, RUBIX, RFM)
    return errors


def traced(ctx: dict, round_out: dict) -> dict:
    """Per-layer pass over the round's jobs (serial, in-process)."""
    spans = Spans()
    config = SystemConfig()
    jobs = [job for _, job in ctx["plain"]]
    sim = sim_layers(jobs, config, spans,
                     observed=[job for _, job in ctx["observed"]])
    metrics = dict(sim["metrics"])
    sim["profile"].dump_stats(os.path.join(ctx["run_dir"],
                                           "simulate.pstats"))

    traces = {key[0]: t for key, t in sim["traces"].items()}
    with spans.span("sim.batch.simulate"):
        batch = simulate_batch(_lanes(ctx, traces, config), backend="batch")
    metrics["sim.batch.simulate_s"] = spans.get("sim.batch.simulate")
    metrics["sim.batch.speedup"] = (metrics["sim.simulate_s"]
                                    / metrics["sim.batch.simulate_s"])

    # Observability overhead: the observed row, plain and observed.
    for _, job in ctx["observed"]:
        args = (traces[job.workload], job.setup, config)
        with spans.span("obs.plain"):
            simulate(*args, mapping=job.mapping, seed=job.seed)
        with spans.span("obs.observed"):
            simulate(*args, mapping=job.mapping, seed=job.seed,
                     obs=Observability(OBS_CONFIG))
    metrics["obs.overhead_pct"] = 100.0 * (
        spans.get("obs.observed") / spans.get("obs.plain") - 1.0)

    metrics.update(runner_layer(
        list(zip(jobs, sim["results"])),
        os.path.join(ctx["run_dir"], "runner-cache"), spans))
    serial = metrics["workloads.trace_gen_s"] + metrics["sim.simulate_s"]
    metrics["runner.pool_overhead_s"] = round_out["plain_s"] - serial / WORKERS
    errors = checks.check_same_outputs(
        "timing-sweep traced pass",
        [r.stats for r in round_out["plain"]],
        [[r.stats for r in sim["results"]]])
    return {"metrics": metrics, "errors": errors, "batch_results": batch}


def report(ctx: dict, first: dict) -> List[str]:
    """The slice's mean slowdowns beside the paper's."""
    table = first["table"]
    lines = ["slowdown vs unmitigated Zen, mean over the slice (paper):"]
    for label, _, _ in SETUPS:
        mean = sum(table[label].values()) / len(SLICE)
        paper = PAPER.get(label)
        ref = f"{100 * paper:.1f} %" if paper is not None else "-"
        lines.append(f"  {label:16s} {100 * mean:6.2f} %   ({ref})")
    return lines
