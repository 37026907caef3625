"""service-sweep: the sweep-service daemon under one closed-loop client.

Set-up starts a ``SweepService`` with ``WORKERS`` worker slots on a Unix
socket inside the run directory. Each round the client submits a batch of
short, distinct cold simulation jobs and waits for every result, then
runs a closed warm loop: each job is resubmitted in turn and answered
from the shared cache, one request at a time. Between rounds the cache is
emptied, so every round's batch is cold. At the end the daemon is stopped
and every worker joined. The jobs are short so that dispatch, worker
start and cache I/O are a large share of the time.

``--seed`` picks each cold job's workload and job seed.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Dict, List

import numpy as np

from repro.analysis.runner import (
    ExperimentRunner,
    Job,
    result_from_dict,
    result_to_dict,
)
from repro.mc.setup import MitigationSetup
from repro.sim.config import SystemConfig
from repro.svc import SweepClient, SweepService

import checks
from common import WORKERS, Spans, live_children, median, quantile
from layers import model_counts, runner_layer, sim_layers

COLD_JOBS = 20
WARM_REQUESTS = 200
REQUESTS = 500  # per core
#: Workloads the cold jobs draw from (high and low intensity).
POOL = ("lbm", "ConnComp", "mcf", "xz", "omnetpp", "cam4")
SETUP = MitigationSetup("autorfm", threshold=4, tracker="mint",
                        policy="fractal")
RESULT_TIMEOUT_S = 120.0


def cold_jobs(seed: int) -> List[Job]:
    rng = np.random.default_rng(seed)
    names = rng.choice(len(POOL), COLD_JOBS)
    seeds = rng.choice(1 << 30, COLD_JOBS, replace=False)
    mappings = ("zen", "rubix")
    return [Job(POOL[int(n)], SETUP, mappings[i % 2], REQUESTS, int(s))
            for i, (n, s) in enumerate(zip(names, seeds))]


#: What the generic end-to-end metrics measure on this workload.
NAMES = {"phase1_per_s": "svc_jobs_per_s",
         "phase2_per_s": "svc_warm_hits_per_s"}


def ops_per_round() -> int:
    return COLD_JOBS + WARM_REQUESTS


def prepare(seed: int, run_dir: str) -> dict:
    """Start the daemon; the socket path is relative to keep it short."""
    service = SweepService(
        os.path.join(run_dir, "svc.sock"), workers=WORKERS,
        requests=REQUESTS, cache_dir=os.path.join(run_dir, "cache"))
    thread = threading.Thread(target=service.run, daemon=True)
    thread.start()
    if not service.wait_ready(30):
        raise RuntimeError("sweep-service daemon did not start")
    client = SweepClient(service.socket_path)
    return {"seed": seed, "run_dir": run_dir, "jobs": cold_jobs(seed),
            "service": service, "thread": thread, "client": client,
            "cold": 0, "warm": 0, "hit_ms": []}


def run_round(ctx: dict, index: int) -> dict:
    client, jobs = ctx["client"], ctx["jobs"]
    t0 = time.perf_counter()
    ids = client.submit(jobs)
    t1 = time.perf_counter()
    cold = [client.result(i, wait=True, timeout=RESULT_TIMEOUT_S)
            for i in ids]
    t2 = time.perf_counter()
    warm, hit_ms, submit_ms = [], [], []
    for n in range(WARM_REQUESTS):
        start = time.perf_counter()
        (job_id,) = client.submit([jobs[n % len(jobs)]])
        mid = time.perf_counter()
        warm.append(client.result(job_id, wait=True,
                                  timeout=RESULT_TIMEOUT_S))
        end = time.perf_counter()
        submit_ms.append(1e3 * (mid - start))
        hit_ms.append(1e3 * (end - start))
    ctx["cold"] += len(jobs)
    ctx["warm"] += WARM_REQUESTS
    ctx["hit_ms"] += hit_ms
    # Outside the timed region: empty the cache so the next round is cold.
    ctx["service"].cache.clear()
    return {
        "cold_s": t2 - t0,
        "warm_s": 1e-3 * sum(hit_ms),
        "batch_submit_ms": 1e3 * (t1 - t0),
        "submit_ms": submit_ms,
        "hit_ms": hit_ms,
        "cold": [r["result"] for r in cold],
        "warm": warm,
    }


def counts(out: dict) -> Dict[str, int]:
    """Deterministic model counts of the round's cold jobs."""
    return model_counts([result_from_dict(r) for r in out["cold"]])


def digest(out: dict) -> str:
    """Hash of every answer of a round, cold and warm."""
    return checks.digest([out["cold"], out["warm"]])


def round_metrics(r: dict) -> Dict[str, float]:
    """Wall time and phase rates of one round."""
    return {
        "wall_s": r["cold_s"] + r["warm_s"],
        "phase1_per_s": COLD_JOBS / r["cold_s"],
        # Closed loop, one request in flight: the hit rate at the round's
        # median round trip, which one slow hit cannot move.
        "phase2_per_s": 1e3 / median(r["hit_ms"]),
    }


def stop(ctx: dict) -> List[str]:
    """Stop the daemon, join every thread and process it started."""
    counters = ctx["client"].cache_stats()["metrics"]["counters"]
    ctx["client"].close()
    ctx["service"].stop()
    ctx["thread"].join(timeout=30)
    errors = []
    if ctx["thread"].is_alive():
        errors.append("sweep-service daemon thread did not stop")
    ctx["counters"] = counters
    return errors


def _in_process(ctx: dict) -> List[dict]:
    runner = ExperimentRunner(jobs=1, use_cache=False, requests=REQUESTS)
    return [result_to_dict(r) for r in runner.run_many(ctx["jobs"])]


def check(ctx: dict, first: dict, traced_out=None) -> List[str]:
    """Daemon results equal in-process runs; warm answers come from the
    cache and match; the daemon's counters match the client's counts."""
    labels = [f"{j.workload}/{j.mapping}/seed={j.seed}" for j in ctx["jobs"]]
    expected = (traced_out["in_process"] if traced_out is not None
                else _in_process(ctx))
    errors = checks.check_cold_results(labels, first["cold"], expected)
    errors += checks.check_warm(first["warm"])
    errors += checks.check_cold_results(
        [f"warm request {n}" for n in range(WARM_REQUESTS)],
        [r["result"] for r in first["warm"]],
        [expected[n % len(expected)] for n in range(WARM_REQUESTS)])
    errors += checks.check_daemon_counters(ctx["counters"], ctx["cold"],
                                           ctx["warm"])
    errors += checks.check_no_children(live_children())
    return errors


def traced(ctx: dict, round_out: dict) -> dict:
    """Layer numbers for the daemon round plus a serial in-process pass
    over the same cold jobs."""
    spans = Spans()
    config = SystemConfig()
    sim = sim_layers(ctx["jobs"], config, spans)
    metrics = dict(sim["metrics"])
    sim["profile"].dump_stats(os.path.join(ctx["run_dir"],
                                           "simulate.pstats"))
    in_process_s = metrics["workloads.trace_gen_s"] + metrics["sim.simulate_s"]
    slot_ms = 1e3 * WORKERS * round_out["cold_s"] / COLD_JOBS
    metrics.update({
        "svc.submit_ms": median(round_out["submit_ms"]),
        "svc.batch_submit_ms": round_out["batch_submit_ms"],
        "svc.job_overhead_ms": slot_ms - 1e3 * in_process_s / COLD_JOBS,
        "svc.hit_ms": median(round_out["hit_ms"]),
        "svc.hit_p95_ms": quantile(round_out["hit_ms"], 0.95),
        "svc.cache_hits": ctx["counters"].get("svc.cache_hits", 0),
        "svc.cache_misses": ctx["counters"].get("svc.cache_misses", 0),
    })
    metrics.update(runner_layer(
        list(zip(ctx["jobs"], sim["results"])),
        os.path.join(ctx["run_dir"], "runner-cache"), spans))
    metrics["runner.pool_overhead_s"] = (round_out["cold_s"]
                                         - in_process_s / WORKERS)
    return {"metrics": metrics, "errors": [],
            "in_process": [result_to_dict(r) for r in sim["results"]]}


def report(ctx: dict, first: dict) -> List[str]:
    """Warm-hit round-trip percentiles over every request of the run."""
    samples = ctx["hit_ms"]
    return [f"svc_hit_latency_p50_ms {quantile(samples, 0.5):.3f}, "
            f"svc_hit_latency_p95_ms {quantile(samples, 0.95):.3f} "
            f"({len(samples)} warm requests)"]
