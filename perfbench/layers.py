"""Traced-mode layer passes shared by several workloads.

Each pass calls a layer's public functions serially, in this process, and
times those calls from the benchmark's side (``Spans``); ``simulate()``
also gets one deterministic cProfile pass whose self time is booked per
``repro`` package. The program is not instrumented.
"""

from __future__ import annotations

import cProfile
import shutil
import time
from typing import Dict, List, Sequence, Tuple

from repro.analysis.runner import (
    CampaignJob,
    ExperimentRunner,
    Job,
    ResultCache,
    SecurityJob,
)
from repro.cpu.system import SimulatedSystem, simulate
from repro.obs import Observability
from repro.sim.config import SystemConfig
from repro.workloads.catalog import WORKLOADS
from repro.workloads.rate import make_rate_traces

from common import Spans, self_time_by_package

#: How the runner keys, stores and re-reads each job kind.
_RUNNER_OPS = {
    Job: (ExperimentRunner.key_for, ResultCache.put, ResultCache.get),
    SecurityJob: (ExperimentRunner.security_key_for,
                  ResultCache.put_security, ResultCache.get_security),
    CampaignJob: (ExperimentRunner.campaign_key_for,
                  ResultCache.put_campaign, ResultCache.get_campaign),
}


def model_counts(results) -> Dict[str, int]:
    """Deterministic simulated counts summed over a set of runs."""
    stats = [r.stats for r in results]
    return {
        "sim.cycles": sum(s.cycles for s in stats),
        "cpu.instructions": sum(s.total_instructions for s in stats),
        "mc.requests": sum(s.total_memory_requests for s in stats),
        "dram.activations": sum(s.total_activations for s in stats),
        "dram.row_hits": sum(s.total_row_hits for s in stats),
        "dram.refreshes": sum(s.total_refreshes for s in stats),
        "core.alerts": sum(s.total_alerts for s in stats),
        "core.mitigations": sum(s.total_mitigations for s in stats),
        "core.victim_refreshes": sum(s.total_victim_refreshes
                                     for s in stats),
        "rfm.commands": sum(s.total_rfm_commands for s in stats),
        "mc.max_request_alerts": max(s.max_request_alerts for s in stats),
    }


def sim_layers(jobs: Sequence[Job], config: SystemConfig, spans: Spans,
               observed: Sequence[Job] = ()) -> dict:
    """Trace generation and untraced simulation of ``jobs`` (with event
    counts), then one cProfile pass over ``simulate()`` for ``jobs`` and
    the ``observed`` jobs (whose traces they share), booked by package."""
    traces, results = {}, []
    events = 0
    for job in jobs:
        with spans.span("workloads.trace_gen"):
            traces[_trace_key(job)] = make_rate_traces(
                WORKLOADS[job.workload], config, job.requests, job.seed)
        start = time.perf_counter()
        system = SimulatedSystem(traces[_trace_key(job)], job.setup, config,
                                 mapping=job.mapping, seed=job.seed)
        system.start()
        results.append(system.run())
        spans.add("sim.simulate", time.perf_counter() - start)
        events += system.engine.events_processed
    profile = cProfile.Profile()
    for job in list(jobs) + list(observed):
        obs = Observability(job.obs) if job.obs is not None else None
        with spans.span("sim.cprofile"):
            profile.runcall(simulate, traces[_trace_key(job)], job.setup,
                            config, mapping=job.mapping, seed=job.seed,
                            obs=obs)
    simulate_s = spans.get("sim.simulate")
    metrics = {f"{pkg}.self_s": s
               for pkg, s in self_time_by_package(profile).items()}
    metrics.update({
        "workloads.trace_gen_s": spans.get("workloads.trace_gen"),
        "sim.simulate_s": simulate_s,
        "sim.events": events,
        "sim.host_ns_per_event": 1e9 * simulate_s / events,
        # Profiled wall of the cProfile pass: the tracing overhead.
        "sim.cprofile_s": spans.get("sim.cprofile"),
    })
    metrics.update(model_counts(results))
    return {"metrics": metrics, "traces": traces, "results": results,
            "profile": profile}


def _trace_key(job: Job) -> tuple:
    return (job.workload, job.requests, job.seed)


def runner_layer(entries: List[Tuple[object, object]], cache_dir: str,
                 spans: Spans) -> Dict[str, float]:
    """Time the runner's cache key, cache put and warm cache get of each
    ``(job, stored value)`` pair, against a fresh cache directory."""
    runner = ExperimentRunner(jobs=1, use_cache=False)
    cache = ResultCache(cache_dir)
    for job, value in entries:
        key_for, put, get = _RUNNER_OPS[type(job)]
        with spans.span("runner.key"):
            key = key_for(runner, job)
        with spans.span("runner.cache_put"):
            put(cache, key, value)
        with spans.span("runner.cache_get"):
            if get(cache, key) is None:
                raise RuntimeError("the cache lost an entry it just stored")
    size = cache.stats()["total_bytes"]
    shutil.rmtree(cache_dir, ignore_errors=True)
    return {
        "runner.key_s": spans.get("runner.key"),
        "runner.cache_put_s": spans.get("runner.cache_put"),
        "runner.cache_get_s": spans.get("runner.cache_get"),
        "runner.cache_bytes": size,
    }
