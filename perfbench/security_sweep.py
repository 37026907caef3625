"""security-sweep: the Monte-Carlo security kernels and threshold campaigns.

Phase 1 replays fixed-seed batches through ``run_security_many``:
{MINT, Graphene, PARA} x {fractal, blast} with wide seed vectors and long
double-sided patterns. Phase 2 searches threshold-campaign cells through
``run_campaign_many``: the campaign smoke grid plus a half-double corpus
scenario. Both fan out over ``WORKERS`` processes from a cold cache. The
kernels thus run two ways, wide batches and the campaign's narrow chunked
replays, so a fix for one cannot silently cost the other.

``--seed`` picks the aggressor rows of every batch and cell.
"""

from __future__ import annotations

import os
import shutil
import time
from typing import Dict, List

import numpy as np

from repro.analysis.runner import (
    CampaignJob,
    ExperimentRunner,
    SecurityJob,
    _security_results_to_dicts,
)
from repro.payload import compile_scenario
from repro.security.campaign import CellEngine, oracle_campaign_cell
from repro.security.kernels import (
    build_pattern,
    policy_spec_from_string,
    run_attack_batch,
    tracker_spec_from_strings,
)

import checks
from common import WORKERS, Spans
from layers import runner_layer

ROWS_PER_BANK = 128 * 1024
WINDOW = 4
BATCH_SEEDS = 256
BATCH_ACTS = 8_000
TRACKERS = ("mint", "graphene", "para")
POLICIES = ("fractal", "blast")
#: Seeds of every batch replayed again on the scalar oracle.
SCALAR_PREFIX = 2

#: The campaign smoke grid: four synthetic round-robin cells and two
#: corpus scenarios, longest first, so each of the two workers gets one
#: scenario and two round-robin cells and they finish together. ``row``
#: names the scenario parameter the seed moves.
CELLS = (
    dict(scenario="row_press", acts=2000, max_seeds=120, row="victim"),
    dict(scenario="abcd_k", acts=2000, max_seeds=120, row="base"),
    dict(tracker="para", policy="fractal", acts=1500, max_seeds=80),
    dict(tracker="mint", policy="blast", acts=1500, max_seeds=80),
    dict(tracker="graphene", policy="fractal", acts=1500, max_seeds=80),
    dict(tracker="mint", policy="fractal", acts=1500, max_seeds=80),
)


def _rows(seed: int, n: int) -> List[int]:
    rng = np.random.default_rng(seed)
    return [int(r) for r in rng.integers(1024, ROWS_PER_BANK - 1024, n)]


def batch_jobs(seed: int) -> List[SecurityJob]:
    rows = _rows(seed, len(TRACKERS) * len(POLICIES))
    combos = [(t, p) for t in TRACKERS for p in POLICIES]
    return [SecurityJob(attack="double_sided", rows=(row,), acts=BATCH_ACTS,
                        window=WINDOW, tracker=t, policy=p,
                        seeds=BATCH_SEEDS, rows_per_bank=ROWS_PER_BANK)
            for (t, p), row in zip(combos, rows)]


def cell_jobs(seed: int) -> List[CampaignJob]:
    rows = _rows(seed + 1_000_003, len(CELLS))
    jobs = []
    for cell, row in zip(CELLS, rows):
        fields = {k: v for k, v in cell.items() if k != "row"}
        if "row" in cell:
            fields["scenario_params"] = {cell["row"]: row}
        else:
            fields["base_row"] = row
        jobs.append(CampaignJob(window=WINDOW, rows_per_bank=ROWS_PER_BANK,
                                **fields))
    return jobs


#: What the generic end-to-end metrics measure on this workload.
NAMES = {"phase1_per_s": "attack_acts_per_s",
         "phase2_per_s": "campaign_cells_per_s"}


def ops_per_round() -> int:
    return len(TRACKERS) * len(POLICIES) + len(CELLS)


def prepare(seed: int, run_dir: str) -> dict:
    return {"seed": seed, "run_dir": run_dir,
            "batches": batch_jobs(seed), "cells": cell_jobs(seed)}


def run_round(ctx: dict, index: int) -> dict:
    cache_dir = os.path.join(ctx["run_dir"], f"cache-{index}")
    runner = ExperimentRunner(jobs=WORKERS, cache_dir=cache_dir,
                              use_cache=True)
    t0 = time.perf_counter()
    batches = runner.run_security_many(ctx["batches"])
    t1 = time.perf_counter()
    records = runner.run_campaign_many(ctx["cells"])
    t2 = time.perf_counter()
    shutil.rmtree(cache_dir, ignore_errors=True)
    acts = sum(len(seeds) * BATCH_ACTS for seeds in batches)
    return {"batch_s": t1 - t0, "campaign_s": t2 - t1, "acts": acts,
            "batches": batches, "records": records}


def stop(ctx: dict) -> List[str]:
    return []


def round_metrics(r: dict) -> Dict[str, float]:
    """Wall time and phase rates of one round."""
    return {
        "wall_s": r["batch_s"] + r["campaign_s"],
        "phase1_per_s": r["acts"] / r["batch_s"],
        "phase2_per_s": len(CELLS) / r["campaign_s"],
    }


def _replay(job: SecurityJob, seeds, backend: str):
    """``job``'s pattern replayed directly through the kernel layer."""
    return run_attack_batch(
        [build_pattern(job.attack, list(job.rows), job.acts)],
        tracker_spec_from_strings(job.tracker, job.window),
        policy_spec_from_string(job.policy),
        window=job.window, seeds=seeds, rows_per_bank=job.rows_per_bank,
        blast_radius=job.blast_radius, backend=backend,
        collect_pressure=False)[0]


def _outputs(out: dict) -> list:
    return [[[checks.attack_summary(r) for r in seeds]
             for seeds in out["batches"]], out["records"]]


def counts(out: dict) -> Dict[str, int]:
    """Deterministic work counts of a round."""
    return {"kernels.acts": out["acts"],
            "campaign.probes": sum(len(r["probes"]) for r in out["records"]),
            "campaign.seeds_spent": sum(r["seeds_spent"]
                                        for r in out["records"])}


def digest(out: dict) -> str:
    """Hash of every output of a round: per-seed results, cell records."""
    return checks.digest(_outputs(out))


def check(ctx: dict, first: dict, traced_out=None) -> List[str]:
    """Every security-sweep check, on the first round's outputs."""
    errors: List[str] = []
    for job, results in zip(ctx["batches"], first["batches"]):
        label = f"{job.tracker}/{job.policy}"
        errors += checks.check_batch(label, results, job.seeds, job.acts,
                                     job.window, job.tracker)
        scalar = _replay(job, list(range(SCALAR_PREFIX)), "scalar")
        errors += checks.check_scalar_prefix(label, results, scalar)
    oracles = (traced_out["oracles"] if traced_out is not None
               else [oracle_campaign_cell(job) for job in ctx["cells"]])
    for job, record, oracle in zip(ctx["cells"], first["records"], oracles):
        errors += checks.check_campaign_cell(job.cell_label(), record,
                                             oracle)
    by_cell = {(j.tracker, j.policy, j.scenario): r
               for j, r in zip(ctx["cells"], first["records"])}
    errors += checks.check_mint_policies(by_cell[("mint", "fractal", None)],
                                         by_cell[("mint", "blast", None)])
    return errors


class _TimedCellEngine(CellEngine):
    """CellEngine whose pool growth is timed from the benchmark's side."""

    def __init__(self, job: CampaignJob, spans: Spans):
        super().__init__(job)
        self.spans = spans

    def ensure_seeds(self, n: int) -> None:
        with self.spans.span("campaign.kernel"):
            super().ensure_seeds(n)


def traced(ctx: dict, round_out: dict) -> dict:
    """Per-layer pass over the round's batches and cells (serial,
    in-process)."""
    spans = Spans()
    replays = []
    for job in ctx["batches"]:
        with spans.span("kernels.replay"):
            replays.append(_replay(job, job.seeds, "numpy"))
    acts = sum(len(r) * job.acts for job, r in zip(ctx["batches"], replays))
    replay_s = spans.get("kernels.replay")

    for job in ctx["cells"]:
        if job.scenario is not None:
            with spans.span("payload.compile"):
                compile_scenario(job.scenario,
                                 params=dict(job.scenario_params),
                                 acts=job.acts)

    records = []
    pool_acts = pool_seeds = 0
    for job in ctx["cells"]:
        engine = _TimedCellEngine(job, spans)
        with spans.span("campaign.search"):
            records.append(engine.run())
        pool_seeds += len(engine.pool)
        pool_acts += len(engine.pool) * job.acts
    with spans.span("campaign.oracle"):
        oracles = [oracle_campaign_cell(job) for job in ctx["cells"]]
    seeds_spent = sum(r["seeds_spent"] for r in records)
    oracle_seeds = sum(job.max_seeds for job in ctx["cells"])
    kernel_calls = spans.calls["campaign.kernel"]
    metrics = {
        "kernels.replay_s": replay_s,
        "kernels.acts": acts,
        "kernels.host_ns_per_act": 1e9 * replay_s / acts,
        "payload.compile_s": spans.get("payload.compile"),
        "campaign.kernel_s": spans.get("campaign.kernel"),
        "campaign.search_s": spans.get("campaign.search"),
        "campaign.oracle_s": spans.get("campaign.oracle"),
        "campaign.kernel_calls": kernel_calls,
        "campaign.seeds_per_call": pool_seeds / kernel_calls,
        "campaign.probes": sum(len(r["probes"]) for r in records),
        "campaign.seeds_spent": seeds_spent,
        "campaign.oracle_seeds": oracle_seeds,
        "campaign.seeds_vs_oracle": seeds_spent / oracle_seeds,
        "campaign.host_ns_per_act": (1e9 * spans.get("campaign.kernel")
                                     / pool_acts),
    }
    metrics.update(runner_layer(
        [(job, _security_results_to_dicts(r))
         for job, r in zip(ctx["batches"], replays)]
        + list(zip(ctx["cells"], records)),
        os.path.join(ctx["run_dir"], "runner-cache"), spans))
    serial = replay_s + metrics["campaign.search_s"]
    metrics["runner.pool_overhead_s"] = (
        round_out["batch_s"] + round_out["campaign_s"] - serial / WORKERS)
    errors = checks.check_same_outputs(
        "security-sweep traced pass", _outputs(round_out),
        [_outputs({"batches": replays, "records": records})])
    return {"metrics": metrics, "errors": errors, "oracles": oracles}


def report(ctx: dict, first: dict) -> List[str]:
    lines = ["campaign thresholds (tolerated TRH per cell):"]
    for record in first["records"]:
        cell = record["cell"]
        name = cell["scenario"] or f"{cell['tracker']}/{cell['policy']}"
        lines.append(f"  {name:18s} {record['tolerated_threshold']:5d}  "
                     f"({len(record['probes'])} probes, "
                     f"{record['seeds_spent']} seeds)")
    return lines
