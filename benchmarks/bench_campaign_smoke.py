"""Campaign smoke: throughput and seed economy of the threshold engine.

Runs the mini-campaign grid (the same cells the CI differential pins)
through the adaptive SPRT/bisection engine, verifies every cell against
the fixed-seed oracle, and records into ``BENCH_perf.json``:

* ``campaign_cells_per_second`` — end-to-end adaptive-engine throughput
  over the grid (wall-clock, min of repeats);
* ``campaign_seeds_saved_pct`` — seed replays avoided versus the fixed
  ``probes x max_seeds`` sweep the engine replaces, aggregated over the
  grid. The acceptance floor is 80%. This is not a saving against the
  oracle, which replays each cell's ``max_seeds`` pool once;
* ``campaign_kernel_calls`` — pool extensions (batched replays) the
  search made over the grid;
* ``campaign_search_vs_oracle`` — the search's wall time over the
  oracle's on the same cells in this process. The gate holds it at
  ``MAX_SEARCH_VS_ORACLE``: both sides share the machine's load, so the
  gate needs no stored number.

The differential assert means the bench can never quote a seed saving for
an engine that has drifted from the oracle's verdicts.

Run standalone:  PYTHONPATH=src python benchmarks/bench_campaign_smoke.py
"""

from __future__ import annotations

import json
import os
import time

import pytest

from bench_perf_smoke import OUTPUT, write_report
from repro.security.campaign import (
    CampaignJob,
    CellEngine,
    oracle_campaign_cell,
    summarize_campaign,
)

REPEATS = 3  # report the fastest repeat: least scheduler noise

#: Seed-saving floor on the smoke grid.
MIN_SAVED_PCT = 80.0

#: The search may take at most this multiple of the oracle's wall time.
#: The oracle replays every cell's full pool once; the search replays at
#: most that pool, so only per-call overhead can push it past 1x.
MAX_SEARCH_VS_ORACLE = 2.0

#: The smoke grid: spans trackers, policies, and corpus scenarios while
#: staying cheap enough for the oracle cross-check. Kept in lockstep with
#: ``DIFFERENTIAL_CELLS`` in tests/test_campaign.py.
CELLS = (
    dict(tracker="mint", policy="fractal", window=4, acts=1500,
         max_seeds=80),
    dict(tracker="mint", policy="blast", window=4, acts=1500,
         max_seeds=80),
    dict(tracker="para", policy="fractal", window=4, acts=1500,
         max_seeds=80),
    dict(tracker="graphene", policy="fractal", window=4, acts=1500,
         max_seeds=80),
    dict(scenario="row_press", acts=2000, max_seeds=120),
    dict(scenario="abcd_k", acts=2000, max_seeds=120),
)

skip_perf = pytest.mark.skipif(
    os.environ.get("REPRO_SKIP_PERF_TESTS", "") == "1",
    reason="perf tests disabled via REPRO_SKIP_PERF_TESTS=1",
)


class _CountingCell(CellEngine):
    """A cell engine that counts its pool extensions (kernel calls)."""

    def __init__(self, job: CampaignJob):
        super().__init__(job)
        self.kernel_calls = 0

    def ensure_seeds(self, n: int) -> None:
        self.kernel_calls += 1
        super().ensure_seeds(n)


def run_grid():
    """One adaptive pass over the grid; returns (records, wall_seconds,
    kernel_calls)."""
    engines = [_CountingCell(CampaignJob(**cell)) for cell in CELLS]
    start = time.perf_counter()
    records = [engine.run() for engine in engines]
    wall = time.perf_counter() - start
    return records, wall, sum(e.kernel_calls for e in engines)


def run_oracle():
    """The fixed-seed oracle over the grid; returns (records, seconds)."""
    jobs = [CampaignJob(**cell) for cell in CELLS]
    start = time.perf_counter()
    records = [oracle_campaign_cell(job) for job in jobs]
    return records, time.perf_counter() - start


def run_smoke() -> dict:
    """Time the grid and its oracle; differential-check them; return the
    metrics dict."""
    wall = oracle_wall = float("inf")
    for _ in range(REPEATS):
        records, elapsed, kernel_calls = run_grid()
        wall = min(wall, elapsed)
        oracles, elapsed = run_oracle()
        oracle_wall = min(oracle_wall, elapsed)

    for cell, record, oracle in zip(CELLS, records, oracles):
        assert (
            record["tolerated_threshold"] == oracle["tolerated_threshold"]
        ), f"adaptive engine diverged from the fixed-seed oracle on {cell}"

    summary = summarize_campaign(records)
    saved_pct = round(
        100.0 * summary["seeds_saved_vs_fixed"] / summary["fixed_cost_seeds"],
        1,
    )
    return {
        "campaign_cells": len(CELLS),
        "campaign_probes": summary["probes"],
        "campaign_seeds_spent": summary["seeds_spent"],
        "campaign_cells_per_second": round(len(CELLS) / wall, 2),
        "campaign_seeds_saved_pct": saved_pct,
        "campaign_kernel_calls": kernel_calls,
        "campaign_search_vs_oracle": round(wall / oracle_wall, 2),
    }


def check(metrics: dict) -> None:
    """The smoke gates: seed-saving floor and search vs oracle wall."""
    assert metrics["campaign_seeds_saved_pct"] >= MIN_SAVED_PCT
    assert metrics["campaign_cells_per_second"] > 0
    assert metrics["campaign_search_vs_oracle"] <= MAX_SEARCH_VS_ORACLE, (
        f"search took {metrics['campaign_search_vs_oracle']}x the "
        f"oracle's wall time (limit {MAX_SEARCH_VS_ORACLE}x)"
    )


@skip_perf
def test_campaign_smoke():
    metrics = run_smoke()
    write_report(metrics)
    check(metrics)


if __name__ == "__main__":
    metrics = run_smoke()
    write_report(metrics)
    print(json.dumps(metrics, indent=2, sort_keys=True))
    print(f"\nwrote {OUTPUT}")
    check(metrics)
