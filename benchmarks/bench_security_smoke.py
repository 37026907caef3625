"""Security smoke: attack activations/sec of the Monte-Carlo engines.

Times the batched numpy engine against the scalar ``run_attack`` oracle on
the acceptance workload — a double-sided pattern of 64k activations
replayed across 1000 seeds — and records both rates (plus their ratio)
into ``BENCH_perf.json`` alongside the simulator smoke numbers. The
scalar backend is timed on a small seed slice (its per-seed cost is
constant, so the rate generalizes); the numpy backend runs the full
thousand-seed batch it exists for. The process's peak RSS after both runs
is recorded as ``security_peak_rss_mb`` (the numpy batch dominates it).

Run standalone:  PYTHONPATH=src python benchmarks/bench_security_smoke.py
"""

from __future__ import annotations

import json
import os
import resource
import time

import pytest

from bench_perf_smoke import OUTPUT, write_report
from repro.security.kernels import (
    FractalPolicySpec,
    MintSpec,
    build_pattern,
    run_attack_batch,
)

SEEDS = 1000
SCALAR_SEEDS = 8  # per-seed cost is flat; a slice pins the rate
ACTS = 64_000
VICTIM = 70_000
WINDOW = 4

#: Acceptance floor: the vectorized engine must beat the scalar oracle by
#: at least this factor on the smoke workload.
MIN_SPEEDUP = 10.0

skip_perf = pytest.mark.skipif(
    os.environ.get("REPRO_SKIP_PERF_TESTS", "") == "1",
    reason="perf tests disabled via REPRO_SKIP_PERF_TESTS=1",
)


def _rate(backend: str, seeds: int) -> float:
    pattern = build_pattern("double_sided", [VICTIM], ACTS)
    start = time.perf_counter()
    run_attack_batch(
        [pattern],
        MintSpec(WINDOW),
        FractalPolicySpec(),
        window=WINDOW,
        seeds=seeds,
        backend=backend,
        collect_pressure=False,
    )
    wall = time.perf_counter() - start
    return (seeds * ACTS) / wall


def run_smoke() -> dict:
    """Time both backends once; return the metrics dict (merged keys)."""
    numpy_rate = _rate("numpy", SEEDS)
    scalar_rate = _rate("scalar", SCALAR_SEEDS)
    return {
        "security_attack": "double_sided",
        "security_acts": ACTS,
        "security_seeds": SEEDS,
        "security_scalar_seeds": SCALAR_SEEDS,
        "attack_activations_per_second": {
            "numpy": round(numpy_rate, 1),
            "scalar": round(scalar_rate, 1),
        },
        "security_speedup": round(numpy_rate / scalar_rate, 1),
        # ru_maxrss is in KiB on Linux.
        "security_peak_rss_mb": round(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1
        ),
    }


def check(metrics: dict) -> None:
    """The smoke's acceptance floor (shared by pytest and ``__main__``)."""
    rates = metrics["attack_activations_per_second"]
    assert rates["numpy"] > 0 and rates["scalar"] > 0
    assert metrics["security_speedup"] >= MIN_SPEEDUP, (
        f"numpy backend only {metrics['security_speedup']}x scalar "
        f"(floor {MIN_SPEEDUP}x)"
    )


@skip_perf
def test_security_smoke():
    metrics = run_smoke()
    write_report(metrics)
    check(metrics)


if __name__ == "__main__":
    metrics = run_smoke()
    write_report(metrics)
    print(json.dumps(metrics, indent=2, sort_keys=True))
    print(f"\nwrote {OUTPUT}")
    check(metrics)
