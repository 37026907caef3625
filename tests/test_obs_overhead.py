"""Overhead regression guard: disabled observability must stay free.

The instrumentation added for ``repro.obs`` follows the pre-resolved
hook-object pattern — a single ``is None`` branch per event when disabled —
and the engine picks its observed twin loop once per drain, leaving the
tight loop untouched. This test holds that design to its number: the
disabled path's throughput on the perf smoke must stay within the 2%
budget of the committed ``BENCH_perf.json`` baseline.

Throughput is compared as a ratio, not in events/sec: the perf smoke runs
a fixed pure-Python reference loop in slices interleaved with the
simulation and divides the two rates (``events_per_reference``), so
machine load that slows both alike cancels out and only a change in the
simulator moves the number.

Timing tests are inherently machine-sensitive, so this one:

* is skippable wholesale via ``REPRO_SKIP_PERF_TESTS=1`` (set in CI, where
  shared runners make wall-clock comparisons meaningless);
* skips (rather than fails) when there is no committed baseline to
  compare against;
* takes the median of several interleaved runs per round and retries whole
  rounds before declaring a regression, so a scheduler hiccup cannot fail
  the suite.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "benchmarks"))

from bench_perf_smoke import (  # noqa: E402
    OUTPUT,
    reference_ratio,
    time_simulation,
)

OVERHEAD_BUDGET = 0.02  # disabled-path slowdown allowed vs the baseline
RETRY_ROUNDS = 4  # measure up to this many times; pass if any round passes

skip_perf = pytest.mark.skipif(
    os.environ.get("REPRO_SKIP_PERF_TESTS", "") == "1",
    reason="perf tests disabled via REPRO_SKIP_PERF_TESTS=1",
)


def baseline_ratio():
    """The committed events-per-reference baseline, or None when absent."""
    if not os.path.exists(OUTPUT):
        return None
    with open(OUTPUT) as f:
        return json.load(f).get("events_per_reference")


@skip_perf
def test_disabled_obs_within_overhead_budget():
    baseline = baseline_ratio()
    if baseline is None:
        pytest.skip("no BENCH_perf.json baseline committed yet")
    floor = baseline * (1.0 - OVERHEAD_BUDGET)
    measured = None
    for _ in range(RETRY_ROUNDS):
        measured = reference_ratio()
        if measured >= floor:
            break
    assert measured >= floor, (
        f"disabled-observability path regressed: {measured:.4f} events per "
        f"reference event vs baseline {baseline:.4f} "
        f"(budget {OVERHEAD_BUDGET:.0%})"
    )


@skip_perf
def test_enabled_obs_is_not_pathological():
    """Full metrics+trace collection is allowed to cost something, but a
    blow-up (>3x slowdown) means a hook landed on the wrong path."""
    wall, events, _ = time_simulation(repeats=2, observed=False)
    obs_wall, obs_events, result = time_simulation(repeats=2, observed=True)
    assert obs_events == events  # observation never changes the simulation
    assert result.obs is not None and result.obs.metrics is not None
    assert obs_wall < wall * 3.0, (
        f"observed run took {obs_wall:.3f}s vs {wall:.3f}s disabled"
    )
