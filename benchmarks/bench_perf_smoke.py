"""Perf smoke: events/sec of the simulation kernel on a fixed workload.

Unlike the figure benches, this one measures the *simulator*, not the
simulated system: one fixed small run (bwaves, AutoRFM-4 on Rubix, 2500
requests per core, seed 1), timed end to end, reduced to events processed
per wall-clock second, plus a small mixed fleet timed on both timing
backends (the scalar event loop and the fused batch kernel) to quote the
batch speedup. The numbers land in ``BENCH_perf.json`` at the repo root so
successive checkouts can be compared; regressions to the scheduler, the
event-loop hot path, or the kernel show up here first.

Absolute events/s follow the machine's load as much as the code. So the
bench also times a fixed pure-Python heap-and-call loop in the same
process (:func:`time_reference_ratio`) and records the simulator's
throughput relative to it (``events_per_reference``); load that slows
both alike cancels out of that ratio.

Run standalone:  PYTHONPATH=src python benchmarks/bench_perf_smoke.py
"""

from __future__ import annotations

import heapq
import itertools
import json
import os
import statistics
import time

import repro.cpu.system as system
from repro.mc.setup import MitigationSetup
from repro.obs import ObsConfig, Observability
from repro.sim.batch import SimLane, simulate_batch
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine
from repro.workloads.catalog import WORKLOADS
from repro.workloads.rate import make_rate_traces

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTPUT = os.path.join(REPO_ROOT, "BENCH_perf.json")

WORKLOAD = "bwaves"
SETUP = dict(mechanism="autorfm", threshold=4, policy="fractal")
MAPPING = "rubix"
REQUESTS = 2500
SEED = 1
REPEATS = 3  # report the fastest repeat: least scheduler noise

#: The backend-comparison fleet: kernel-eligible setups spanning the cheap
#: (unmitigated), the counter-heavy (PRAC), and the paper's headline
#: AutoRFM configuration, each at two seeds — a mix that keeps the quoted
#: speedup honest about per-mechanism variance instead of cherry-picking
#: the kernel's best case.
FLEET_SETUPS = (
    dict(mechanism="none"),
    dict(mechanism="prac", prac_trh_d=100),
    dict(mechanism="autorfm", threshold=4, policy="fractal"),
)
FLEET_SEEDS = (1, 2)
#: Longer slices than the headline smoke: the kernel pays a fixed
#: per-lane setup cost (vectorized trace decode), so short runs understate
#: the steady-state speedup the sweeps actually see.
FLEET_REQUESTS = 5000


class _CountingEngine(Engine):
    """Engine that remembers the last instance so the bench can read
    ``_seq`` (every scheduled event is processed once the heap drains)."""

    last: "_CountingEngine" = None

    def __init__(self):
        super().__init__()
        _CountingEngine.last = self


def time_simulation(repeats: int = REPEATS, observed: bool = False):
    """min-of-``repeats`` wall time of the fixed simulation.

    Returns ``(wall_seconds, events, result)``. With ``observed`` the run
    carries a full Observability (metrics + trace) so the report can state
    what the instrumentation costs when it is actually on; the headline
    ``events_per_second`` number always comes from the disabled path.
    """
    config = SystemConfig()
    setup = MitigationSetup(**SETUP)
    traces = make_rate_traces(
        WORKLOADS[WORKLOAD], config, requests=REQUESTS, seed=SEED
    )
    original = system.Engine
    system.Engine = _CountingEngine
    try:
        wall = None
        for _ in range(repeats):
            obs = (
                Observability(ObsConfig(metrics=True, trace=True))
                if observed
                else None
            )
            start = time.perf_counter()
            result = system.simulate(
                traces, setup, config, mapping=MAPPING, seed=SEED, obs=obs
            )
            elapsed = time.perf_counter() - start
            wall = elapsed if wall is None else min(wall, elapsed)
        events = _CountingEngine.last._seq
    finally:
        system.Engine = original
    return wall, events, result


#: The reference loop runs in slices of this many events, one slice at
#: every ``REFERENCE_EVERY``-cycle boundary of the simulation, so the two
#: alternate every few milliseconds and see the same machine speed.
REFERENCE_SLICE = 750
REFERENCE_EVERY = 500


class _ReferenceActor:
    """One actor of the reference loop: a bound-method callback that bumps
    its own counter and reschedules itself, the shape of the simulator's
    per-event work with none of its code."""

    __slots__ = ("heap", "counter", "period", "fired")

    def __init__(self, heap, counter, period):
        self.heap = heap
        self.counter = counter
        self.period = period
        self.fired = 0

    def fire(self, now):
        self.fired += 1
        heapq.heappush(
            self.heap, (now + self.period, next(self.counter), self.fire)
        )


def time_reference_ratio() -> float:
    """Disabled-path events/s over reference-loop events/s, one run.

    The fixed simulation drains in ``REFERENCE_EVERY``-cycle segments
    (the checkpoint-boundary drain; event order is unchanged), and a slice
    of a fixed pure-Python heap-and-call loop runs at every boundary. Each
    slice is timed on its own and subtracted from the run's wall time, so
    both rates come from the same few hundred interleaved windows. The
    loop shares no code with the simulator, so a change in the simulator
    moves the ratio; load that slows the two unequally moves it too (on a
    shared 2-vCPU VM the ratio rose by up to ~10 % when the machine was
    busy).
    """
    config = SystemConfig()
    setup = MitigationSetup(**SETUP)
    traces = make_rate_traces(
        WORKLOADS[WORKLOAD], config, requests=REQUESTS, seed=SEED
    )
    heap = []
    counter = itertools.count()
    for k in range(64):
        actor = _ReferenceActor(heap, counter, 1 + k % 13)
        heapq.heappush(heap, (k, next(counter), actor.fire))
    pop = heapq.heappop
    reference = [0.0, 0]  # seconds, events

    def run_slice(_system, _boundary):
        start = time.perf_counter()
        for _ in range(REFERENCE_SLICE):
            now, _, callback = pop(heap)
            callback(now)
        reference[0] += time.perf_counter() - start
        reference[1] += REFERENCE_SLICE

    start = time.perf_counter()
    sim = system.SimulatedSystem(traces, setup, config, MAPPING, seed=SEED)
    sim.start()
    sim.run(checkpoint_every=REFERENCE_EVERY, on_checkpoint=run_slice)
    sim_wall = time.perf_counter() - start - reference[0]
    return (sim.engine._seq / sim_wall) / (reference[1] / reference[0])


def reference_ratio(runs: int = 5) -> float:
    """Median of ``runs`` :func:`time_reference_ratio` measurements."""
    return statistics.median(time_reference_ratio() for _ in range(runs))


def time_backends(repeats: int = REPEATS):
    """min-of-``repeats`` fleet wall time per backend.

    Runs the fixed fleet (``FLEET_SETUPS`` x ``FLEET_SEEDS``) once per
    repeat on each backend — traces are pre-generated outside the timed
    region — and returns ``(scalar_wall, batch_wall, events)``, where
    ``events`` is the scalar event-loop total for the whole fleet (the
    common work unit both throughput figures are quoted in). Asserts the
    two backends agree on every lane's stats, so the bench can never quote
    a speedup for a kernel that has drifted from the oracle.
    """
    config = SystemConfig()
    lanes = []
    for seed in FLEET_SEEDS:
        traces = make_rate_traces(
            WORKLOADS[WORKLOAD], config, requests=FLEET_REQUESTS, seed=seed
        )
        for setup_kwargs in FLEET_SETUPS:
            lanes.append(SimLane(
                traces, MitigationSetup(**setup_kwargs), config,
                MAPPING, seed,
            ))

    # Scalar and batch are timed back to back inside each round (rather
    # than all-scalar-then-all-batch), so a background-load burst that
    # outlives one backend's repeats cannot skew the ratio: each backend's
    # min comes from the quietest round it saw.
    scalar_wall = batch_wall = None
    events = 0
    original = system.Engine
    for _ in range(repeats):
        system.Engine = _CountingEngine
        try:
            lane_events = []
            start = time.perf_counter()
            scalar_results = []
            for lane in lanes:
                scalar_results.append(system.simulate(
                    lane.traces, lane.setup, config, mapping=MAPPING,
                    seed=lane.seed,
                ))
                lane_events.append(_CountingEngine.last._seq)
            elapsed = time.perf_counter() - start
            events = sum(lane_events)
        finally:
            system.Engine = original
        if scalar_wall is None or elapsed < scalar_wall:
            scalar_wall = elapsed

        start = time.perf_counter()
        batch_results = simulate_batch(lanes)
        elapsed = time.perf_counter() - start
        if batch_wall is None or elapsed < batch_wall:
            batch_wall = elapsed

    for scalar_result, batch_result in zip(scalar_results, batch_results):
        assert scalar_result.stats == batch_result.stats, (
            "batch backend diverged from the scalar oracle"
        )
    return scalar_wall, batch_wall, events


def time_lint_full_tree(repeats: int = REPEATS) -> float:
    """min-of-``repeats`` wall time of a full-tree interprocedural lint.

    Runs every pass — per-module and whole-program — over ``src/repro``
    exactly as the CI blocking step does, so the recorded number is the
    cost a PR actually pays. The acceptance budget is 10 s; the call graph
    is built once per run, so regressions here mean either the tree grew a
    lot or an analysis went superlinear.
    """
    from repro.lint import run_lint

    src = os.path.join(REPO_ROOT, "src", "repro")
    wall = None
    for _ in range(repeats):
        start = time.perf_counter()
        run_lint([src], relative_to=REPO_ROOT)
        elapsed = time.perf_counter() - start
        wall = elapsed if wall is None else min(wall, elapsed)
    return wall


def run_smoke() -> dict:
    """Time the fixed simulation once; return the metrics dict.

    The plain and observed runs are interleaved round by round for the same
    reason :func:`time_backends` interleaves its backends: the quoted
    overhead compares minima that each had a shot at the same quiet
    windows, so a transient load burst cannot masquerade as overhead.
    ``events_per_reference`` is the median of several
    :func:`time_reference_ratio` runs; it is the number the tier-1
    overhead guard holds the disabled path to.
    """
    wall = obs_wall = None
    # More rounds than the fleet timing: the single runs are short, so each
    # needs several shots at an undisturbed window.
    for _ in range(2 * REPEATS + 1):
        ow, obs_events, _ = time_simulation(repeats=1, observed=True)
        w, events, result = time_simulation(repeats=1)
        obs_wall = ow if obs_wall is None else min(obs_wall, ow)
        wall = w if wall is None else min(wall, w)
    ratio = reference_ratio(runs=2 * REPEATS + 1)
    scalar_wall, batch_wall, fleet_events = time_backends()
    lint_wall = time_lint_full_tree()
    return {
        "lint_seconds_full_tree": round(lint_wall, 3),
        "sim_fleet_events": fleet_events,
        "sim_events_per_second_scalar": round(fleet_events / scalar_wall, 1),
        "sim_events_per_second_batch": round(fleet_events / batch_wall, 1),
        "sim_batch_speedup": round(scalar_wall / batch_wall, 2),
        "workload": WORKLOAD,
        "setup": SETUP,
        "mapping": MAPPING,
        "requests": REQUESTS,
        "seed": SEED,
        "events": events,
        "wall_seconds": round(wall, 4),
        "events_per_second": round(events / wall, 1),
        "events_per_reference": round(ratio, 4),
        "obs_events_per_second": round(obs_events / obs_wall, 1),
        "obs_overhead_pct": round(100.0 * (obs_wall - wall) / wall, 1),
        "sim_cycles": result.stats.cycles,
    }


def write_report(metrics: dict, output: str = OUTPUT) -> None:
    """Merge ``metrics`` into the shared report file.

    ``BENCH_perf.json`` is shared with the security smoke bench, so each
    bench read-merge-updates its own keys instead of clobbering the file.
    """
    merged = {}
    try:
        with open(output) as f:
            existing = json.load(f)
        if isinstance(existing, dict):
            merged.update(existing)
    except (OSError, ValueError):
        pass
    merged.update(metrics)
    with open(output, "w") as f:
        json.dump(merged, f, indent=2, sort_keys=True)
        f.write("\n")


def test_perf_smoke():
    metrics = run_smoke()
    write_report(metrics)
    # Smoke-level sanity: the run is deterministic, so the event count is a
    # fixed function of the configuration; throughput just has to be alive.
    assert metrics["events"] > 10_000
    assert metrics["events_per_second"] > 1_000
    # The interprocedural lint budget from the static-analysis issue: the
    # whole tree, call graph included, must stay under 10 s.
    assert metrics["lint_seconds_full_tree"] < 10.0


#: The batch kernel must beat the scalar oracle by at least this factor on
#: the mixed fleet — the whole point of shipping a second backend. The
#: floor tracks the *scalar* oracle too: the locate-cache fix sped the
#: denominator up ~20%, compressing the measured ratio from ~3.7x to ~3x,
#: so the floor sits below that with headroom for scheduler noise.
SPEEDUP_FLOOR = 2.5
RETRY_ROUNDS = 4  # measure up to this many times; pass if any round passes


def test_batch_speedup_floor():
    import pytest

    if os.environ.get("REPRO_SKIP_PERF_TESTS", "") == "1":
        pytest.skip("perf tests disabled via REPRO_SKIP_PERF_TESTS=1")
    best = 0.0
    for _ in range(RETRY_ROUNDS):
        scalar_wall, batch_wall, _ = time_backends()
        best = max(best, scalar_wall / batch_wall)
        if best >= SPEEDUP_FLOOR:
            break
    assert best >= SPEEDUP_FLOOR, (
        f"batch backend speedup {best:.2f}x below the {SPEEDUP_FLOOR}x floor"
    )


if __name__ == "__main__":
    metrics = run_smoke()
    write_report(metrics)
    print(json.dumps(metrics, indent=2, sort_keys=True))
    print(f"\nwrote {OUTPUT}")
