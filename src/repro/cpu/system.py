"""Full-system simulation: cores + memory controller + DRAM.

:func:`simulate` is the main entry point of the library: it wires the cores
to the memory controller under a chosen mapping and mitigation setup, runs
the event loop to completion, and returns the collected statistics.

:class:`SimulatedSystem` is the underlying live object — construction wires
everything, :meth:`~SimulatedSystem.start` schedules the first events, and
:meth:`~SimulatedSystem.run` drains the event loop (optionally pausing at
fixed cycle boundaries for checkpoint capture). The checkpoint layer
(:mod:`repro.ckpt`) captures and restores these objects.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.ckpt.contract import checkpointable
from repro.mapping import MemoryMapping, RubixMapping, ZenMapping
from repro.mc.controller import MemoryController
from repro.mc.setup import MitigationSetup
from repro.obs import Observability, ObsResult
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams
from repro.sim.stats import SimStats
from repro.cpu.core import Core
from repro.workloads.trace import Trace

MAPPINGS = ("zen", "rubix")


def build_mapping(name: str, config: SystemConfig, seed: int = 0) -> MemoryMapping:
    """Construct a mapping by name ("zen" or "rubix")."""
    if name == "zen":
        return ZenMapping(config)
    if name == "rubix":
        return RubixMapping(config, key=RngStreams(seed).integer_seed("rubix-key"))
    raise ValueError(f"unknown mapping {name!r}; expected one of {MAPPINGS}")


def decode_traces(
    mapping: MemoryMapping, traces: Sequence[Trace]
) -> Tuple[List[List[int]], List[List[int]]]:
    """Each trace's DRAM rows and flat banks, decoded in one vector pass.

    Returns ``(rows, flat_banks)``, one list per trace. An out-of-range
    address raises :meth:`MemoryMapping.locate`'s ``ValueError``.
    """
    arrays = [np.asarray(t.addrs, dtype=np.int64) for t in traces]
    rows_all, flats_all = mapping.locate_array(np.concatenate(arrays))
    rows_all = rows_all.tolist()
    flats_all = flats_all.tolist()
    rows: List[List[int]] = []
    flat_banks: List[List[int]] = []
    pos = 0
    for array in arrays:
        end = pos + array.size
        rows.append(rows_all[pos:end])
        flat_banks.append(flats_all[pos:end])
        pos = end
    return rows, flat_banks


@dataclass
class SimulationResult:
    """Statistics plus the knobs that produced them.

    ``obs`` carries the observability outputs (metrics snapshot, JSONL
    trace, wall-clock profile) when the run was observed; it is ``None``
    for plain runs and is excluded from stats-equality comparisons.
    ``ckpt`` carries checkpoint bookkeeping (segments captured, resume
    point) for segmented runs; like the profile it is wall-clock-adjacent
    metadata and never enters cached result dicts.
    """

    stats: SimStats
    setup: MitigationSetup
    mapping: str
    seed: int
    obs: Optional[ObsResult] = None
    ckpt: Optional[dict] = None

    def slowdown_vs(self, baseline: "SimulationResult") -> float:
        """Fractional slowdown vs. ``baseline`` (0.04 = 4 % slower)."""
        return self.stats.slowdown_vs(baseline.stats)


@checkpointable(
    state=("engine", "streams", "stats", "controller", "cores", "_started"),
    const=("traces", "setup", "config", "mapping_name", "seed"),
    derived=("command_log", "obs", "mapping"),
)
class SimulatedSystem:
    """A fully wired simulation that has not necessarily run yet.

    The constructor performs exactly the wiring :func:`simulate` always
    did — engine, RNG registry, stats, mapping, controller (which schedules
    the refresh machinery), and cores — but does not schedule core events
    or drain the loop, so a freshly constructed system is also the blank
    canvas a checkpoint restore overlays its captured state onto.
    """

    def __init__(
        self,
        traces: Sequence[Trace],
        setup: Optional[MitigationSetup] = None,
        config: Optional[SystemConfig] = None,
        mapping: str = "zen",
        seed: int = 0,
        command_log=None,
        obs: Optional[Observability] = None,
    ):
        config = config or SystemConfig()
        setup = setup or MitigationSetup(mechanism="none")
        config.validate()
        if len(traces) != config.num_cores:
            raise ValueError(
                f"need {config.num_cores} traces (one per core), "
                f"got {len(traces)}"
            )
        self.traces: List[Trace] = list(traces)
        self.setup = setup
        self.config = config
        self.mapping_name = mapping
        self.seed = seed
        self.command_log = command_log
        self.obs = obs

        # Engine is resolved as a module global on purpose: the perf
        # benchmarks substitute an instrumented engine class.
        self.engine = Engine()
        if obs is not None and obs.enabled:
            self.engine.obs = obs
        self.streams = RngStreams(seed)
        self.stats = SimStats.with_shape(config.num_banks, config.num_cores)
        self.mapping = build_mapping(mapping, config, seed)
        # Every request's location is a pure function of its address and
        # the mapping, so each trace is decoded once, before any event
        # runs; an out-of-range address fails here.
        rows, flat_banks = decode_traces(self.mapping, self.traces)

        self.cores: List[Core] = []
        self.controller = MemoryController(
            config=config,
            mapping=self.mapping,
            engine=self.engine,
            setup=setup,
            streams=self.streams.spawn("mc"),
            stats=self.stats,
            keep_running=lambda: any(not c.finished for c in self.cores),
            command_log=command_log,
            obs=obs,
        )
        for core_id, trace in enumerate(self.traces):
            self.cores.append(
                Core(
                    core_id=core_id,
                    trace=trace,
                    config=config,
                    engine=self.engine,
                    submit=self.controller.submit,
                    stats=self.stats.cores[core_id],
                    rows=rows[core_id],
                    flat_banks=flat_banks[core_id],
                )
            )
        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule every core's first dispatch (cycle 0); callable once."""
        if self._started:
            raise RuntimeError("system already started")
        self._started = True
        for core in self.cores:
            core.start()

    def run(
        self,
        max_events: Optional[int] = None,
        checkpoint_every: Optional[int] = None,
        on_checkpoint: Optional[Callable[["SimulatedSystem", int], None]] = None,
    ) -> SimulationResult:
        """Drain the event loop to completion and return the result.

        With ``checkpoint_every`` set, the drain pauses at every multiple
        of that many cycles (the next boundary is derived from the earliest
        pending event, so straight and resumed runs agree on boundaries)
        and invokes ``on_checkpoint(system, boundary)`` while more work is
        pending. Event order is identical with and without segmentation.
        """
        if not self._started:
            raise RuntimeError("call start() before run()")
        engine = self.engine
        controller = self.controller
        if checkpoint_every is not None:
            if checkpoint_every < 1:
                raise ValueError("checkpoint_every must be >= 1 cycle")
            if max_events is not None:
                raise ValueError(
                    "checkpoint_every and max_events are mutually exclusive"
                )
            while True:
                if not engine.pending:
                    if controller.buffered_writes():
                        # Write-drain mode: flush stragglers; they schedule
                        # new events, so keep segmenting.
                        controller.drain_writes()
                    if not engine.pending:
                        break
                front = engine._heap[0][0]
                boundary = max(
                    checkpoint_every,
                    -(-front // checkpoint_every) * checkpoint_every,
                )
                engine.run(until=boundary)
                if engine.pending and on_checkpoint is not None:
                    on_checkpoint(self, boundary)
        else:
            if max_events is None:
                engine.run_until_empty()
            else:
                engine.run(max_events=max_events)
            if controller.buffered_writes():
                # Write-drain mode: flush the stragglers and let them
                # complete.
                controller.drain_writes()
                engine.run(max_events=max_events)
        return self.finalize()

    def flush_obs(self) -> None:
        """Publish deferred observability accumulations (drain boundary).

        The controller aggregates metric increments and trace records
        between refresh boundaries; anything that snapshots or serialises
        observability state mid-run (finalize, checkpoint capture) must
        flush first so the registry and tracer are complete."""
        self.controller.flush_obs()

    def finalize(self) -> SimulationResult:
        """Check for deadlock, stamp final cycles, and package the result."""
        unfinished = [c.core_id for c in self.cores if not c.finished]
        if unfinished:
            raise RuntimeError(
                f"cores {unfinished} never finished (deadlock?)"
            )
        self.stats.cycles = max(c.stats.finish_cycle for c in self.cores)
        result = SimulationResult(
            stats=self.stats,
            setup=self.setup,
            mapping=self.mapping_name,
            seed=self.seed,
        )
        if self.obs is not None and self.obs.enabled:
            self.flush_obs()
            result.obs = self.obs.result()
        return result


def simulate(
    traces: Sequence[Trace],
    setup: Optional[MitigationSetup] = None,
    config: Optional[SystemConfig] = None,
    mapping: str = "zen",
    seed: int = 0,
    max_events: Optional[int] = None,
    command_log=None,
    obs: Optional[Observability] = None,
    checkpoint_every: Optional[int] = None,
    checkpoint_dir: Optional[str] = None,
    backend: str = "scalar",
) -> SimulationResult:
    """Run one full simulation and return its result.

    ``traces`` supplies one post-LLC trace per core (rate mode passes the
    same workload, independently generated, to every core). The simulation
    ends when every core has retired its full trace.

    ``obs`` attaches a :class:`repro.obs.Observability` for the run; the
    collected outputs land on ``result.obs``. ``None`` (the default) keeps
    every instrumentation point on its no-op path.

    ``checkpoint_every`` (cycles) with ``checkpoint_dir`` periodically
    captures an integrity-hashed snapshot into the directory (atomic
    write-then-rename plus a manifest); restore one with
    :func:`repro.ckpt.restore`. Disabled by default and entirely free when
    disabled.

    ``backend="batch"`` routes the run through the fused timing kernel
    (:mod:`repro.sim.batch`); runs carrying options the kernel does not
    model (observability, event budget, checkpointing, open-page,
    same-bank refresh, write drain, per-request retry) transparently fall
    back to this scalar path with bit-identical results.
    """
    if backend != "scalar":
        # Imported lazily: repro.sim.batch imports this module.
        from repro.sim.batch import BACKENDS, SimLane, simulate_batch

        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        lane = SimLane(
            traces,
            setup=setup,
            config=config,
            mapping=mapping,
            seed=seed,
            max_events=max_events,
            command_log=command_log,
            obs=obs,
            checkpoint_every=checkpoint_every,
            checkpoint_dir=checkpoint_dir,
        )
        return simulate_batch([lane], backend=backend)[0]
    system = SimulatedSystem(
        traces,
        setup=setup,
        config=config,
        mapping=mapping,
        seed=seed,
        command_log=command_log,
        obs=obs,
    )
    system.start()
    on_checkpoint = None
    if checkpoint_every is not None:
        if checkpoint_dir is None:
            raise ValueError("checkpoint_every requires checkpoint_dir")
        # Imported lazily: repro.ckpt.state imports this module.
        from repro.ckpt import CheckpointWriter, capture

        writer = CheckpointWriter(checkpoint_dir)

        def on_checkpoint(sys_: SimulatedSystem, boundary: int) -> None:
            writer.write(capture(sys_, boundary=boundary))

    elif checkpoint_dir is not None:
        raise ValueError("checkpoint_dir requires checkpoint_every")
    return system.run(
        max_events=max_events,
        checkpoint_every=checkpoint_every,
        on_checkpoint=on_checkpoint,
    )
