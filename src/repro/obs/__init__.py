"""Simulation observability: metrics, tracing, and profiling (``repro.obs``).

Three concerns, three modules, one facade:

* :mod:`repro.obs.metrics` — a registry of counters / gauges / fixed-bucket
  histograms with per-bank / per-subchannel labels. Deterministic: values
  derive only from simulated quantities.
* :mod:`repro.obs.trace` — a cycle-stamped JSONL event timeline
  (ACT→ALERT→retry chains, SAUM busy intervals, RFM stalls) with bounded
  memory (ring buffer) and optional streaming flush.
* :mod:`repro.obs.profile` — wall-clock phase profiling (events/sec,
  cache hit/miss), deliberately quarantined from the deterministic outputs.

The facade is :class:`Observability`; instrumented components accept an
optional instance and publish through pre-resolved hook points that are a
single ``is None`` branch when observability is off — the disabled path
must stay within the 2 % throughput budget that
``tests/test_obs_overhead.py`` holds it to against the baseline of
``benchmarks/bench_perf_smoke.py``.

Typical use::

    from repro.obs import Observability, ObsConfig

    obs = Observability(ObsConfig(metrics=True, trace=True))
    result = simulate(traces, setup, config, mapping="rubix", seed=1,
                      obs=obs)
    print(result.obs.trace_jsonl)         # JSONL timeline
    print(result.obs.metrics["counters"]) # flat series -> value

Or, one layer up, attach an :class:`ObsConfig` to a runner
:class:`~repro.analysis.runner.Job` — the observability outputs come back
on the :class:`~repro.cpu.system.SimulationResult` even when the
simulation ran in a worker process, and are byte-identical to a serial
run of the same seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import IO, Optional

from repro.obs.metrics import (
    Counter,
    DEPTH_EDGES,
    Gauge,
    Histogram,
    LATENCY_EDGES,
    MetricsRegistry,
    merge_histograms,
)
from repro.obs.profile import PhaseProfiler
from repro.obs.trace import SpanTracer

__all__ = [
    "Counter",
    "DEPTH_EDGES",
    "Gauge",
    "Histogram",
    "LATENCY_EDGES",
    "MetricsRegistry",
    "ObsConfig",
    "ObsResult",
    "Observability",
    "PhaseProfiler",
    "SpanTracer",
    "merge_histograms",
]

#: Bump when the metric/trace record schema changes shape; exported in
#: every ObsResult so downstream consumers can detect stale files.
OBS_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class ObsConfig:
    """What to observe. Frozen and picklable: it rides inside runner jobs
    (and their cache keys) across process-pool boundaries."""

    metrics: bool = True
    trace: bool = False
    trace_capacity: int = 65536

    def __post_init__(self):
        if self.trace_capacity < 1:
            raise ValueError(
                f"trace_capacity must be >= 1, got {self.trace_capacity}"
            )

    @property
    def enabled(self) -> bool:
        """True when any deterministic collection (metrics/trace) is on."""
        return self.metrics or self.trace


@dataclass
class ObsResult:
    """Collected observability outputs for one finished simulation.

    ``metrics`` and ``trace_jsonl`` are deterministic (cycle-stamped);
    ``profile`` carries wall-clock provenance and is expected to differ
    between hosts and runs.
    """

    schema: int = OBS_SCHEMA_VERSION
    metrics: Optional[dict] = None
    trace_jsonl: Optional[str] = None
    trace_events: int = 0
    trace_dropped: int = 0
    profile: dict = field(default_factory=dict)


class Observability:
    """Facade bundling the registry, tracer, and profiler for one run."""

    def __init__(
        self,
        config: Optional[ObsConfig] = None,
        trace_stream: Optional[IO[str]] = None,
    ):
        self.config = config if config is not None else ObsConfig()
        self.metrics: Optional[MetricsRegistry] = (
            MetricsRegistry() if self.config.metrics else None
        )
        self.tracer: Optional[SpanTracer] = (
            SpanTracer(self.config.trace_capacity, stream=trace_stream)
            if self.config.trace
            else None
        )
        self.profiler = PhaseProfiler()

    @property
    def enabled(self) -> bool:
        """True when any collector (metrics registry / tracer) is live."""
        return self.metrics is not None or self.tracer is not None

    def result(self) -> ObsResult:
        """Freeze the collected state into a transportable record."""
        return ObsResult(
            schema=OBS_SCHEMA_VERSION,
            metrics=self.metrics.snapshot() if self.metrics else None,
            trace_jsonl=self.tracer.to_jsonl() if self.tracer else None,
            trace_events=self.tracer.emitted if self.tracer else 0,
            trace_dropped=self.tracer.dropped if self.tracer else 0,
            profile=self.profiler.snapshot(),
        )
