"""Parallel experiment runner with a persistent on-disk result cache.

Every paper figure is an average over many independent ``(workload, setup,
mapping, seed)`` simulations. This module gives the benchmark suite, the
examples, and the CLI one shared way to run those sweeps:

* **Parallel fan-out** — :meth:`ExperimentRunner.run_jobs` distributes
  independent jobs across a :class:`~concurrent.futures.\
ProcessPoolExecutor`. The worker count comes from ``REPRO_JOBS`` (default
  ``os.cpu_count()``); ``REPRO_JOBS=1`` keeps everything in-process, which
  is the right mode for debugging and for pdb/profiling sessions.
* **Persistent caching** — results are stored as JSON under
  ``benchmarks/results/.cache/`` (override with ``REPRO_CACHE_DIR``,
  disable with ``REPRO_CACHE=0``), keyed by the stable SHA-256 hash
  :meth:`repro.jobs.JobSpec.key` derives from the job's fields, the
  :class:`~repro.sim.config.SystemConfig`, the request slice, and a
  schema version. Bumping :data:`CACHE_SCHEMA_VERSION` invalidates every
  stale entry at once.

Determinism: a simulation is a pure function of its job description — each
worker builds its own :class:`~repro.sim.engine.Engine` and
:class:`~repro.sim.rng.RngStreams` from the job seed — so parallel results
are bit-identical to serial results, and ``run_jobs`` preserves job order.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import (
    Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type,
    Union,
)

from repro.cpu.system import MAPPINGS, SimulationResult, simulate
from repro.jobs import (  # noqa: F401 - schema versions re-exported
    CACHE_SCHEMA_VERSION,
    JOB_WIRE_SCHEMA_VERSION,
    KEY_BLIND,
    JobSpec,
    RunContext,
    check_attack_fields,
    keyed_when,
    resolved_from,
    run_job,
)
from repro.mc.setup import MitigationSetup
from repro.obs import ObsConfig, ObsResult, Observability, PhaseProfiler
from repro.security.campaign import CampaignJob
from repro.sim.config import SystemConfig
from repro.sim.stats import BankStats, CoreStats, SimStats
from repro.workloads.catalog import WORKLOADS
from repro.workloads.rate import make_rate_traces

DEFAULT_SEED = 1


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` env var, default ``os.cpu_count()``."""
    raw = os.environ.get("REPRO_JOBS")
    if raw is None:
        return os.cpu_count() or 1
    try:
        jobs = int(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_JOBS must be an integer >= 1, got {raw!r}"
        ) from None
    if jobs < 1:
        raise ValueError(f"REPRO_JOBS must be >= 1, got {jobs}")
    return jobs


def default_requests() -> int:
    """Per-core request-slice length: ``REPRO_REQUESTS``, default 2500."""
    return int(os.environ.get("REPRO_REQUESTS", "2500"))


def default_cache_dir() -> str:
    """Resolve the cache directory.

    ``REPRO_CACHE_DIR`` wins; otherwise ``benchmarks/results/.cache``
    relative to the source checkout (the layout this repo ships), falling
    back to ``~/.cache/repro-autorfm`` for installed-package use.
    """
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return override
    here = os.path.dirname(os.path.abspath(__file__))
    repo_root = os.path.dirname(os.path.dirname(os.path.dirname(here)))
    bench_dir = os.path.join(repo_root, "benchmarks")
    if os.path.isdir(bench_dir):
        return os.path.join(bench_dir, "results", ".cache")
    return os.path.join(os.path.expanduser("~"), ".cache", "repro-autorfm")


def cache_enabled() -> bool:
    """False when ``REPRO_CACHE`` is 0/false/off."""
    return os.environ.get("REPRO_CACHE", "1").lower() not in ("0", "false", "off")


@dataclass(frozen=True)
class Job(JobSpec):
    """One independent simulation: what to run, not how to run it.

    ``obs`` opts the run into observability (metrics and/or tracing); the
    collected outputs come back on ``result.obs`` even when the simulation
    executed in a worker process, and participate in the cache key (an
    observed result is a different artifact than a bare one).
    """

    kind = "sim"
    section = "result"
    flat_key = True
    profile_counters = ("jobs", "unique_jobs", "executed")

    workload: str
    setup: MitigationSetup = MitigationSetup("none")
    mapping: str = "zen"
    #: None -> the runner's default slice (the resolved count is keyed).
    requests: Optional[int] = field(
        default=None, metadata=resolved_from("requests")
    )
    seed: int = DEFAULT_SEED
    #: Keyed only when set, so every pre-observability cache entry stays
    #: addressable under its original hash.
    obs: Optional[ObsConfig] = field(default=None, metadata=keyed_when("obs"))
    #: Segment length in cycles for resumable execution: the simulation
    #: pauses at every multiple and snapshots into the result cache, so a
    #: killed sweep restarts from the last boundary instead of cycle 0.
    #: Segmentation is an execution strategy, not part of the simulation's
    #: identity: the results are bit-identical either way.
    segment_cycles: Optional[int] = field(default=None, metadata=KEY_BLIND)
    #: Timing backend: "scalar" (the event-loop oracle) or "batch" (the
    #: fused kernel in :mod:`repro.sim.batch`, which transparently falls
    #: back to scalar for runs it does not model). Both backends produce
    #: bit-identical results (proven by the differential suite), so a
    #: result computed by either answers for both. Segmented jobs always
    #: run scalar (the kernel does not checkpoint).
    backend: str = field(default="scalar", metadata=KEY_BLIND)

    def __post_init__(self):
        if self.workload not in WORKLOADS:
            raise ValueError(f"unknown workload {self.workload!r}")
        if self.mapping not in MAPPINGS:
            raise ValueError(
                f"unknown mapping {self.mapping!r}; expected one of {MAPPINGS}"
            )
        if self.segment_cycles is not None and self.segment_cycles < 1:
            raise ValueError(
                f"segment_cycles must be >= 1, got {self.segment_cycles}"
            )
        if self.backend not in ("scalar", "batch"):
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                f"expected one of ('scalar', 'batch')"
            )

    def execute(self, key: str, context: RunContext) -> SimulationResult:
        """Simulate this job. Traces are regenerated from the seed (cheaper
        than pickling them, and identical by construction); observability
        travels as the picklable :class:`ObsConfig` and its deterministic
        outputs return on ``result.obs``. With a segment length and a
        cache directory to snapshot into, the run is checkpointed
        (:func:`_execute_segmented`); otherwise it runs straight through
        on ``backend``."""
        requests = (
            self.requests if self.requests is not None else context.requests
        )
        if self.segment_cycles is not None and context.cache_dir is not None:
            return _execute_segmented(self, requests, key, context)
        traces = make_rate_traces(
            WORKLOADS[self.workload], context.config, requests=requests,
            seed=self.seed,
        )
        obs = Observability(self.obs) if self.obs is not None else None
        return simulate(
            traces, self.setup, context.config, mapping=self.mapping,
            seed=self.seed, obs=obs, backend=self.backend,
        )

    @classmethod
    def encode_result(cls, value: SimulationResult) -> dict:
        return result_to_dict(value)

    @classmethod
    def decode_result(cls, raw: dict) -> SimulationResult:
        return result_from_dict(raw)

    @classmethod
    def summary(cls, payload: dict) -> str:
        stats = payload["stats"]
        banks = stats["banks"]
        return (
            f"cycles {stats['cycles']}, "
            f"mitigations {sum(b['mitigations'] for b in banks)}, "
            f"RFM commands {sum(b['rfm_commands'] for b in banks)}, "
            f"seed {payload['seed']}, mapping {payload['mapping']}"
        )


# ----------------------------------------------------------------------
# Result (de)serialization — all stats fields are integers, so a JSON
# round-trip reproduces the result bit-for-bit.
# ----------------------------------------------------------------------
#: Stats field names in declaration order. Every field is an int, so a
#: shallow per-field copy is exact and much cheaper than
#: :func:`dataclasses.asdict`'s recursive deep copy.
_BANK_FIELDS = tuple(f.name for f in dataclasses.fields(BankStats))
_CORE_FIELDS = tuple(f.name for f in dataclasses.fields(CoreStats))


def result_to_dict(result: SimulationResult) -> dict:
    """Plain-JSON form of a :class:`SimulationResult`."""
    stats = result.stats
    out = {
        "setup": dataclasses.asdict(result.setup),
        "mapping": result.mapping,
        "seed": result.seed,
        "stats": {
            "cycles": stats.cycles,
            "refresh_windows": stats.refresh_windows,
            "max_request_alerts": stats.max_request_alerts,
            "banks": [{name: getattr(b, name) for name in _BANK_FIELDS}
                      for b in stats.banks],
            "cores": [{name: getattr(c, name) for name in _CORE_FIELDS}
                      for c in stats.cores],
        },
    }
    if result.obs is not None:
        obs = dataclasses.asdict(result.obs)
        # The wall-clock profile is quarantined out of the cache entry: it
        # differs between hosts and runs (and would report the *original*
        # run's timing on a cache hit), while cache files must be
        # byte-identical for identical simulations.
        obs["profile"] = {}
        out["obs"] = obs
    return out


def result_from_dict(data: dict) -> SimulationResult:
    """Inverse of :func:`result_to_dict`."""
    raw = data["stats"]
    stats = SimStats(
        cycles=raw["cycles"],
        refresh_windows=raw["refresh_windows"],
        max_request_alerts=raw["max_request_alerts"],
        banks=[BankStats(**b) for b in raw["banks"]],
        cores=[CoreStats(**c) for c in raw["cores"]],
    )
    obs = data.get("obs")
    return SimulationResult(
        stats=stats,
        setup=MitigationSetup(**data["setup"]),
        mapping=data["mapping"],
        seed=data["seed"],
        obs=ObsResult(**obs) if obs is not None else None,
    )


#: Suffix of segment snapshots stored alongside cached results (matches
#: ``repro.ckpt.snapshot.SNAPSHOT_SUFFIX``; duplicated here so the cache
#: never needs to import the checkpoint layer just to enumerate files).
_SNAPSHOT_SUFFIX = ".ckpt.gz"

#: Lockfile serializing concurrent :meth:`ResultCache.prune` calls on one
#: shared cache directory (see :class:`repro.analysis.storage.DirectoryLock`).
PRUNE_LOCK_NAME = ".prune.lock"


def cache_size_limit_bytes() -> Optional[int]:
    """Cache size bound from ``REPRO_CACHE_MAX_MB`` (None = unbounded)."""
    raw = os.environ.get("REPRO_CACHE_MAX_MB")
    if raw is None or raw == "":
        return None
    try:
        max_mb = float(raw)
    except ValueError:
        raise ValueError(
            f"REPRO_CACHE_MAX_MB must be a number, got {raw!r}"
        ) from None
    if max_mb < 0:
        raise ValueError(f"REPRO_CACHE_MAX_MB must be >= 0, got {max_mb}")
    return int(max_mb * 1024 * 1024)


class ResultCache:
    """Directory of ``<key>.json`` files, one per completed simulation,
    plus ``<key>.seg-<boundary>.ckpt.gz`` segment snapshots for resumable
    jobs.

    Writes are atomic (tempfile + rename), so concurrent benchmark
    processes sharing one cache directory can never observe a torn entry;
    a corrupt or schema-mismatched file is treated as a miss.

    The cache grows without bound by default; set ``REPRO_CACHE_MAX_MB``
    (or call :meth:`prune`) to evict least-recently-used entries — results
    and snapshots alike — until the directory fits the budget.
    """

    def __init__(self, directory: str, schema_version: int = CACHE_SCHEMA_VERSION):
        self.directory = directory
        self.schema_version = schema_version
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.directory, f"{key}.json")

    # ------------------------------------------------------------------
    # Segment snapshots (resumable jobs)
    # ------------------------------------------------------------------
    def snapshot_path(self, key: str, boundary: int) -> str:
        """Where the segment snapshot closing ``boundary`` lives."""
        return os.path.join(
            self.directory, f"{key}.seg-{boundary:015d}{_SNAPSHOT_SUFFIX}"
        )

    def _snapshots(self) -> Iterator[Tuple[str, int]]:
        """``(key, boundary)`` of every segment snapshot on disk, from
        one directory listing."""
        try:
            names = os.listdir(self.directory)
        except OSError:
            return
        for name in names:
            if not name.endswith(_SNAPSHOT_SUFFIX):
                continue
            key, sep, raw = name[:-len(_SNAPSHOT_SUFFIX)].partition(".seg-")
            if not sep:
                continue
            try:
                yield key, int(raw)
            except ValueError:
                continue

    def snapshot_boundaries(self, key: str) -> List[int]:
        """Boundaries with an on-disk snapshot for ``key``, ascending."""
        return sorted(b for k, b in self._snapshots() if k == key)

    def snapshot_counts(self) -> Dict[str, int]:
        """How many segment snapshots each key has on disk."""
        counts: Dict[str, int] = {}
        for key, _ in self._snapshots():
            counts[key] = counts.get(key, 0) + 1
        return counts

    def drop_snapshots(self, key: str) -> int:
        """Delete every segment snapshot for ``key``; returns the count."""
        removed = 0
        for boundary in self.snapshot_boundaries(key):
            try:
                os.unlink(self.snapshot_path(key, boundary))
                removed += 1
            except OSError:
                pass
        return removed

    # ------------------------------------------------------------------
    # Size accounting and pruning
    # ------------------------------------------------------------------
    def _entries(self) -> List[Tuple[str, int, float]]:
        """Every cache file as ``(name, bytes, mtime)``."""
        entries = []
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        for name in names:
            if not (name.endswith(".json") or name.endswith(_SNAPSHOT_SUFFIX)):
                continue
            path = os.path.join(self.directory, name)
            try:
                stat = os.stat(path)
            except OSError:
                continue
            entries.append((name, stat.st_size, stat.st_mtime))
        return entries

    def stats(self) -> dict:
        """Occupancy summary: entry counts and bytes by kind."""
        results = snapshots = result_bytes = snapshot_bytes = 0
        for name, size, _ in self._entries():
            if name.endswith(".json"):
                results += 1
                result_bytes += size
            else:
                snapshots += 1
                snapshot_bytes += size
        return {
            "directory": self.directory,
            "results": results,
            "snapshots": snapshots,
            "result_bytes": result_bytes,
            "snapshot_bytes": snapshot_bytes,
            "total_bytes": result_bytes + snapshot_bytes,
        }

    def prune(self, max_bytes: int) -> dict:
        """Evict least-recently-used files until the cache fits
        ``max_bytes``; returns ``{"removed": n, "freed_bytes": b,
        "skipped": bool}``.

        Eviction order is file mtime (oldest first) across results and
        segment snapshots alike — a result that keeps hitting keeps its
        mtime fresh via :meth:`read`'s touch, so hot entries survive.

        Multi-client safety: concurrent pruners are serialized by an
        ``O_EXCL`` lockfile (a busy lock means another process is already
        pruning, so this call returns ``skipped=True`` and removes
        nothing), and every victim is re-``stat``-ed immediately before
        its unlink — an entry whose mtime advanced since the scan was
        hit-touched by a concurrent :meth:`read` and is spared. Together
        with :meth:`read`'s touch-*before*-read ordering this closes the
        race where a pruner deletes the entry another worker just hit.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        from repro.analysis.storage import DirectoryLock

        lock = DirectoryLock(os.path.join(self.directory, PRUNE_LOCK_NAME))
        if not lock.acquire():
            return {"removed": 0, "freed_bytes": 0, "skipped": True}
        try:
            return self._prune_locked(self._entries(), max_bytes)
        finally:
            lock.release()

    def _prune_locked(
        self, entries: List[Tuple[str, int, float]], max_bytes: int
    ) -> dict:
        """The eviction walk proper, already holding the prune lock.

        Split out so the regression tests can interleave a hit between
        the scan (``entries``) and the deletions deterministically.
        """
        total = sum(size for _, size, _ in entries)
        removed = 0
        freed = 0
        for name, size, scanned_mtime in sorted(entries, key=lambda e: e[2]):
            if total - freed <= max_bytes:
                break
            path = os.path.join(self.directory, name)
            try:
                if os.stat(path).st_mtime > scanned_mtime:
                    # Hit-touched since the scan: the entry is hot again
                    # and another worker may be mid-read; spare it.
                    continue
                os.unlink(path)
            except OSError:
                continue
            removed += 1
            freed += size
        return {"removed": removed, "freed_bytes": freed, "skipped": False}

    def prune_to_limit(self) -> Optional[dict]:
        """Apply the ``REPRO_CACHE_MAX_MB`` budget (None = no limit set)."""
        limit = cache_size_limit_bytes()
        if limit is None:
            return None
        return self.prune(limit)

    def _touch(self, key: str) -> None:
        """Refresh ``key``'s mtime *before* reading it (atomic hit-touch).

        The touch-then-read ordering is what makes prune-vs-get safe for
        concurrent workers: a pruner re-stats each victim before its
        unlink, so an entry touched here is spared even if the pruner's
        scan predates the hit. (Touching a file that is about to miss —
        corrupt, stale schema — is harmless: it just survives one more
        eviction round.)
        """
        try:
            os.utime(self._path(key))
        except OSError:
            pass

    def read(
        self, key: str, kind: Type[JobSpec]
    ) -> Optional[Tuple[Any, Any]]:
        """The one validated read of an entry of job class ``kind``:
        ``(section, value)``, the stored plain-JSON section and its
        decoded result, or None (a miss) if absent, corrupt, stale, or of
        another kind.

        Decoding is the validation: an entry counts as a hit only if
        ``kind.decode_result`` accepts its section. A hit refreshes the
        file's mtime, which is what :meth:`prune` orders eviction by —
        entries that keep answering stay resident.
        """
        self._touch(key)
        try:
            with open(self._path(key)) as f:
                data = json.load(f)
            if (not isinstance(data, dict)
                    or data.get("schema") != self.schema_version):
                raise ValueError("schema mismatch")
            section = data[kind.section]
            value = kind.decode_result(section)
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return section, value

    def load(self, key: str, kind: Type[JobSpec]) -> Any:
        """Look up one stored result of job class ``kind``, decoded; None
        on a miss (see :meth:`read`)."""
        entry = self.read(key, kind)
        return entry[1] if entry is not None else None

    def load_payload(self, key: str, kind: Type[JobSpec]) -> Any:
        """The validated stored section of one result of job class
        ``kind``, as written (``kind.encode_result`` of the decoded
        value); None on a miss (see :meth:`read`). What the sweep daemon
        serves: no decode/encode round trip."""
        entry = self.read(key, kind)
        return entry[0] if entry is not None else None

    def store(self, key: str, kind: Type[JobSpec], value: Any) -> None:
        """Store one result of job class ``kind`` under ``key`` (atomic
        rename, crash-safe)."""
        os.makedirs(self.directory, exist_ok=True)
        text = json.dumps(
            {"schema": self.schema_version,
             kind.section: kind.encode_result(value)},
            separators=(",", ":"),
        )
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                f.write(text)
            os.replace(tmp, self._path(key))
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def get(self, key: str) -> Optional[SimulationResult]:
        """Look up one simulation result (see :meth:`load`)."""
        return self.load(key, Job)

    def put(self, key: str, result: SimulationResult) -> None:
        """Store one simulation result (see :meth:`store`)."""
        self.store(key, Job, result)

    def get_security(self, key: str) -> Optional[List[dict]]:
        """Look up one security batch (list of per-seed stat dicts)."""
        return self.load(key, SecurityJob)

    def put_security(self, key: str, results: List[dict]) -> None:
        """Store one security batch under ``key``."""
        self.store(key, SecurityJob, results)

    def get_campaign(self, key: str) -> Optional[dict]:
        """Look up one campaign cell record (the bisection's full result)."""
        return self.load(key, CampaignJob)

    def put_campaign(self, key: str, result: dict) -> None:
        """Store one campaign cell record under ``key``."""
        self.store(key, CampaignJob, result)

    def __len__(self) -> int:
        try:
            return sum(
                1 for n in os.listdir(self.directory) if n.endswith(".json")
            )
        except OSError:
            return 0

    def clear(self) -> int:
        """Delete every entry (results and segment snapshots); returns how
        many files were removed."""
        removed = 0
        try:
            names = os.listdir(self.directory)
        except OSError:
            return 0
        for name in names:
            if name.endswith(".json") or name.endswith(_SNAPSHOT_SUFFIX):
                try:
                    os.unlink(os.path.join(self.directory, name))
                    removed += 1
                except OSError:
                    pass
        return removed


def latest_segment_snapshot(cache: ResultCache, key: str):
    """Newest loadable segment snapshot for ``key`` (corrupt ones skipped).

    This is the resume-from-segment API: segmented workers call it on
    startup to skip completed work, and the sweep-service daemon's retry
    of a dead worker resumes through it from the newest valid restore
    point rather than re-running the shard from cycle 0.
    """
    from repro.ckpt import SnapshotError, load_snapshot

    for boundary in reversed(cache.snapshot_boundaries(key)):
        try:
            return load_snapshot(cache.snapshot_path(key, boundary))
        except (FileNotFoundError, SnapshotError):
            continue
    return None


def _execute_segmented(
    job: Job, requests: int, key: str, context: RunContext
) -> SimulationResult:
    """Run one job in checkpointed segments, resuming if a snapshot exists.

    Each boundary snapshot lands in the result cache next to the job's
    result entry (content-addressed by the job key), so a killed sweep
    re-invoked with ``resume=True`` restarts from the last completed
    boundary. Results are bit-identical to a straight run — segmentation
    changes when the simulation pauses, never what it computes.
    """
    # Imported lazily: the checkpoint layer loads the whole simulator and
    # straight (non-segmented) runs must not pay for it.
    from repro.ckpt import capture, restore, save_snapshot
    from repro.cpu.system import SimulatedSystem

    cache = ResultCache(context.cache_dir, context.schema_version)

    system = None
    resumed_from = None
    if context.resume:
        snapshot = latest_segment_snapshot(cache, key)
        if snapshot is not None:
            system = restore(snapshot)
            resumed_from = snapshot.boundary
    if system is None:
        traces = make_rate_traces(
            WORKLOADS[job.workload], context.config, requests=requests,
            seed=job.seed,
        )
        obs = Observability(job.obs) if job.obs is not None else None
        system = SimulatedSystem(
            traces, job.setup, context.config, mapping=job.mapping,
            seed=job.seed, obs=obs,
        )
        system.start()

    captured = 0

    def on_checkpoint(sys_, boundary: int) -> None:
        nonlocal captured
        os.makedirs(cache.directory, exist_ok=True)
        save_snapshot(
            capture(sys_, boundary=boundary),
            cache.snapshot_path(key, boundary),
        )
        captured += 1

    result = system.run(
        checkpoint_every=job.segment_cycles, on_checkpoint=on_checkpoint
    )
    result.ckpt = {"captured": captured, "resumed_from": resumed_from}
    return result


# ----------------------------------------------------------------------
# Security batch jobs (vectorized Monte-Carlo attack replays)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SecurityJob(JobSpec):
    """One batched Monte-Carlo attack replay: S seeds x one pattern.

    Mirrors :class:`Job` for the security kernels
    (:func:`repro.security.kernels.run_attack_batch`): describes *what* to
    replay, while the runner decides parallelism and caching.  ``backend``
    is deliberately **excluded** from the cache key — the scalar and numpy
    engines produce exactly equal results (proven by the differential
    suite), so a batch computed by either backend answers for both.

    Cached entries keep the per-seed summary statistics but drop the
    per-row pressure maps (large, and derivable by re-running); results
    returned through the runner therefore always have ``pressure == {}``.
    """

    kind = "security"
    section = "security"
    result_type = list
    profile_counters = ("security_jobs", None, "security_executed")

    attack: str = "double_sided"
    rows: Tuple[int, ...] = (70_000,)
    acts: int = 64_000
    window: int = 4
    tracker: str = "mint"
    policy: str = "fractal"
    seeds: int = 50
    rows_per_bank: int = 128 * 1024
    blast_radius: int = 2
    refresh_interval_acts: Optional[int] = None
    #: Key for a Rubix-style static row permutation in attack space
    #: (None = identity mapping).
    rubix_key: Optional[int] = None
    #: Corpus scenario replacing the ``attack``/``rows`` generator: the
    #: pattern is compiled from the named payload
    #: (:func:`repro.payload.compile_scenario` under the ``acts`` budget),
    #: and the scenario's name, manifest version, and parameters all enter
    #: the cache key — a corpus version bump re-executes instead of
    #: answering from entries computed against the old payload. Scenario
    #: fields are keyed only when a scenario is set, so every pre-corpus
    #: cache entry stays addressable under its original hash.
    scenario: Optional[str] = field(
        default=None, metadata=keyed_when("scenario")
    )
    #: Manifest version of ``scenario``; auto-filled at construction. Pass
    #: it explicitly only to assert an expected corpus version.
    scenario_version: Optional[str] = field(
        default=None, metadata=keyed_when("scenario")
    )
    #: Placeholder overrides, normalized to sorted ``(name, value)`` pairs
    #: (hashable and deterministic key material). A plain dict is accepted
    #: and normalized.
    scenario_params: Tuple[Tuple[str, int], ...] = field(
        default=(), metadata=keyed_when("scenario")
    )
    backend: str = field(default="numpy", metadata=KEY_BLIND)

    def __post_init__(self):
        check_attack_fields(self)
        if not self.rows:
            raise ValueError("rows must name at least one row")
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")

    def execute(self, key: str, context: RunContext) -> List[dict]:
        """Replay this batch; returns the per-seed summary dicts.

        The pattern is regenerated inside the worker from the job fields
        (same convention as simulation traces: cheaper than pickling,
        identical by construction).
        """
        from repro.mapping.kcipher import KCipher
        from repro.security.kernels import (
            build_pattern,
            policy_spec_from_string,
            run_attack_batch,
            tracker_spec_from_strings,
        )

        if self.scenario is not None:
            from repro.payload import compile_scenario

            pattern = list(
                compile_scenario(
                    self.scenario, params=dict(self.scenario_params),
                    acts=self.acts,
                ).rows
            )
        else:
            pattern = build_pattern(self.attack, list(self.rows), self.acts)
        cipher = (
            KCipher(self.rows_per_bank, self.rubix_key)
            if self.rubix_key is not None
            else None
        )
        results = run_attack_batch(
            [pattern],
            tracker_spec_from_strings(self.tracker, self.window),
            policy_spec_from_string(self.policy),
            window=self.window,
            seeds=self.seeds,
            rows_per_bank=self.rows_per_bank,
            blast_radius=self.blast_radius,
            refresh_interval_acts=self.refresh_interval_acts,
            row_cipher=cipher,
            backend=self.backend,
            collect_pressure=False,
        )[0]
        return _security_results_to_dicts(results)

    @classmethod
    def summary(cls, payload: List[dict]) -> str:
        worst = max(r["max_pressure"] for r in payload)
        return f"{len(payload)} seed(s), worst pressure {worst:.1f}"


def _security_results_to_dicts(results) -> List[dict]:
    return [
        {
            "max_pressure": r.max_pressure,
            "max_pressure_row": r.max_pressure_row,
            "activations": r.activations,
            "mitigations": r.mitigations,
            "victim_refreshes": r.victim_refreshes,
        }
        for r in results
    ]


def _security_results_from_dicts(raw: List[dict]):
    from repro.security.montecarlo import AttackResult

    return [AttackResult(**entry) for entry in raw]


#: A setup row for :meth:`ExperimentRunner.slowdown_matrix`:
#: ``(label, setup, mapping)`` or ``(label, setup, mapping, baseline_mapping)``.
SetupSpec = Union[
    Tuple[str, MitigationSetup, str],
    Tuple[str, MitigationSetup, str, str],
]


class ExperimentRunner:
    """Batch-run simulations with caching and optional parallelism.

    ``jobs=None`` re-reads ``REPRO_JOBS`` on every batch, so tests and
    benchmark drivers can flip the env var without rebuilding the runner.
    """

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        jobs: Optional[int] = None,
        cache_dir: Optional[str] = None,
        use_cache: Optional[bool] = None,
        schema_version: int = CACHE_SCHEMA_VERSION,
        requests: Optional[int] = None,
    ):
        self.config = config if config is not None else SystemConfig()
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1 (1 = serial), got {jobs}")
        self._jobs = jobs
        self._requests = requests
        self.schema_version = schema_version
        if use_cache is None:
            use_cache = cache_enabled()
        self.cache: Optional[ResultCache] = (
            ResultCache(cache_dir or default_cache_dir(), schema_version)
            if use_cache
            else None
        )
        #: Wall-clock profile of every batch this runner served: phase
        #: timings ("plan" = dedup + cache lookup, "execute" = simulation
        #: fan-out) plus cumulative job/cache counts. Informational only —
        #: see :meth:`profile_snapshot` for the exported form.
        self.profile = PhaseProfiler()

    # ------------------------------------------------------------------
    @property
    def jobs(self) -> int:
        return self._jobs if self._jobs is not None else default_jobs()

    @property
    def requests(self) -> int:
        return (
            self._requests if self._requests is not None else default_requests()
        )

    @property
    def cache_hits(self) -> int:
        return self.cache.hits if self.cache is not None else 0

    @property
    def cache_misses(self) -> int:
        return self.cache.misses if self.cache is not None else 0

    @property
    def simulations_run(self) -> int:
        """Simulations actually executed (not answered from cache)."""
        return int(self.profile.counts.get("executed", 0))

    def context(self, resume: bool = False) -> RunContext:
        """The run context this runner keys and executes jobs under."""
        return RunContext(
            config=self.config,
            requests=self.requests,
            schema_version=self.schema_version,
            # Segment snapshots and campaign frontiers persist into the
            # result cache; without one the jobs run straight through.
            cache_dir=self.cache.directory if self.cache is not None else None,
            resume=resume,
        )

    def key_for(self, job: JobSpec) -> str:
        """This runner's cache key for ``job`` (resolving default requests)."""
        return job.key(self.context())

    #: Kind-specific spellings of :meth:`key_for`.
    security_key_for = key_for
    campaign_key_for = key_for

    def profile_snapshot(self) -> dict:
        """Wall-clock profile of this runner's batches, with provenance
        (schema version, worker count, config hash) so exported numbers
        can always be traced back to what produced them."""
        config_json = json.dumps(
            dataclasses.asdict(self.config), sort_keys=True,
            separators=(",", ":"),
        )
        return self.profile.snapshot(provenance={
            "cache_schema_version": self.schema_version,
            "jobs": self.jobs,
            "requests": self.requests,
            "config_sha256": hashlib.sha256(
                config_json.encode("utf-8")
            ).hexdigest(),
            "cache_enabled": self.cache is not None,
        })

    # ------------------------------------------------------------------
    def run_jobs(
        self,
        jobs: Iterable[JobSpec],
        resume: bool = False,
        kind: Optional[Type[JobSpec]] = None,
    ) -> List[Any]:
        """Run a batch of jobs of one kind; returns results in job order.

        Duplicate jobs (every slowdown shares its workload's baseline, and
        the two backends of one replay share a key) execute once; cache
        hits never reach the pool. Misses fan out across ``self.jobs``
        worker processes, one job per task (a security batch is already
        vectorized over its seeds, and a campaign cell's probes are
        sequential by construction, so the job is the parallel grain).
        ``kind`` defaults to the first job's class; it names the profile
        counters, so pass it for a batch that may be empty.

        ``resume=True`` lets segmented simulations restart from their
        newest on-disk segment snapshot instead of cycle 0 — the recovery
        path after a killed sweep (campaign cells always resume from a
        surviving seed-pool frontier). Jobs whose *result* is already
        cached are unaffected (the cache answers first).
        """
        jobs = list(jobs)
        if kind is None:
            if not jobs:
                return []
            kind = type(jobs[0])
        context = self.context(resume)
        results: List[Any] = [None] * len(jobs)

        with self.profile.phase("plan"):
            # Deduplicate by cache key, then answer what the cache can.
            order: List[str] = []  # unique keys, first-seen order
            indices: Dict[str, List[int]] = {}
            by_key: Dict[str, JobSpec] = {}
            for i, job in enumerate(jobs):
                if not isinstance(job, kind):
                    raise TypeError(
                        f"a {kind.__name__} batch cannot hold a "
                        f"{type(job).__name__}"
                    )
                key = job.key(context)
                if key not in indices:
                    order.append(key)
                    indices[key] = []
                    by_key[key] = job
                indices[key].append(i)

            pending: List[str] = []
            for key in order:
                cached = (
                    self.cache.load(key, kind)
                    if self.cache is not None else None
                )
                if cached is not None:
                    for i in indices[key]:
                        results[i] = cached
                else:
                    pending.append(key)

        with self.profile.phase("execute"):
            executed = self._fan_out(
                [(by_key[key], key, context) for key in pending]
            )
        for key, value in zip(pending, executed):
            if self.cache is not None:
                self.cache.store(key, kind, value)
            for i in indices[key]:
                results[i] = value

        submitted, unique, done = kind.profile_counters
        self.profile.count(submitted, len(jobs))
        if unique is not None:
            self.profile.count(unique, len(order))
        self.profile.count(done, len(pending))
        self.profile.set_count("cache_hits", self.cache_hits)
        self.profile.set_count("cache_misses", self.cache_misses)
        ckpts = [
            r.ckpt for r in executed if getattr(r, "ckpt", None) is not None
        ]
        captures = sum(c["captured"] for c in ckpts)
        resumes = sum(1 for c in ckpts if c["resumed_from"] is not None)
        if captures:
            self.profile.count("ckpt_captures", captures)
        if resumes:
            self.profile.count("ckpt_resumes", resumes)
        if self.cache is not None:
            self.cache.prune_to_limit()

        return results

    def _fan_out(self, payloads: List[tuple]) -> List[Any]:
        if not payloads:
            return []
        workers = min(self.jobs, len(payloads))
        if workers <= 1:
            return [run_job(p) for p in payloads]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run_job, payloads))

    def run(self, job: Job, resume: bool = False) -> SimulationResult:
        """Run (or fetch) a single simulation."""
        return self.run_many([job], resume=resume)[0]

    def run_many(
        self, jobs: Sequence[Job], resume: bool = False
    ) -> List[SimulationResult]:
        """Run a batch of simulations (see :meth:`run_jobs`)."""
        return self.run_jobs(jobs, resume, Job)

    def run_security(self, job: SecurityJob) -> List["AttackResult"]:
        """Run (or fetch) one security batch: per-seed attack results."""
        return self.run_security_many([job])[0]

    def run_security_many(
        self, jobs: Sequence[SecurityJob]
    ) -> List[List["AttackResult"]]:
        """Run security batches (see :meth:`run_jobs`); returns per-job
        lists of per-seed results with ``pressure == {}`` — use
        :func:`repro.security.kernels.run_attack_batch` directly when the
        per-row pressure map matters."""
        return [
            _security_results_from_dicts(raw)
            for raw in self.run_jobs(jobs, kind=SecurityJob)
        ]

    def run_campaign(self, job: CampaignJob) -> dict:
        """Run (or fetch) one campaign cell's threshold search."""
        return self.run_campaign_many([job])[0]

    def run_campaign_many(self, jobs: Sequence[CampaignJob]) -> List[dict]:
        """Run campaign cells (see :meth:`run_jobs`); returns per-cell
        result records. Cells given a cache persist their seed-pool
        frontier there mid-search, making a killed campaign resumable
        from the last pool extension."""
        return self.run_jobs(jobs, kind=CampaignJob)

    # ------------------------------------------------------------------
    def slowdown_matrix(
        self,
        workloads: Iterable[str],
        setups: Iterable[SetupSpec],
        requests: Optional[int] = None,
        seed: int = DEFAULT_SEED,
        backend: str = "scalar",
    ) -> Dict[str, Dict[str, float]]:
        """Slowdown of every (setup, workload) pair vs its baseline.

        Each spec is ``(label, setup, mapping[, baseline_mapping])``; the
        baseline is an unmitigated run of the same traces under
        ``baseline_mapping`` (default "zen", the paper's normalization).
        Returns ``{label: {workload: slowdown}}``. All runs and baselines
        are submitted as one batch, so they share the pool and the cache;
        ``backend="batch"`` runs kernel-eligible cells on the fused timing
        kernel (results are bit-identical either way).
        """
        names = list(workloads)
        specs = []
        for spec in setups:
            if len(spec) == 3:
                label, setup, mapping = spec  # type: ignore[misc]
                baseline_mapping = "zen"
            else:
                label, setup, mapping, baseline_mapping = spec  # type: ignore[misc]
            specs.append((label, setup, mapping, baseline_mapping))

        batch: List[Job] = []
        for name in names:
            for _, setup, mapping, baseline_mapping in specs:
                batch.append(
                    Job(name, setup, mapping, requests, seed, backend=backend)
                )
                batch.append(
                    Job(name, MitigationSetup("none"), baseline_mapping,
                        requests, seed, backend=backend)
                )
        flat = self.run_many(batch)

        table: Dict[str, Dict[str, float]] = {
            label: {} for label, _, _, _ in specs
        }
        cursor = 0
        for name in names:
            for label, _, _, _ in specs:
                run, base = flat[cursor], flat[cursor + 1]
                cursor += 2
                table[label][name] = run.slowdown_vs(base)
        return table
