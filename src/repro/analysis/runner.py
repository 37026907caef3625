"""Parallel experiment runner with a persistent on-disk result cache.

Every paper figure is an average over many independent ``(workload, setup,
mapping, seed)`` simulations. This module gives the benchmark suite, the
examples, and the CLI one shared way to run those sweeps:

* **Parallel fan-out** — :meth:`ExperimentRunner.run_many` distributes
  independent simulations across a :class:`~concurrent.futures.\
ProcessPoolExecutor`. The worker count comes from ``REPRO_JOBS`` (default
  ``os.cpu_count()``); ``REPRO_JOBS=1`` keeps everything in-process, which
  is the right mode for debugging and for pdb/profiling sessions.
* **Persistent caching** — results are stored as JSON under
  ``benchmarks/results/.cache/`` (override with ``REPRO_CACHE_DIR``,
  disable with ``REPRO_CACHE=0``), keyed by a stable SHA-256 hash of the
  workload, :class:`~repro.mc.setup.MitigationSetup`,
  :class:`~repro.sim.config.SystemConfig`, mapping, request count, seed,
  and a schema version. Bumping :data:`CACHE_SCHEMA_VERSION` invalidates
  every stale entry at once.

Determinism: a simulation is a pure function of its job description — each
worker builds its own :class:`~repro.sim.engine.Engine` and
:class:`~repro.sim.rng.RngStreams` from the job seed — so parallel results
are bit-identical to serial results, and ``run_many`` preserves job order.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from repro.cpu.system import MAPPINGS, SimulationResult, simulate
from repro.mc.setup import MitigationSetup
from repro.obs import ObsConfig, ObsResult, Observability, PhaseProfiler
from repro.security.campaign import CampaignJob, run_campaign_cell
from repro.sim.config import SystemConfig
from repro.sim.stats import BankStats, CoreStats, SimStats
from repro.workloads.catalog import WORKLOADS
from repro.workloads.rate import make_rate_traces

#: Bump when the simulator's observable behaviour changes (new stats
#: fields, timing fixes, ...): every existing cache entry self-invalidates
#: because the version participates in the cache key.
#:
#: v2: the observed engine drain samples heap depth on a persistent
#: lifetime event ordinal (so checkpoint-segmented drains sample exactly
#: like straight ones), which moved the sampling points of observed runs.
CACHE_SCHEMA_VERSION = 2

#: Schema version of the *job wire format* — the plain-JSON form a
#: :class:`Job` / :class:`SecurityJob` takes when it travels out of
#: process (to the ``repro.svc`` sweep daemon, or any other scheduler).
#: Distinct from :data:`CACHE_SCHEMA_VERSION` on purpose: the cache
#: schema names result *artifacts*, the wire schema names job
#: *descriptions*. Bump whenever a field changes meaning in a way an old
#: daemon would silently misread.
JOB_WIRE_SCHEMA_VERSION = 1

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
class Job:
    """One independent simulation: what to run, not how to run it.

    ``obs`` opts the run into observability (metrics and/or tracing); the
    collected outputs come back on ``result.obs`` even when the simulation
    executed in a worker process, and participate in the cache key (an
    observed result is a different artifact than a bare one).
    """

    workload: str
    setup: MitigationSetup = MitigationSetup("none")
    mapping: str = "zen"
    requests: Optional[int] = None  # None -> the runner's default slice
    seed: int = DEFAULT_SEED
    obs: Optional[ObsConfig] = None
    #: Segment length in cycles for resumable execution: the simulation
    #: pauses at every multiple and snapshots into the result cache, so a
    #: killed sweep restarts from the last boundary instead of cycle 0.
    #: Excluded from the cache key on purpose — segmentation is an
    #: execution strategy, not part of the simulation's identity, and the
    #: results are bit-identical either way.
    segment_cycles: Optional[int] = None  # repro: key-blind[segment_cycles]
    #: Timing backend: "scalar" (the event-loop oracle) or "batch" (the
    #: fused kernel in :mod:`repro.sim.batch`, which transparently falls
    #: back to scalar for runs it does not model). Like ``segment_cycles``
    #: — and like :attr:`SecurityJob.backend` — this is an execution
    #: strategy, not part of the simulation's identity, so it is excluded
    #: from the cache key: both backends produce bit-identical results
    #: (proven by the differential suite), and a result computed by either
    #: answers for both. Segmented jobs always run scalar (the kernel does
    #: not checkpoint).
    backend: str = "scalar"  # repro: key-blind[backend]

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


# ----------------------------------------------------------------------
# Result (de)serialization — all stats fields are integers, so a JSON
# round-trip reproduces the result bit-for-bit.
# ----------------------------------------------------------------------
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
            "banks": [dataclasses.asdict(b) for b in stats.banks],
            "cores": [dataclasses.asdict(c) for c in stats.cores],
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


# ----------------------------------------------------------------------
# Job wire format — jobs as explicit, versioned JSON payloads.
#
# The sweep-service daemon (``repro.svc``) receives job descriptions from
# arbitrary clients over a socket; those payloads must be self-describing
# (``kind`` + ``schema``) and must round-trip through JSON losslessly, so
# a daemon-executed job computes the *same cache key* as an in-process
# one. The differential suite in tests/test_svc_service.py rests on that.
# ----------------------------------------------------------------------
def _check_wire(data: dict, kind: str) -> None:
    if not isinstance(data, dict):
        raise ValueError(f"job wire payload must be an object, got {type(data).__name__}")
    if data.get("kind") != kind:
        raise ValueError(f"expected a {kind!r} job payload, got kind={data.get('kind')!r}")
    schema = data.get("schema")
    if schema != JOB_WIRE_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported job wire schema {schema!r} "
            f"(this build speaks {JOB_WIRE_SCHEMA_VERSION})"
        )


def job_to_wire(job: Job) -> dict:
    """Versioned plain-JSON form of a simulation :class:`Job`."""
    return {
        "kind": "sim",
        "schema": JOB_WIRE_SCHEMA_VERSION,
        "workload": job.workload,
        "setup": dataclasses.asdict(job.setup),
        "mapping": job.mapping,
        "requests": job.requests,
        "seed": job.seed,
        "obs": dataclasses.asdict(job.obs) if job.obs is not None else None,
        "segment_cycles": job.segment_cycles,
        "backend": job.backend,
    }


def job_from_wire(data: dict) -> Job:
    """Inverse of :func:`job_to_wire`; validates kind and schema version."""
    _check_wire(data, "sim")
    obs = data.get("obs")
    return Job(
        workload=data["workload"],
        setup=MitigationSetup(**data["setup"]),
        mapping=data["mapping"],
        requests=data.get("requests"),
        seed=data.get("seed", DEFAULT_SEED),
        obs=ObsConfig(**obs) if obs is not None else None,
        segment_cycles=data.get("segment_cycles"),
        backend=data.get("backend", "scalar"),
    )


def security_job_to_wire(job: "SecurityJob") -> dict:
    """Versioned plain-JSON form of a :class:`SecurityJob`."""
    fields = dataclasses.asdict(job)
    fields["rows"] = list(job.rows)
    fields["scenario_params"] = [list(p) for p in job.scenario_params]
    fields.update(kind="security", schema=JOB_WIRE_SCHEMA_VERSION)
    return fields


def security_job_from_wire(data: dict) -> "SecurityJob":
    """Inverse of :func:`security_job_to_wire`."""
    _check_wire(data, "security")
    fields = {
        k: v for k, v in data.items() if k not in ("kind", "schema")
    }
    unknown = set(fields) - {f.name for f in dataclasses.fields(SecurityJob)}
    if unknown:
        raise ValueError(f"unknown SecurityJob wire fields: {sorted(unknown)}")
    fields["rows"] = tuple(fields.get("rows", ()))
    fields["scenario_params"] = tuple(
        (str(name), int(value))
        for name, value in fields.get("scenario_params", ())
    )
    return SecurityJob(**fields)


def campaign_job_to_wire(job: "CampaignJob") -> dict:
    """Versioned plain-JSON form of a threshold-campaign cell job."""
    fields = dataclasses.asdict(job)
    fields["rows"] = list(job.rows)
    fields["scenario_params"] = [list(p) for p in job.scenario_params]
    fields.update(kind="campaign", schema=JOB_WIRE_SCHEMA_VERSION)
    return fields


def campaign_job_from_wire(data: dict) -> "CampaignJob":
    """Inverse of :func:`campaign_job_to_wire`."""
    _check_wire(data, "campaign")
    fields = {
        k: v for k, v in data.items() if k not in ("kind", "schema")
    }
    unknown = set(fields) - {f.name for f in dataclasses.fields(CampaignJob)}
    if unknown:
        raise ValueError(f"unknown CampaignJob wire fields: {sorted(unknown)}")
    fields["rows"] = tuple(fields.get("rows", ()))
    fields["scenario_params"] = tuple(
        (str(name), int(value))
        for name, value in fields.get("scenario_params", ())
    )
    return CampaignJob(**fields)


def any_job_to_wire(job: Union[Job, "SecurityJob", "CampaignJob"]) -> dict:
    """Wire form of any job flavour (dispatch on the dataclass)."""
    if isinstance(job, Job):
        return job_to_wire(job)
    if isinstance(job, SecurityJob):
        return security_job_to_wire(job)
    if isinstance(job, CampaignJob):
        return campaign_job_to_wire(job)
    raise TypeError(f"not a runner job: {type(job).__name__}")


def any_job_from_wire(data: dict) -> Union[Job, "SecurityJob", "CampaignJob"]:
    """Decode any job flavour (dispatch on the ``kind`` field)."""
    kind = data.get("kind") if isinstance(data, dict) else None
    if kind == "sim":
        return job_from_wire(data)
    if kind == "security":
        return security_job_from_wire(data)
    if kind == "campaign":
        return campaign_job_from_wire(data)
    raise ValueError(f"unknown job wire kind {kind!r}")


def job_key(
    job: Job,
    config: SystemConfig,
    requests: int,
    schema_version: int = CACHE_SCHEMA_VERSION,
) -> str:
    """Stable content hash identifying one simulation's full input."""
    payload = {
        "schema": schema_version,
        "workload": job.workload,
        "setup": dataclasses.asdict(job.setup),
        "config": dataclasses.asdict(config),
        "mapping": job.mapping,
        "requests": requests,
        "seed": job.seed,
    }
    if job.obs is not None:
        # Only observed jobs carry the extra key, so every pre-observability
        # cache entry stays addressable under its original hash.
        payload["obs"] = dataclasses.asdict(job.obs)
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


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

    def snapshot_boundaries(self, key: str) -> List[int]:
        """Boundaries with an on-disk snapshot for ``key``, ascending."""
        prefix = f"{key}.seg-"
        boundaries = []
        try:
            names = os.listdir(self.directory)
        except OSError:
            return []
        for name in names:
            if name.startswith(prefix) and name.endswith(_SNAPSHOT_SUFFIX):
                raw = name[len(prefix):-len(_SNAPSHOT_SUFFIX)]
                try:
                    boundaries.append(int(raw))
                except ValueError:
                    continue
        return sorted(boundaries)

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
        mtime fresh via :meth:`get`'s touch, so hot entries survive.

        Multi-client safety: concurrent pruners are serialized by an
        ``O_EXCL`` lockfile (a busy lock means another process is already
        pruning, so this call returns ``skipped=True`` and removes
        nothing), and every victim is re-``stat``-ed immediately before
        its unlink — an entry whose mtime advanced since the scan was
        hit-touched by a concurrent :meth:`get` and is spared. Together
        with :meth:`get`'s touch-*before*-read ordering this closes the
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

    def get(self, key: str) -> Optional[SimulationResult]:
        """Look up one result; None (a miss) if absent, corrupt, or stale.

        A hit refreshes the file's mtime, which is what :meth:`prune`
        orders eviction by — entries that keep answering stay resident.
        """
        self._touch(key)
        try:
            with open(self._path(key)) as f:
                data = json.load(f)
            if data.get("schema") != self.schema_version:
                raise ValueError("schema mismatch")
            result = result_from_dict(data["result"])
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: SimulationResult) -> None:
        """Store one result under ``key`` (atomic rename, crash-safe)."""
        os.makedirs(self.directory, exist_ok=True)
        payload = {"schema": self.schema_version, "result": result_to_dict(result)}
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                json.dump(payload, f, separators=(",", ":"))
            os.replace(tmp, self._path(key))
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def get_campaign(self, key: str) -> Optional[dict]:
        """Look up one campaign cell record (the bisection's full result)."""
        self._touch(key)
        try:
            with open(self._path(key)) as f:
                data = json.load(f)
            if data.get("schema") != self.schema_version:
                raise ValueError("schema mismatch")
            raw = data["campaign"]
            if not isinstance(raw, dict):
                raise ValueError("malformed campaign entry")
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return raw

    def put_campaign(self, key: str, result: dict) -> None:
        """Store one campaign cell record under ``key`` (atomic)."""
        os.makedirs(self.directory, exist_ok=True)
        payload = {"schema": self.schema_version, "campaign": result}
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                json.dump(payload, f, separators=(",", ":"))
            os.replace(tmp, self._path(key))
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

    def get_security(self, key: str) -> Optional[List[dict]]:
        """Look up one security batch (list of per-seed stat dicts)."""
        self._touch(key)
        try:
            with open(self._path(key)) as f:
                data = json.load(f)
            if data.get("schema") != self.schema_version:
                raise ValueError("schema mismatch")
            raw = data["security"]
            if not isinstance(raw, list):
                raise ValueError("malformed security entry")
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return raw

    def put_security(self, key: str, results: List[dict]) -> None:
        """Store one security batch under ``key`` (atomic, crash-safe)."""
        os.makedirs(self.directory, exist_ok=True)
        payload = {"schema": self.schema_version, "security": results}
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as f:
                json.dump(payload, f, separators=(",", ":"))
            os.replace(tmp, self._path(key))
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise

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


# Worker entry point: must be a module-level function so the process pool
# can pickle it. The payload carries everything a simulation needs; traces
# are regenerated inside the worker from the seed (cheaper than pickling
# them, and identical by construction). Observability travels as the
# (picklable) ObsConfig; the live Observability object is built in the
# worker and its deterministic outputs return on ``result.obs``. The
# ``ckpt`` element is a segmentation spec (or None for a straight run);
# ``backend`` picks the timing backend for straight runs (segmented runs
# are always scalar — the fused kernel does not checkpoint).
def _execute(
    payload: Tuple[
        str, MitigationSetup, str, int, int, SystemConfig, Optional[ObsConfig],
        Optional[dict], str,
    ]
):
    (workload, setup, mapping, requests, seed, config, obs_config, ckpt,
     backend) = payload
    if ckpt is not None:
        return _execute_segmented(payload)
    traces = make_rate_traces(
        WORKLOADS[workload], config, requests=requests, seed=seed
    )
    obs = Observability(obs_config) if obs_config is not None else None
    return simulate(
        traces, setup, config, mapping=mapping, seed=seed, obs=obs,
        backend=backend,
    )


def latest_segment_snapshot(cache: ResultCache, key: str):
    """Newest loadable segment snapshot for ``key`` (corrupt ones skipped).

    This is the resume-from-segment API: segmented workers call it on
    startup to skip completed work, and the sweep-service daemon calls it
    after a worker dies to report (and resume from) the newest valid
    restore point rather than re-running the shard from cycle 0.
    """
    from repro.ckpt import SnapshotError, load_snapshot

    for boundary in reversed(cache.snapshot_boundaries(key)):
        try:
            return load_snapshot(cache.snapshot_path(key, boundary))
        except (FileNotFoundError, SnapshotError):
            continue
    return None


#: Backwards-compatible private alias (pre-service name).
_latest_segment_snapshot = latest_segment_snapshot


def build_sim_payload(
    job: Job,
    config: SystemConfig,
    requests: int,
    key: str,
    cache_dir: Optional[str] = None,
    schema_version: int = CACHE_SCHEMA_VERSION,
    resume: bool = False,
) -> tuple:
    """The picklable worker payload for one simulation job.

    Shared by :meth:`ExperimentRunner._payload` and the sweep-service
    worker spawner, so a daemon-executed job is fed to :func:`_execute`
    exactly as an in-process one would be. ``cache_dir=None`` disables
    segment snapshots (the job degrades to a straight run).
    """
    resolved = job.requests if job.requests is not None else requests
    ckpt = None
    if job.segment_cycles is not None and cache_dir is not None:
        ckpt = {
            "segment_cycles": job.segment_cycles,
            "resume": resume,
            "cache_dir": cache_dir,
            "key": key,
            "schema": schema_version,
        }
    return (
        job.workload,
        job.setup,
        job.mapping,
        resolved,
        job.seed,
        config,
        job.obs,
        ckpt,
        job.backend,
    )


def _execute_segmented(payload: tuple) -> SimulationResult:
    """Run one job in checkpointed segments, resuming if a snapshot exists.

    Each boundary snapshot lands in the result cache next to the job's
    result entry (content-addressed by the job key), so a killed sweep
    re-invoked with ``resume=True`` restarts from the last completed
    boundary. Results are bit-identical to a straight run — segmentation
    changes when the simulation pauses, never what it computes.
    """
    (workload, setup, mapping, requests, seed, config, obs_config, ckpt,
     _backend) = payload
    # Imported lazily: the checkpoint layer loads the whole simulator and
    # straight (non-segmented) runs must not pay for it.
    from repro.ckpt import capture, restore, save_snapshot
    from repro.cpu.system import SimulatedSystem

    cache = ResultCache(ckpt["cache_dir"], ckpt["schema"])
    key = ckpt["key"]

    system = None
    resumed_from = None
    if ckpt["resume"]:
        snapshot = _latest_segment_snapshot(cache, key)
        if snapshot is not None:
            system = restore(snapshot)
            resumed_from = snapshot.boundary
    if system is None:
        traces = make_rate_traces(
            WORKLOADS[workload], config, requests=requests, seed=seed
        )
        obs = Observability(obs_config) if obs_config is not None else None
        system = SimulatedSystem(
            traces, setup, config, mapping=mapping, seed=seed, obs=obs
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
        checkpoint_every=ckpt["segment_cycles"], on_checkpoint=on_checkpoint
    )
    result.ckpt = {"captured": captured, "resumed_from": resumed_from}
    return result


# ----------------------------------------------------------------------
# Security batch jobs (vectorized Monte-Carlo attack replays)
# ----------------------------------------------------------------------
_SECURITY_ATTACKS = ("round_robin", "single_sided", "double_sided", "half_double")
_SECURITY_TRACKERS = ("mint", "mint-transitive", "graphene", "para")
_SECURITY_POLICIES = ("fractal", "blast")


@dataclass(frozen=True)
class SecurityJob:
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
    #: answering from entries computed against the old payload.
    scenario: Optional[str] = None
    #: Manifest version of ``scenario``; auto-filled at construction. Pass
    #: it explicitly only to assert an expected corpus version.
    scenario_version: Optional[str] = None
    #: Placeholder overrides, normalized to sorted ``(name, value)`` pairs
    #: (hashable and deterministic key material). A plain dict is accepted
    #: and normalized.
    scenario_params: Tuple[Tuple[str, int], ...] = ()
    backend: str = "numpy"  # repro: key-blind[backend]

    def __post_init__(self):
        if self.scenario is not None:
            from repro.payload import load_scenario

            meta = load_scenario(self.scenario)
            if self.scenario_version is None:
                object.__setattr__(self, "scenario_version", meta.version)
            elif self.scenario_version != meta.version:
                raise ValueError(
                    f"scenario {self.scenario!r} is version {meta.version} "
                    f"in the corpus, not {self.scenario_version!r}"
                )
            declared = dict(meta.params)
            raw = (
                self.scenario_params.items()
                if isinstance(self.scenario_params, dict)
                else self.scenario_params
            )
            normalized = tuple(sorted((str(k), int(v)) for k, v in raw))
            for name, _ in normalized:
                if name not in declared:
                    raise ValueError(
                        f"scenario {self.scenario!r} declares no parameter "
                        f"{name!r} (has {sorted(declared)})"
                    )
            object.__setattr__(self, "scenario_params", normalized)
        elif self.scenario_version is not None or self.scenario_params:
            raise ValueError(
                "scenario_version/scenario_params require a scenario"
            )
        if self.attack not in _SECURITY_ATTACKS:
            raise ValueError(
                f"unknown attack {self.attack!r}; expected one of "
                f"{_SECURITY_ATTACKS}"
            )
        if self.tracker not in _SECURITY_TRACKERS:
            raise ValueError(
                f"unknown tracker {self.tracker!r}; expected one of "
                f"{_SECURITY_TRACKERS}"
            )
        if self.policy not in _SECURITY_POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; expected one of "
                f"{_SECURITY_POLICIES}"
            )
        if self.backend not in ("numpy", "scalar"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if not self.rows:
            raise ValueError("rows must name at least one row")
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")


def security_job_key(
    job: SecurityJob, schema_version: int = CACHE_SCHEMA_VERSION
) -> str:
    """Stable content hash of a security job (``backend`` excluded: both
    backends produce the identical artifact)."""
    fields = dataclasses.asdict(job)
    fields.pop("backend")
    if fields.get("scenario") is None:
        # Only scenario jobs carry the corpus keys, so every pre-corpus
        # cache entry stays addressable under its original hash.
        fields.pop("scenario", None)
        fields.pop("scenario_version", None)
        fields.pop("scenario_params", None)
    payload = {"schema": schema_version, "kind": "security", "job": fields}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


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


def _execute_security(job: SecurityJob) -> List[dict]:
    """Worker entry point for one security batch (picklable, module-level).

    The pattern is regenerated inside the worker from the job fields (same
    convention as simulation traces: cheaper than pickling, identical by
    construction).
    """
    from repro.mapping.kcipher import KCipher
    from repro.security.kernels import (
        build_pattern,
        policy_spec_from_string,
        run_attack_batch,
        tracker_spec_from_strings,
    )

    if job.scenario is not None:
        from repro.payload import compile_scenario

        pattern = list(
            compile_scenario(
                job.scenario, params=dict(job.scenario_params), acts=job.acts
            ).rows
        )
    else:
        pattern = build_pattern(job.attack, list(job.rows), job.acts)
    cipher = (
        KCipher(job.rows_per_bank, job.rubix_key)
        if job.rubix_key is not None
        else None
    )
    results = run_attack_batch(
        [pattern],
        tracker_spec_from_strings(job.tracker, job.window),
        policy_spec_from_string(job.policy),
        window=job.window,
        seeds=job.seeds,
        rows_per_bank=job.rows_per_bank,
        blast_radius=job.blast_radius,
        refresh_interval_acts=job.refresh_interval_acts,
        row_cipher=cipher,
        backend=job.backend,
        collect_pressure=False,
    )[0]
    return _security_results_to_dicts(results)


# ----------------------------------------------------------------------
# Threshold-campaign cells (SPRT bisection; see repro.security.campaign)
# ----------------------------------------------------------------------
def campaign_job_key(
    job: CampaignJob, schema_version: int = CACHE_SCHEMA_VERSION
) -> str:
    """Stable content hash of a campaign cell.

    ``backend`` is excluded (both kernel backends produce the identical
    pool, hence the identical search). Everything else — including the
    SPRT error bounds and ``max_chunk`` — is key material: a cell probed
    under looser bounds is a different statistical artifact, and
    ``max_chunk`` sets how far the pool overshoots the longest probe
    (the record's ``seeds_spent``).
    The scenario digest pins the compiled corpus payload, so a corpus
    edit re-executes instead of answering from stale entries.
    """
    fields = dataclasses.asdict(job)
    fields.pop("backend")
    if fields.get("scenario") is None:
        fields.pop("scenario", None)
        fields.pop("scenario_version", None)
        fields.pop("scenario_digest", None)
        fields.pop("scenario_params", None)
    payload = {"schema": schema_version, "kind": "campaign", "job": fields}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _execute_campaign(
    payload: Tuple[CampaignJob, Optional[str], Optional[str]]
) -> dict:
    """Worker entry point for one campaign cell (picklable, module-level).

    The payload carries ``(job, cache_dir, key)``: with a cache directory
    the cell persists its seed-pool frontier there after every extension
    and resumes from a surviving frontier, so a killed campaign re-invoked
    with the same jobs picks up mid-bisection instead of from seed 0.
    """
    job, cache_dir, key = payload
    return run_campaign_cell(job, cache_dir=cache_dir, key=key)


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
        #: Simulations actually executed (not answered from cache).
        self.simulations_run = 0
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

    def key_for(self, job: Job) -> str:
        """This runner's cache key for ``job`` (resolving default requests)."""
        return job_key(
            job,
            self.config,
            job.requests if job.requests is not None else self.requests,
            self.schema_version,
        )

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
    def run(self, job: Job, resume: bool = False) -> SimulationResult:
        """Run (or fetch) a single job."""
        return self.run_many([job], resume=resume)[0]

    def run_many(
        self, jobs: Sequence[Job], resume: bool = False
    ) -> List[SimulationResult]:
        """Run a batch of jobs; returns results in job order.

        Duplicate jobs (every slowdown shares its workload's baseline) are
        simulated once; cache hits never reach the pool. Misses fan out
        across ``self.jobs`` worker processes.

        ``resume=True`` lets jobs with ``segment_cycles`` restart from
        their newest on-disk segment snapshot instead of cycle 0 — the
        recovery path after a killed sweep. Jobs whose *result* is already
        cached are unaffected (the cache answers first).
        """
        jobs = list(jobs)
        results: List[Optional[SimulationResult]] = [None] * len(jobs)

        with self.profile.phase("plan"):
            # Deduplicate by cache key, then answer what the cache can.
            order: List[str] = []  # unique keys, first-seen order
            indices: Dict[str, List[int]] = {}
            payloads: Dict[str, tuple] = {}
            for i, job in enumerate(jobs):
                key = self.key_for(job)
                if key not in indices:
                    order.append(key)
                    indices[key] = []
                    payloads[key] = self._payload(job, key, resume)
                indices[key].append(i)

            pending: List[str] = []
            for key in order:
                cached = self.cache.get(key) if self.cache is not None else None
                if cached is not None:
                    for i in indices[key]:
                        results[i] = cached
                else:
                    pending.append(key)

        with self.profile.phase("execute"):
            executed = self._execute_batch(
                [payloads[key] for key in pending]
            )
        for key, result in zip(pending, executed):
            if self.cache is not None:
                self.cache.put(key, result)
            for i in indices[key]:
                results[i] = result

        self.profile.count("jobs", len(jobs))
        self.profile.count("unique_jobs", len(order))
        self.profile.count("executed", len(pending))
        self.profile.set_count("cache_hits", self.cache_hits)
        self.profile.set_count("cache_misses", self.cache_misses)
        captures = sum(
            r.ckpt["captured"] for r in executed if r.ckpt is not None
        )
        resumes = sum(
            1 for r in executed
            if r.ckpt is not None and r.ckpt["resumed_from"] is not None
        )
        if captures:
            self.profile.count("ckpt_captures", captures)
        if resumes:
            self.profile.count("ckpt_resumes", resumes)
        if self.cache is not None:
            self.cache.prune_to_limit()

        return results  # type: ignore[return-value]

    def _payload(self, job: Job, key: str, resume: bool = False) -> tuple:
        # Segment snapshots are content-addressed into the result cache;
        # without a cache there is nowhere to persist them, so the job
        # degrades to a straight run (results are identical).
        return build_sim_payload(
            job,
            self.config,
            self.requests,
            key,
            cache_dir=self.cache.directory if self.cache is not None else None,
            schema_version=self.schema_version,
            resume=resume,
        )

    def _execute_batch(self, payloads: List[tuple]) -> List[SimulationResult]:
        if not payloads:
            return []
        self.simulations_run += len(payloads)
        workers = min(self.jobs, len(payloads))
        if workers <= 1:
            return [_execute(p) for p in payloads]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_execute, payloads))

    # ------------------------------------------------------------------
    # Security batches (vectorized Monte-Carlo attack replays)
    # ------------------------------------------------------------------
    def security_key_for(self, job: SecurityJob) -> str:
        """This runner's cache key for a security batch (backend-blind)."""
        return security_job_key(job, self.schema_version)

    def run_security(self, job: SecurityJob) -> List["AttackResult"]:
        """Run (or fetch) one security batch: per-seed attack results."""
        return self.run_security_many([job])[0]

    def run_security_many(
        self, jobs: Sequence[SecurityJob]
    ) -> List[List["AttackResult"]]:
        """Run security batches; returns per-job lists of per-seed results.

        Same shape as :meth:`run_many`: duplicates (and scalar/numpy twins
        of the same job — the backend is not part of the key) collapse to
        one execution, cache hits never reach the pool, and misses fan out
        across ``REPRO_JOBS`` workers one *batch* per worker (each batch is
        already vectorized over its seeds, so the job is the right
        parallel grain). Results carry ``pressure == {}``; use
        :func:`repro.security.kernels.run_attack_batch` directly when the
        per-row pressure map matters.
        """
        jobs = list(jobs)
        results: List[Optional[List[dict]]] = [None] * len(jobs)

        with self.profile.phase("plan"):
            order: List[str] = []
            indices: Dict[str, List[int]] = {}
            by_key: Dict[str, SecurityJob] = {}
            for i, job in enumerate(jobs):
                key = self.security_key_for(job)
                if key not in indices:
                    order.append(key)
                    indices[key] = []
                    by_key[key] = job
                indices[key].append(i)

            pending: List[str] = []
            for key in order:
                cached = (
                    self.cache.get_security(key)
                    if self.cache is not None else None
                )
                if cached is not None:
                    for i in indices[key]:
                        results[i] = cached
                else:
                    pending.append(key)

        with self.profile.phase("execute"):
            todo = [by_key[key] for key in pending]
            if not todo:
                executed: List[List[dict]] = []
            else:
                workers = min(self.jobs, len(todo))
                if workers <= 1:
                    executed = [_execute_security(j) for j in todo]
                else:
                    with ProcessPoolExecutor(max_workers=workers) as pool:
                        executed = list(pool.map(_execute_security, todo))
        for key, raw in zip(pending, executed):
            if self.cache is not None:
                self.cache.put_security(key, raw)
            for i in indices[key]:
                results[i] = raw

        self.profile.count("security_jobs", len(jobs))
        self.profile.count("security_executed", len(pending))
        self.profile.set_count("cache_hits", self.cache_hits)
        self.profile.set_count("cache_misses", self.cache_misses)
        if self.cache is not None:
            self.cache.prune_to_limit()

        return [
            _security_results_from_dicts(raw)  # type: ignore[arg-type]
            for raw in results
        ]

    # ------------------------------------------------------------------
    # Threshold-campaign cells (SPRT bisection over the batched kernels)
    # ------------------------------------------------------------------
    def campaign_key_for(self, job: CampaignJob) -> str:
        """This runner's cache key for a campaign cell (backend-blind)."""
        return campaign_job_key(job, self.schema_version)

    def run_campaign(self, job: CampaignJob) -> dict:
        """Run (or fetch) one campaign cell's threshold search."""
        return self.run_campaign_many([job])[0]

    def run_campaign_many(self, jobs: Sequence[CampaignJob]) -> List[dict]:
        """Run campaign cells; returns per-cell result records in order.

        Same shape as :meth:`run_security_many`: duplicates collapse to
        one search, cached cells never reach the pool, and misses fan out
        one *cell* per worker (each cell's probes are sequential by
        construction — later probes reuse the pool earlier probes grew —
        so the cell is the parallel grain). Cells given a cache also
        persist their seed-pool frontier there mid-search, making a
        killed campaign resumable from the last pool extension.
        """
        jobs = list(jobs)
        results: List[Optional[dict]] = [None] * len(jobs)

        with self.profile.phase("plan"):
            order: List[str] = []
            indices: Dict[str, List[int]] = {}
            by_key: Dict[str, CampaignJob] = {}
            for i, job in enumerate(jobs):
                key = self.campaign_key_for(job)
                if key not in indices:
                    order.append(key)
                    indices[key] = []
                    by_key[key] = job
                indices[key].append(i)

            pending: List[str] = []
            for key in order:
                cached = (
                    self.cache.get_campaign(key)
                    if self.cache is not None else None
                )
                if cached is not None:
                    for i in indices[key]:
                        results[i] = cached
                else:
                    pending.append(key)

        with self.profile.phase("execute"):
            cache_dir = (
                self.cache.directory if self.cache is not None else None
            )
            payloads = [
                (by_key[key], cache_dir,
                 key if cache_dir is not None else None)
                for key in pending
            ]
            if not payloads:
                executed: List[dict] = []
            else:
                workers = min(self.jobs, len(payloads))
                if workers <= 1:
                    executed = [_execute_campaign(p) for p in payloads]
                else:
                    with ProcessPoolExecutor(max_workers=workers) as pool:
                        executed = list(pool.map(_execute_campaign, payloads))
        for key, record in zip(pending, executed):
            if self.cache is not None:
                self.cache.put_campaign(key, record)
            for i in indices[key]:
                results[i] = record

        self.profile.count("campaign_cells", len(jobs))
        self.profile.count("campaign_executed", len(pending))
        self.profile.set_count("cache_hits", self.cache_hits)
        self.profile.set_count("cache_misses", self.cache_misses)
        if self.cache is not None:
            self.cache.prune_to_limit()

        return results  # type: ignore[return-value]

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
