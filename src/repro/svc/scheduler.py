"""The sweep-service daemon: an asyncio job farm over a Unix socket.

:class:`SweepService` turns the one-shot experiment runner into a
long-running, multi-client service:

* **Submit/status/result/cancel API** — newline-delimited JSON over a
  local Unix socket (:mod:`repro.svc.protocol`); any number of clients
  share one daemon.
* **Deterministic scheduling** — jobs dispatch in ``(priority, submit
  sequence)`` order from :class:`~repro.svc.queue.SweepQueue`; no
  wall-clock value ever participates in an ordering decision (the
  ``SVC001`` lint pass holds the package to that).
* **Shared, dedup'd artifact store** — the content-addressed
  :class:`~repro.analysis.runner.ResultCache` is the only result channel:
  cache hits answer without executing, a job whose key is already in
  flight completes together with its twin instead of re-running, and the
  daemon (alone) owns pruning.
* **Crash recovery** — each job runs in its own worker process with a
  heartbeat file; a dead or silent worker is detected, and its job is
  re-queued at the head of its priority class with ``resume=True`` so a
  segmented sweep restarts from the newest valid segment snapshot in the
  cache (via :func:`repro.analysis.runner.latest_segment_snapshot`
  machinery inside the worker) rather than from cycle 0.
* **Observability** — queue depth, worker states, cache hit/miss/eviction
  and job lifecycle counts are published through a
  :class:`~repro.obs.MetricsRegistry` and served over the ``cache`` op.

The daemon is single-event-loop: every op handler and every scheduling
step runs on one asyncio loop, so record state needs no locking.
"""

from __future__ import annotations

import asyncio
import os
import threading
from typing import Any, Awaitable, Callable, ClassVar, Dict, Optional

from repro.analysis.runner import (
    CACHE_SCHEMA_VERSION,
    ResultCache,
    default_cache_dir,
    default_requests,
)
from repro.jobs import JobSpec, RunContext
from repro.obs import MetricsRegistry
from repro.sim.config import SystemConfig
from repro.svc import protocol
from repro.svc.clock import CLOCK, Clock
from repro.svc.queue import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobRecord,
    SweepQueue,
)
from repro.svc.workers import HEARTBEAT_INTERVAL, WorkerHandle

#: Default worker crash retries per job before it is marked failed.
DEFAULT_MAX_RETRIES = 2

#: Default seconds of heartbeat silence before a live worker is presumed
#: hung and recycled.
DEFAULT_HEARTBEAT_TIMEOUT = 30.0


def default_socket_path() -> str:
    """``REPRO_SVC_SOCKET`` or a per-user path under ``/tmp``.

    Unix socket paths are length-limited (~107 bytes), so the default
    deliberately avoids deep directories.
    """
    override = os.environ.get("REPRO_SVC_SOCKET")
    if override:
        return override
    import tempfile

    return os.path.join(
        tempfile.gettempdir(), f"repro-svc-{os.getuid()}.sock"
    )


def _dispatch_table(cls: type) -> type:
    """Bind ``cls._handlers``: protocol op -> ``cls._op_<op>``.

    Raises ``TypeError`` unless the ``_op_*`` methods and
    :data:`protocol.OPS` name exactly the same ops.
    """
    handled = {
        name[len("_op_"):] for name in dir(cls) if name.startswith("_op_")
    }
    if handled != set(protocol.OPS):
        raise TypeError(
            f"{cls.__name__} op handlers disagree with protocol.OPS: "
            f"missing {sorted(set(protocol.OPS) - handled)}, "
            f"undeclared {sorted(handled - set(protocol.OPS))}"
        )
    handlers = {op: getattr(cls, f"_op_{op}") for op in protocol.OPS}
    setattr(cls, "_handlers", handlers)
    return cls


@_dispatch_table
class SweepService:
    """A long-running sweep-job daemon (one instance per socket path)."""

    #: Protocol op -> its ``_op_<op>`` handler, bound by ``_dispatch_table``.
    _handlers: ClassVar[Dict[str, Callable[..., Awaitable[dict]]]]

    def __init__(
        self,
        socket_path: Optional[str] = None,
        *,
        config: Optional[SystemConfig] = None,
        workers: int = 2,
        requests: Optional[int] = None,
        cache_dir: Optional[str] = None,
        schema_version: int = CACHE_SCHEMA_VERSION,
        max_retries: int = DEFAULT_MAX_RETRIES,
        heartbeat_interval: float = HEARTBEAT_INTERVAL,
        heartbeat_timeout: float = DEFAULT_HEARTBEAT_TIMEOUT,
        poll_interval: float = 0.05,
        cache_max_mb: Optional[float] = None,
        clock: Clock = CLOCK,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.socket_path = socket_path or default_socket_path()
        self.config = config if config is not None else SystemConfig()
        self.workers = workers
        self._requests = requests
        self.schema_version = schema_version
        self.cache = ResultCache(
            cache_dir or default_cache_dir(), schema_version
        )
        self.max_retries = max_retries
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.poll_interval = poll_interval
        self.cache_max_mb = cache_max_mb
        self.clock = clock

        self.queue = SweepQueue()
        #: cache key -> job_id of the record currently executing that key.
        self._inflight: Dict[str, str] = {}
        self._slots: Dict[int, WorkerHandle] = {}
        self._next_slot = 0
        #: Heartbeat files live next to the socket.
        self.run_dir = self.socket_path + ".d"

        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._wake: Optional[asyncio.Event] = None
        #: Open client connections: handler task -> its stream writer.
        self._clients: Dict["asyncio.Task[None]", asyncio.StreamWriter] = {}
        self._stopping = False
        self._ready = threading.Event()

        # Pre-resolved metric handles (repro.obs convention: resolve once,
        # increment on the hot path).
        self.metrics = MetricsRegistry()
        m = self.metrics
        self._m_submitted = m.counter("svc.jobs_submitted")
        self._m_completed = m.counter("svc.jobs_completed")
        self._m_failed = m.counter("svc.jobs_failed")
        self._m_cancelled = m.counter("svc.jobs_cancelled")
        self._m_deduped = m.counter("svc.jobs_deduped")
        self._m_retried = m.counter("svc.jobs_retried")
        self._m_cache_hits = m.counter("svc.cache_hits")
        self._m_cache_misses = m.counter("svc.cache_misses")
        self._m_evictions = m.counter("svc.cache_evictions")
        self._m_restarts = m.counter("svc.worker_restarts")
        self._g_depth = m.gauge("svc.queue_depth")
        self._g_busy = m.gauge("svc.workers_busy")
        self._g_total = m.gauge("svc.workers_total")
        self._g_total.set(workers)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def requests(self) -> int:
        return (
            self._requests if self._requests is not None
            else default_requests()
        )

    def run(self) -> None:
        """Run the daemon until a ``shutdown`` op or :meth:`stop` call.

        Blocking; usable as a thread target (the test harness) or as the
        ``repro serve`` foreground process.
        """
        asyncio.run(self._main())

    def stop(self) -> None:
        """Request shutdown from any thread."""
        loop = self._loop
        if loop is not None and loop.is_running():
            loop.call_soon_threadsafe(self._begin_shutdown)

    def wait_ready(self, timeout: float = 10.0) -> bool:
        """Block until the daemon is accepting connections."""
        return self._ready.wait(timeout)

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._wake = asyncio.Event()
        os.makedirs(self.run_dir, exist_ok=True)
        os.makedirs(self.cache.directory, exist_ok=True)
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)  # stale socket from a dead daemon
        self._server = await asyncio.start_unix_server(
            self._handle_client,
            path=self.socket_path,
            limit=protocol.MAX_LINE_BYTES,
        )
        self._ready.set()
        try:
            await self._scheduler_loop()
        finally:
            self._server.close()
            await self._close_clients()
            await self._server.wait_closed()
            for slot in list(self._slots):
                self._release(slot).kill()
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass
            self._ready.clear()

    def _begin_shutdown(self) -> None:
        if self._stopping:
            return
        self._stopping = True
        self._release_waiters()
        if self._wake is not None:
            self._wake.set()

    def _release_waiters(self) -> None:
        """Unblock every waiting `result` call; their records keep their
        current state so clients can see what was left unfinished."""
        for record in self.queue.records.values():
            if record.event is not None:
                record.event.set()

    async def _close_clients(self) -> None:
        """Close every open client connection and wait for its handler to
        return. A handler still pending when ``asyncio.run`` finishes is
        cancelled, which asyncio logs as an ERROR with a traceback."""
        # Records submitted after shutdown began have unset events too.
        self._release_waiters()
        for writer in self._clients.values():
            writer.close()
        await asyncio.gather(*self._clients)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    async def _scheduler_loop(self) -> None:
        assert self._wake is not None
        while not self._stopping:
            self._reap_workers()
            self._dispatch()
            self._update_gauges()
            self._wake.clear()
            try:
                await asyncio.wait_for(
                    self._wake.wait(), timeout=self.poll_interval
                )
            except asyncio.TimeoutError:
                pass

    def _dispatch(self) -> None:
        """Fill free worker slots in deterministic queue order."""
        while len(self._slots) < self.workers:
            record = self.queue.pop()
            if record is None:
                return
            # Dedup against an in-flight twin: same key, one execution.
            primary_id = self._inflight.get(record.key)
            if primary_id is not None:
                primary = self.queue.get(primary_id)
                if primary is not None and primary.state == RUNNING:
                    record.merged_into = primary_id
                    record.transition(RUNNING)
                    primary.followers.append(record)
                    self._m_deduped.inc()
                    continue
            # The shared store answers before any execution; the entry
            # read here is the one the `result` op serves.
            payload = self._cached_payload(record)
            if payload is not None:
                record.from_cache = True
                self._m_cache_hits.inc()
                self._finish(record, DONE, payload)
                continue
            self._m_cache_misses.inc()
            self._spawn(record)

    def _spawn(self, record: JobRecord) -> None:
        slot = self._next_slot
        self._next_slot += 1
        resume = record.attempts > 0
        if resume:
            boundaries = self.cache.snapshot_boundaries(record.key)
            record.resumed_from = boundaries[-1] if boundaries else None
        spec = {
            "job": record.job,
            "key": record.key,
            "context": self._context(resume),
            "interval": self.heartbeat_interval,
        }
        handle = WorkerHandle.spawn(
            slot,
            record.job_id,
            spec,
            os.path.join(self.run_dir, f"heartbeat-{slot}"),
            clock=self.clock,
        )
        self._slots[slot] = handle
        # The sentinel turns readable when the worker exits: wake the
        # scheduler then, not on the next poll tick.
        assert self._loop is not None
        self._loop.add_reader(handle.sentinel, self._worker_exited, handle)
        record.attempts += 1
        record.worker_slot = slot
        record.worker_pid = handle.pid
        record.transition(RUNNING)
        self._inflight[record.key] = record.job_id

    def _worker_exited(self, handle: WorkerHandle) -> None:
        """Sentinel callback: the worker is exiting. Its sentinel stays
        readable, and ``is_alive()`` can still say alive while the process
        tears down, so stop watching it, wait the exit out, and wake the
        scheduler once to harvest it."""
        assert self._loop is not None and self._wake is not None
        self._loop.remove_reader(handle.sentinel)
        handle.reap()
        self._wake.set()

    def _release(self, slot: int) -> WorkerHandle:
        """Free ``slot`` and stop watching its worker's exit."""
        handle = self._slots.pop(slot)
        assert self._loop is not None
        self._loop.remove_reader(handle.sentinel)
        return handle

    def _reap_workers(self) -> None:
        """Harvest finished workers; recycle dead or silent ones."""
        for slot, handle in list(self._slots.items()):
            record = self.queue.get(handle.job_id)
            assert record is not None
            if handle.alive():
                if handle.heartbeat_age() > self.heartbeat_timeout:
                    self._release(slot).kill()
                    self._crashed(record, "heartbeat timeout")
                continue
            self._release(slot).reap()
            if record.state == CANCELLED:
                continue  # cancel() already killed and accounted for it
            if handle.exitcode == 0:
                payload = self._cached_payload(record)
                if payload is not None:
                    self._finish(record, DONE, payload)
                else:
                    record.error = "worker exited without publishing a result"
                    self._finish(record, FAILED)
            else:
                self._crashed(record, f"worker exit code {handle.exitcode}")

    def _crashed(self, record: JobRecord, reason: str) -> None:
        self._m_restarts.inc()
        self._inflight.pop(record.key, None)
        if record.attempts > self.max_retries:
            record.error = f"{reason} (after {record.attempts} attempts)"
            self._finish(record, FAILED)
            return
        self._m_retried.inc()
        record.error = reason
        self.queue.requeue(record)
        if self._wake is not None:
            self._wake.set()

    def _finish(
        self, record: JobRecord, state: str, payload: Optional[Any] = None
    ) -> None:
        """Terminal transition, follower resolution, cache upkeep.

        A DONE record (and each of its followers) keeps ``payload``, the
        validated cache section, until its first ``result`` fetch.
        """
        record.transition(state)
        if state == DONE:
            record.payload = payload
            self._m_completed.inc()
        elif state == FAILED:
            self._m_failed.inc()
        if record.event is not None:
            record.event.set()
        self._inflight.pop(record.key, None)
        for follower in record.followers:
            follower.from_cache = True
            follower.error = record.error
            self._finish(follower, state, payload)
        record.followers = []
        self._prune_cache()

    def _prune_cache(self) -> None:
        """The daemon owns eviction for every client sharing this cache."""
        if self.cache_max_mb is not None:
            outcome: Optional[dict] = self.cache.prune(
                int(self.cache_max_mb * 1024 * 1024)
            )
        else:
            outcome = self.cache.prune_to_limit()
        if outcome and outcome.get("removed"):
            self._m_evictions.inc(outcome["removed"])

    def _update_gauges(self) -> None:
        self._g_depth.set(self.queue.depth())
        self._g_busy.set(len(self._slots))

    # ------------------------------------------------------------------
    # Job identity and result access
    # ------------------------------------------------------------------
    def _context(self, resume: bool = False) -> RunContext:
        """The run context daemon jobs are keyed and executed under; the
        shared cache directory holds their snapshots and frontiers."""
        return RunContext(
            config=self.config,
            requests=self.requests,
            schema_version=self.schema_version,
            cache_dir=self.cache.directory,
            resume=resume,
        )

    def key_for(self, job: JobSpec) -> str:
        """The daemon's cache key for ``job`` (same as an in-process run)."""
        return job.key(self._context())

    def _cached_payload(self, record: JobRecord) -> Optional[Any]:
        """The servable result payload for ``record``: its cache entry's
        validated section as stored (None on a miss)."""
        return self.cache.load_payload(record.key, type(record.job))

    # ------------------------------------------------------------------
    # Client protocol
    # ------------------------------------------------------------------
    async def _handle_client(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._clients[task] = writer
        try:
            while not self._stopping:
                try:
                    line = await reader.readline()
                except (ValueError, ConnectionError):
                    break  # over-long line or torn connection
                if not line:
                    break
                response = await self._serve_one(line)
                writer.write(protocol.encode(response))
                try:
                    await writer.drain()
                except ConnectionError:
                    break
        finally:
            del self._clients[task]
            writer.close()

    async def _serve_one(self, line: bytes) -> dict:
        try:
            op, message = protocol.parse_request(protocol.decode(line))
        except protocol.ProtocolError as exc:
            return protocol.error(str(exc))
        try:
            return await self._handlers[op](self, message)
        except (ValueError, TypeError, KeyError) as exc:
            return protocol.error(str(exc))

    # One ``async def _op_<name>(self, message) -> dict`` per protocol op:
    # ``_handlers`` is built from ``protocol.OPS`` when the class is
    # created, and the import fails if an op has no handler (or a handler
    # has no op). Every handler is a coroutine so each one is an event-loop
    # root for the ASYNC001 lint pass, which cannot follow the table.

    async def _op_ping(self, message: dict) -> dict:
        return protocol.ok(
            protocol=protocol.PROTOCOL_VERSION,
            server="repro.svc",
            workers=self.workers,
        )

    async def _op_shutdown(self, message: dict) -> dict:
        self._begin_shutdown()
        return protocol.ok(stopping=True)

    async def _op_submit(self, message: dict) -> dict:
        jobs = message.get("jobs")
        if not isinstance(jobs, list) or not jobs:
            return protocol.error("submit needs a non-empty 'jobs' list")
        priority = int(message.get("priority", 0))
        # Decode and key every job before queueing any: a bad payload
        # (ValueError) rejects the whole submit.
        keyed = [
            (job, self.key_for(job)) for job in map(JobSpec.from_wire, jobs)
        ]
        job_ids = []
        keys = []
        for job, key in keyed:
            record = self.queue.submit(job.kind, job, key, priority)
            record.event = asyncio.Event()
            job_ids.append(record.job_id)
            keys.append(key)
            self._m_submitted.inc()
        self._update_gauges()
        if self._wake is not None:
            self._wake.set()
        return protocol.ok(job_ids=job_ids, keys=keys)

    def _record_for(self, message: dict) -> JobRecord:
        job_id = message.get("id")
        record = self.queue.get(job_id) if isinstance(job_id, str) else None
        if record is None:
            raise ValueError(f"unknown job id {job_id!r}")
        return record

    async def _op_status(self, message: dict) -> dict:
        if message.get("id") is not None:
            records = [self._record_for(message)]
        else:
            records = sorted(
                self.queue.records.values(), key=lambda r: r.seq
            )
        snapshots = self.cache.snapshot_counts()
        return protocol.ok(jobs=[
            r.status_record(snapshots=snapshots.get(r.key, 0))
            for r in records
        ])

    async def _op_result(self, message: dict) -> dict:
        record = self._record_for(message)
        if message.get("wait") and record.state in (QUEUED, RUNNING):
            timeout = message.get("timeout")
            assert record.event is not None
            try:
                await asyncio.wait_for(
                    record.event.wait(),
                    timeout=float(timeout) if timeout is not None else None,
                )
            except asyncio.TimeoutError:
                return protocol.error(
                    f"timed out waiting for {record.job_id}",
                    state=record.state,
                )
        if record.state != DONE:
            return protocol.error(
                f"job {record.job_id} is {record.state}, not done",
                state=record.state,
                job_error=record.error,
            )
        # The first fetch serves the entry read when the record finished;
        # later ones re-read the store, which may have evicted it since.
        payload, record.payload = record.payload, None
        if payload is None:
            payload = self._cached_payload(record)
        if payload is None:
            return protocol.error(
                f"result for {record.job_id} was evicted from the cache",
                state=record.state,
            )
        return protocol.ok(
            state=record.state,
            kind=record.kind,
            from_cache=record.from_cache,
            result=payload,
        )

    async def _op_cancel(self, message: dict) -> dict:
        record = self._record_for(message)
        if record.state == QUEUED:
            record.transition(CANCELLED)
            self._m_cancelled.inc()
            if record.event is not None:
                record.event.set()
        elif record.state == RUNNING:
            if record.worker_slot in self._slots:
                self._release(record.worker_slot).kill()
            self._inflight.pop(record.key, None)
            record.transition(CANCELLED)
            self._m_cancelled.inc()
            if record.event is not None:
                record.event.set()
            # Followers of a cancelled primary go back to the queue: the
            # twin's cancellation says nothing about *their* desired state.
            for follower in record.followers:
                self.queue.requeue(follower)
            record.followers = []
        self._update_gauges()
        return protocol.ok(state=record.state)

    async def _op_cache(self, message: dict) -> dict:
        return protocol.ok(
            cache=self.cache.stats(),
            metrics=self.metrics.snapshot(),
            queue_depth=self.queue.depth(),
            workers={
                "total": self.workers,
                "busy": len(self._slots),
            },
        )
