"""Sweep-service workers: one OS process per running job, heartbeats, and
the crash-visible completion contract.

A worker is a real ``multiprocessing.Process`` (not a pool member) so the
daemon can observe its death directly: a SIGKILL'd worker has a negative
``exitcode`` instead of wedging a shared pool. The completion contract is
filesystem-based and idempotent — the worker executes its job through the
job's own :meth:`~repro.jobs.JobSpec.execute` (what the runner's
in-process pool runs too) and **publishes the result into the shared
ResultCache**, then exits 0. The daemon never parses worker stdout; it
reads the cache. A worker that dies mid-job leaves, at worst, the segment
snapshots it already wrote — which is exactly what the retry path resumes
from.

Heartbeats: a daemon thread inside the worker touches a per-slot
heartbeat file every ``interval`` seconds through the quarantined
:class:`~repro.svc.clock.Clock`. The scheduler treats a silent-but-alive
worker (hung, not dead) the same as a crashed one once the heartbeat goes
stale.
"""

from __future__ import annotations

import multiprocessing
import threading
from dataclasses import dataclass
from typing import Optional

from repro.svc.clock import CLOCK, Clock

#: Default seconds between heartbeat touches.
HEARTBEAT_INTERVAL = 0.5


def _heartbeat_loop(path: str, interval: float,
                    stop: threading.Event) -> None:
    """Touch ``path`` every ``interval`` seconds until ``stop`` is set."""
    while True:
        try:
            CLOCK.touch(path)
        except OSError:
            pass
        if stop.wait(interval):
            return


def worker_main(spec: dict) -> None:
    """Worker process entry point (module-level: picklable under spawn).

    ``spec`` fields:

    * ``job`` / ``key`` — the job dataclass and its cache key
    * ``context`` — the :class:`repro.jobs.RunContext` it runs under; its
      cache directory and schema say where to publish the result
    * ``heartbeat`` — heartbeat file path (optional)
    * ``interval`` — seconds between heartbeat touches

    Resumable jobs persist progress into the cache directory as they go
    (segment snapshots, a campaign's seed-pool frontier), so a killed
    worker's retry resumes from the last one instead of from zero.
    """
    from repro.analysis.runner import ResultCache

    stop = threading.Event()
    beat: Optional[threading.Thread] = None
    if spec.get("heartbeat"):
        beat = threading.Thread(
            target=_heartbeat_loop,
            args=(spec["heartbeat"],
                  spec.get("interval", HEARTBEAT_INTERVAL), stop),
            daemon=True,
        )
        beat.start()
    try:
        job, key, context = spec["job"], spec["key"], spec["context"]
        value = job.execute(key, context)
        ResultCache(context.cache_dir, context.schema_version).store(
            key, type(job), value
        )
    finally:
        stop.set()
        if beat is not None:
            beat.join(timeout=2.0)


@dataclass
class WorkerHandle:
    """The daemon's view of one live worker process."""

    slot: int
    job_id: str
    process: multiprocessing.Process
    heartbeat_path: str
    clock: Clock

    @classmethod
    def spawn(cls, slot: int, job_id: str, spec: dict,
              heartbeat_path: str, clock: Clock = CLOCK) -> "WorkerHandle":
        """Start one worker process for ``spec`` (see :func:`worker_main`)."""
        spec = dict(spec, heartbeat=heartbeat_path)
        clock.touch(heartbeat_path)  # a fresh worker starts un-stale
        process = multiprocessing.Process(
            target=worker_main, args=(spec,), daemon=True
        )
        process.start()
        return cls(
            slot=slot,
            job_id=job_id,
            process=process,
            heartbeat_path=heartbeat_path,
            clock=clock,
        )

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    @property
    def sentinel(self) -> int:
        """A file descriptor that becomes readable when the worker exits."""
        return self.process.sentinel

    def alive(self) -> bool:
        """Whether the worker process is still running."""
        return self.process.is_alive()

    @property
    def exitcode(self) -> Optional[int]:
        return self.process.exitcode

    def heartbeat_age(self) -> float:
        """Seconds since the worker last touched its heartbeat file."""
        return self.clock.age_of(self.heartbeat_path)

    def kill(self) -> None:
        """Forcibly stop the worker (terminate, then kill) and reap it."""
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout=1.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=5.0)

    def reap(self) -> None:
        """Join a finished process so it never lingers as a zombie."""
        self.process.join(timeout=5.0)
