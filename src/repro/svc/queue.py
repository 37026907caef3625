"""Deterministic priority queue and job records for the sweep service.

Ordering is a pure function of ``(-priority, submit sequence)``: higher
priority first, FIFO within a priority class. Nothing here reads a clock
— the submit sequence is assigned by arrival at the daemon's (single
threaded) event loop, so two daemons replaying the same submit stream
dispatch in the same order. A retried job keeps its original sequence
number, which puts a crashed shard back at the *head* of its priority
class: resuming half-done work beats starting fresh work.

States and transitions::

    queued ──→ running ──→ done
      │           │   └──→ failed      (worker crashed > max_retries)
      │           └──────→ queued      (worker crashed, retry)
      └──→ cancelled ←────┘            (cancel op)

Every transition is appended to the record's ``history``, so clients can
assert the exact lifecycle a job went through.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Union

from repro.jobs import JobSpec

QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: States a job can still leave.
ACTIVE_STATES = (QUEUED, RUNNING)
#: States a job never leaves.
TERMINAL_STATES = (DONE, FAILED, CANCELLED)


@dataclass
class JobRecord:
    """One submitted job's full service-side lifecycle."""

    job_id: str
    kind: str                 # the job's JobSpec kind tag
    job: JobSpec
    key: str                  # content-addressed cache key
    priority: int
    seq: int
    state: str = QUEUED
    attempts: int = 0         # worker launches so far
    worker_slot: Optional[int] = None
    worker_pid: Optional[int] = None
    error: Optional[str] = None
    from_cache: bool = False  # answered without executing
    resumed_from: Optional[int] = None  # segment boundary of last resume
    merged_into: Optional[str] = None   # job_id of the in-flight twin
    #: The validated cache section (``kind.encode_result`` form) read
    #: when the record finished DONE; the first ``result`` fetch serves
    #: and drops it, later fetches re-read the store.
    payload: Optional[Union[Dict[str, Any], List[Any]]] = field(
        default=None, repr=False, compare=False
    )
    history: List[str] = field(default_factory=lambda: [QUEUED])
    #: Records with the same cache key that arrived while this one was
    #: in flight; completed together with it (the dedup'd-store path).
    followers: List["JobRecord"] = field(default_factory=list)
    #: Completion signal (set by the scheduler's event loop). Typed as
    #: object so this module stays importable without asyncio running.
    event: Optional[object] = None
    #: The queue that counts this record while it is queued.
    queue: Optional["SweepQueue"] = field(
        default=None, repr=False, compare=False
    )

    def transition(self, state: str) -> None:
        """Move to ``state``, recording it in the history."""
        if self.queue is not None:
            self.queue._recount(self.state, state)
        self.state = state
        self.history.append(state)

    def status_record(self, snapshots: int = 0) -> dict:
        """The plain-JSON status view served to clients."""
        return {
            "id": self.job_id,
            "kind": self.kind,
            "state": self.state,
            "priority": self.priority,
            "seq": self.seq,
            "attempts": self.attempts,
            "worker_slot": self.worker_slot,
            "worker_pid": self.worker_pid,
            "key": self.key,
            "error": self.error,
            "from_cache": self.from_cache,
            "resumed_from": self.resumed_from,
            "merged_into": self.merged_into,
            "history": list(self.history),
            "snapshots": snapshots,
        }


class SweepQueue:
    """The deterministic ready queue: ``(-priority, seq)`` heap order.

    ``pop`` skips records that left the queued state while heaped
    (cancellation is lazy: the heap entry stays, the record's state is
    the truth). ``requeue`` re-heaps a record under its *original*
    sequence number.

    Every record it accepts reports its transitions back, so the queue
    keeps a running count of queued records instead of scanning them.
    """

    def __init__(self) -> None:
        self._heap: List[tuple] = []
        self._next_seq = 0
        self._queued = 0
        self.records: Dict[str, JobRecord] = {}

    # ------------------------------------------------------------------
    def submit(self, kind: str, job: JobSpec, key: str,
               priority: int = 0) -> JobRecord:
        """Enqueue one job; assigns the next submit sequence number."""
        seq = self._next_seq
        self._next_seq += 1
        record = JobRecord(
            job_id=f"J{seq:06d}",
            kind=kind,
            job=job,
            key=key,
            priority=priority,
            seq=seq,
            queue=self,
        )
        self._queued += 1
        self.records[record.job_id] = record
        heapq.heappush(self._heap, (-priority, seq, record.job_id))
        return record

    def requeue(self, record: JobRecord) -> None:
        """Put a (crashed) record back, keeping its original seq."""
        record.transition(QUEUED)
        record.worker_slot = None
        record.worker_pid = None
        heapq.heappush(
            self._heap, (-record.priority, record.seq, record.job_id)
        )

    def pop(self) -> Optional[JobRecord]:
        """The next queued record in deterministic order (None if idle)."""
        while self._heap:
            _, _, job_id = heapq.heappop(self._heap)
            record = self.records[job_id]
            if record.state == QUEUED:
                return record
        return None

    def depth(self) -> int:
        """How many records are currently in the queued state (O(1))."""
        return self._queued

    def _recount(self, old: str, new: str) -> None:
        """Keep the queued count across one record transition."""
        self._queued += (new == QUEUED) - (old == QUEUED)

    def get(self, job_id: str) -> Optional[JobRecord]:
        """Record lookup by id."""
        return self.records.get(job_id)

    def __len__(self) -> int:
        return len(self.records)
