"""Trace-driven out-of-order core model.

Each core replays a :class:`~repro.workloads.trace.Trace` of post-LLC memory
requests, separated by ``gap`` non-memory instructions. The model captures
the three effects that matter for memory-system studies:

* **frontend width** — instruction k dispatches no earlier than cycle
  k / width (4-wide at 4 GHz);
* **ROB run-ahead** — a request may issue only while the oldest incomplete
  read is within ``rob_size`` instructions (memory-level parallelism);
* **MSHR limit** — at most ``mshrs_per_core`` outstanding reads.

Reads block retirement until their data returns; writes are fire-and-forget
(write-buffer semantics). Retirement is in order: the core's finish time is
when its last instruction retires, and IPC = instructions / finish.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from typing import Callable, Deque, List, Optional, Sequence

from repro.ckpt.contract import checkpointable
from repro.mc.request import Request
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine
from repro.sim.stats import CoreStats
from repro.workloads.trace import Trace


@checkpointable(
    state=(
        "_next",
        "_mshr_used",
        "_dispatch_time",
        "_outstanding",
        "_completion",
        "_retire_ptr",
        "_retire_time",
        "_issue_event_at",
        "finished",
    ),
    const=(
        "core_id",
        "trace",
        "config",
        "_n",
        "_addrs",
        "_writes",
        "_rows",
        "_flat_banks",
        "_rob_size",
        "_mshrs",
        "_seq",
        "_dispatch_bound",
        "_retire_cycles",
        "_tail_cycles",
        "total_instructions",
    ),
    derived=("engine", "submit", "stats", "on_finish"),
)
class Core:
    """One trace-driven core attached to the memory controller.

    ``rows``/``flat_banks`` carry the trace's decoded DRAM locations (see
    :meth:`repro.mapping.base.MemoryMapping.locate_array`); requests then
    reach the controller already decoded. Without them every request is
    submitted undecoded and the controller decodes it.
    """

    def __init__(
        self,
        core_id: int,
        trace: Trace,
        config: SystemConfig,
        engine: Engine,
        submit: Callable[[Request], None],
        stats: CoreStats,
        on_finish: Optional[Callable[[int], None]] = None,
        rows: Optional[Sequence[int]] = None,
        flat_banks: Optional[Sequence[int]] = None,
    ):
        self.core_id = core_id
        self.trace = trace
        self.config = config
        self.engine = engine
        self.submit = submit
        self.stats = stats
        self.on_finish = on_finish

        width = config.core_width
        n = len(trace)
        self._n = n
        if (rows is None) != (flat_banks is None):
            raise ValueError("rows and flat_banks come as a pair")
        if rows is None:
            rows = flat_banks = [-1] * n
        self._addrs = trace.addrs
        self._writes = trace.writes
        self._rows = rows
        self._flat_banks = flat_banks
        self._rob_size = config.rob_size
        self._mshrs = config.mshrs_per_core
        # seq[i]: instructions up to and including request i.
        seq: List[int] = [0] * n
        running = 0
        for i, gap in enumerate(trace.gaps):
            running += gap + 1  # the memory instruction itself counts
            seq[i] = running
        self._seq = seq
        self._dispatch_bound = [s // width for s in seq]
        self._retire_cycles = [
            -(-(gap + 1) // width) for gap in trace.gaps  # ceil division
        ]
        self._tail_cycles = -(-trace.tail_instructions // width)
        self.total_instructions = (running if n else 0) + trace.tail_instructions

        self._next = 0
        self._mshr_used = 0
        self._dispatch_time: List[int] = [0] * n
        # Outstanding *reads* in issue order: [seq, index, completed?].
        self._outstanding: Deque[List[int]] = deque()
        self._completion: List[Optional[int]] = [None] * n
        self._retire_ptr = 0
        self._retire_time = 0
        self._issue_event_at: Optional[int] = None
        self.finished = n == 0 and trace.tail_instructions == 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Schedule the core's first dispatch at cycle 0."""
        if self._n == 0:
            self._finish(self._tail_cycles)
            return
        self.engine.schedule(0, self._try_issue)

    # ------------------------------------------------------------------
    def _try_issue(self, now: int) -> None:
        """Dispatch every request the frontend, ROB and MSHRs allow."""
        n = self._n
        i = self._next
        if i < n:
            bounds = self._dispatch_bound
            seq = self._seq
            writes = self._writes
            outstanding = self._outstanding
            completion = self._completion
            rob_size = self._rob_size
            mshrs = self._mshrs
            stats = self.stats
            while i < n:
                bound = bounds[i]
                if bound > now:
                    self._schedule_issue(bound)
                    return
                if outstanding and seq[i] - outstanding[0][0] >= rob_size:
                    return  # ROB full; resume when the oldest read completes
                is_write = writes[i]
                if not is_write and self._mshr_used >= mshrs:
                    return  # MSHRs full; resume on a completion

                # Dispatch request i.
                self._next = i + 1
                stats.memory_requests += 1
                self._dispatch_time[i] = now
                if is_write:
                    # Writes retire without waiting on memory.
                    completion[i] = now
                    callback = None
                else:
                    self._mshr_used += 1
                    outstanding.append([seq[i], i, 0])
                    # A partial of a bound method (not a closure) so the
                    # pending completion can be serialised by the
                    # checkpoint layer.
                    callback = partial(self._on_read_complete, i)
                self.submit(Request(
                    self.core_id, self._addrs[i], is_write, now,
                    self._rows[i], self._flat_banks[i], callback,
                ))
                # Retirement can only advance if the oldest unretired
                # request has completed (always true once it is this one).
                rp = self._retire_ptr
                if rp > i or completion[rp] is not None:
                    self._advance_retirement()
                i += 1
        self._maybe_finish()

    def _on_read_complete(self, i: int, now: int) -> None:
        self._mshr_used -= 1
        self._completion[i] = now
        self.stats.reads_completed += 1
        self.stats.read_latency_sum += now - self._dispatch_time[i]
        for entry in self._outstanding:
            if entry[1] == i:
                entry[2] = 1
                break
        while self._outstanding and self._outstanding[0][2]:
            self._outstanding.popleft()
        self._advance_retirement()
        self._try_issue(now)

    def _advance_retirement(self) -> None:
        """Retire requests in program order as their completions land."""
        while self._retire_ptr < self._next:
            j = self._retire_ptr
            completion = self._completion[j]
            if completion is None:
                return
            self._retire_time = max(
                self._retire_time + self._retire_cycles[j], completion
            )
            self._retire_ptr += 1
        self._maybe_finish()

    def _maybe_finish(self) -> None:
        if self.finished:
            return
        if self._next == self._n and self._retire_ptr == self._n:
            self._finish(self._retire_time + self._tail_cycles)

    def _finish(self, finish_cycle: int) -> None:
        self.finished = True
        self.stats.instructions = self.total_instructions
        self.stats.finish_cycle = max(finish_cycle, 1)
        if self.on_finish is not None:
            self.on_finish(self.stats.finish_cycle)

    def _schedule_issue(self, time: int) -> None:
        if self._issue_event_at is not None and self._issue_event_at <= time:
            return
        self._issue_event_at = time
        self.engine.schedule(time, self._issue_fired)

    def _issue_fired(self, now: int) -> None:
        if self._issue_event_at is not None and self._issue_event_at <= now:
            self._issue_event_at = None
        self._try_issue(now)
