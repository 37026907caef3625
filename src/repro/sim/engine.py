"""Minimal event-driven simulation kernel.

Time is integer CPU cycles. Events are (time, sequence, callback) entries in
a binary heap; ties break by insertion order, so the simulation is fully
deterministic. Callbacks receive the current time.

Observability: assigning an enabled :class:`~repro.obs.Observability` to
``engine.obs`` before running switches the drain loop to an instrumented
twin that publishes event counts, heap-depth samples, and the final cycle
into the metrics registry, plus wall-time into the profiler. With ``obs``
left at ``None`` (the default) the original tight loop runs untouched, so
the disabled path costs nothing per event.
"""

from __future__ import annotations

import heapq
from itertools import repeat
from typing import Callable, List, Optional, Tuple

from repro.ckpt.contract import checkpointable

EventCallback = Callable[[int], None]

#: Heap depth is sampled every this many processed events in the observed
#: loop; a fixed stride keeps the samples deterministic.
HEAP_SAMPLE_STRIDE = 4096

#: Bucket edges for the heap-depth histogram.
HEAP_DEPTH_EDGES = (0, 16, 64, 256, 1024, 4096, 16384, 65536)

#: Sentinel bound for "drain everything": larger than any simulated cycle,
#: so the unbounded and ``until``-bounded drains share one loop body.
NO_BOUND = (1 << 63) - 1


@checkpointable(
    state=("now", "_seq", "_obs_processed", "_heap"),
    derived=("obs", "_obs_handles"),
)
class Engine:
    """Deterministic discrete-event loop."""

    def __init__(self):
        self.now = 0
        self._seq = 0
        self._heap: List[Tuple[int, int, EventCallback]] = []
        #: Optional :class:`repro.obs.Observability`; see module docstring.
        self.obs = None
        # Pre-resolved metric handles for the observed drains, keyed by the
        # obs object they were resolved against: (obs, events_counter,
        # depth_histogram, cycles_gauge). Label-keyed registry lookups are
        # dict probes with tuple building — cheap once, but the drains run
        # per checkpoint segment and per bounded step, so they are resolved
        # exactly once per attached obs instead.
        self._obs_handles = None
        # Lifetime count of events drained through the *observed* loops.
        # Heap-depth sampling strides over this counter (not a per-drain
        # one) so a run split across checkpoint segments samples at the
        # exact same event ordinals as one uninterrupted drain.
        self._obs_processed = 0

    def schedule(self, time: int, callback: EventCallback) -> None:
        """Schedule ``callback(time)`` at ``time`` (>= now)."""
        if time < self.now:
            raise ValueError(f"cannot schedule at {time}, now is {self.now}")
        heapq.heappush(self._heap, (time, self._seq, callback))
        self._seq += 1

    def schedule_in(self, delay: int, callback: EventCallback) -> None:
        """Schedule ``callback`` after ``delay`` cycles."""
        self.schedule(self.now + delay, callback)

    @property
    def pending(self) -> int:
        return len(self._heap)

    @property
    def events_processed(self) -> int:
        """Events popped so far (scheduled minus still pending)."""
        return self._seq - len(self._heap)

    def run_until_empty(self) -> int:
        """Drain the heap to empty; return the final time.

        The common case (:func:`repro.cpu.system.simulate` with no event
        budget) spends its whole life in :meth:`_drain_plain`'s loop.
        """
        if self.obs is not None and self.obs.enabled:
            return self._drain_observed(None)
        return self._drain_plain(NO_BOUND)

    def _drain_plain(self, bound: int) -> int:
        """The one uninstrumented drain loop: pop, advance time, call back.

        Shared by the unbounded drain (``bound=NO_BOUND``) and the
        ``until``-bounded drain — the sentinel keeps the loop body single
        and branch-predictable instead of hand-copying it per caller.
        """
        heap = self._heap
        pop = heapq.heappop
        while heap and heap[0][0] <= bound:
            time, _, callback = pop(heap)
            self.now = time
            callback(time)
        return self.now

    def _drain_observed(self, until: Optional[int]) -> int:
        """Instrumented twin of the unbounded / ``until``-bounded drains.

        Publishes per-drain event counts and deterministic heap-depth
        samples (every ``HEAP_SAMPLE_STRIDE`` events, stamped by lifetime
        event ordinal, never wall clock); the only clock reads are one pair
        around the whole drain, feeding the profiler's events/sec. Striding
        over the persistent ``_obs_processed`` counter keeps the sample
        sequence identical whether a run drains in one go or in many
        checkpoint segments. Between samples the loop body is the plain
        drain's: no per-event counter or modulo test.
        """
        obs = self.obs
        metrics = obs.metrics
        events_counter, depth_hist, cycles_gauge = self._resolve_obs_handles()
        heap = self._heap
        pop = heapq.heappop
        first = self._seq - len(heap)
        ordinal = self._obs_processed
        bound = NO_BOUND if until is None else until
        with obs.profiler.phase("engine"):
            # Pop in runs that end at the next lifetime ordinal divisible
            # by HEAP_SAMPLE_STRIDE, with _drain_plain's loop body; a run
            # counts its events as the growth of ``_seq - len(heap)``.
            while heap and heap[0][0] <= bound:
                done = self._seq - len(heap)
                for _ in repeat(None, HEAP_SAMPLE_STRIDE
                                - ordinal % HEAP_SAMPLE_STRIDE):
                    if not heap or heap[0][0] > bound:
                        break
                    time, _, callback = pop(heap)
                    self.now = time
                    callback(time)
                ordinal += self._seq - len(heap) - done
                if depth_hist is not None and ordinal % HEAP_SAMPLE_STRIDE == 0:
                    depth_hist.observe(len(heap))
        processed = self._seq - len(heap) - first
        self._obs_processed = ordinal
        obs.profiler.count("events", processed)
        if metrics is not None:
            events_counter.inc(processed)
            cycles_gauge.set(self.now)
        return self.now

    def _resolve_obs_handles(self):
        """(events_counter, depth_histogram, cycles_gauge) for ``self.obs``,
        resolved through the registry once and reused while the same obs
        object stays attached."""
        obs = self.obs
        handles = self._obs_handles
        if handles is not None and handles[0] is obs:
            return handles[1], handles[2], handles[3]
        metrics = obs.metrics
        if metrics is not None:
            trio = (
                metrics.counter("engine.events"),
                metrics.histogram("engine.heap_depth", HEAP_DEPTH_EDGES),
                metrics.gauge("engine.cycles"),
            )
        else:
            trio = (None, None, None)
        self._obs_handles = (obs,) + trio
        return trio

    def run(
        self, until: Optional[int] = None, max_events: Optional[int] = None
    ) -> int:
        """Run until the heap drains (or a bound is hit); return final time.

        ``until`` stops the loop once the next event would be later than the
        bound; ``max_events`` guards against runaway simulations.
        """
        if until is None and max_events is None:
            return self.run_until_empty()
        if max_events is None:
            if self.obs is not None and self.obs.enabled:
                return self._drain_observed(until)
            return self._drain_plain(until)
        processed = 0
        heap = self._heap
        pop = heapq.heappop
        while heap:
            time = heap[0][0]
            if until is not None and time > until:
                break
            time, _, callback = pop(heap)
            self.now = time
            callback(time)
            processed += 1
            if max_events is not None and processed >= max_events:
                raise RuntimeError(
                    f"exceeded {max_events} events; likely a livelock"
                )
        if self.obs is not None and self.obs.enabled:
            self.obs.profiler.count("events", processed)
            if self.obs.metrics is not None:
                events_counter, _, cycles_gauge = self._resolve_obs_handles()
                events_counter.inc(processed)
                cycles_gauge.set(self.now)
        return self.now
