"""Shared plumbing for the repository benchmark: clocks, output, spans.

Nothing here imports ``repro``: ``run.py`` checks that the source tree is
present before any workload module (which does import it) is loaded.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import resource
import statistics
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional

#: Worker processes for every parallel phase: at most two, never more than
#: the machine has cores.
WORKERS = max(1, min(2, os.cpu_count() or 1))

#: Packages of ``repro`` that ``simulate()`` runs through; every other
#: frame (workload generation, numpy, the stdlib) is booked as ``other``.
SIM_PACKAGES = (
    "sim", "cpu", "mc", "dram", "core", "trackers", "rfm", "mapping", "obs",
)

#: Run outputs (per-run result files, traced-mode profiles, scratch cache
#: directories) live under the checkout, never outside it.
OUT_DIR = os.path.join("perfbench", "out")


def process_age_s() -> float:
    """Seconds since this process started (0.0 where /proc is absent).

    Read from the kernel's start stamp so interpreter start-up and imports
    count towards ``setup_s``; resolution is one clock tick (10 ms).
    """
    try:
        with open("/proc/self/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        with open("/proc/uptime") as f:
            uptime = float(f.read().split()[0])
    except (OSError, IndexError, ValueError):
        return 0.0
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return max(0.0, uptime - start)


class SetupClock:
    """``setup_s``: process start up to the first timed call."""

    def __init__(self) -> None:
        self._age = process_age_s()
        self._t0 = time.perf_counter()
        self.setup_s: Optional[float] = None

    def first_timed_call(self) -> None:
        if self.setup_s is None:
            self.setup_s = self._age + (time.perf_counter() - self._t0)


def peak_rss_mb() -> Dict[str, float]:
    """Peak RSS of this process and of its largest reaped child, in MB."""
    # ru_maxrss is in KiB on Linux.
    return {"self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "children": resource.getrusage(
                resource.RUSAGE_CHILDREN).ru_maxrss / 1024}


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def quantile(values: List[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in (0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


def live_children() -> List[int]:
    """PIDs of this process's living children, from every thread's list.

    Unlike ``multiprocessing.active_children()`` this also sees processes
    the pool executors and the sweep daemon started.
    """
    pids: List[int] = []
    try:
        tids = os.listdir("/proc/self/task")
    except OSError:
        return pids
    for tid in tids:
        try:
            with open(f"/proc/self/task/{tid}/children") as f:
                pids.extend(int(p) for p in f.read().split())
        except OSError:
            continue
    return sorted(pids)


class Spans:
    """Benchmark-side spans: wall time and call counts per layer name.

    Wraps calls the benchmark makes into a layer's public functions; the
    program itself is not instrumented.
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    def add(self, name: str, seconds: float) -> None:
        self.seconds[name] = self.seconds.get(name, 0.0) + seconds
        self.calls[name] = self.calls.get(name, 0) + 1

    def get(self, name: str) -> float:
        return self.seconds.get(name, 0.0)


def _package_of(filename: str) -> Optional[str]:
    marker = os.sep + "repro" + os.sep
    if marker not in filename:
        return None
    package = filename.rsplit(marker, 1)[1].split(os.sep, 1)[0]
    return package if package in SIM_PACKAGES else None


def self_time_by_package(profile: cProfile.Profile) -> Dict[str, float]:
    """Self seconds per ``repro`` package from a deterministic profile.

    C builtins (``heapq.heappop``, ``len``, ...) have no source file; their
    time is booked to the package of the caller on each call edge, so the
    engine's heap work lands in ``sim``, not in ``other``.
    """
    totals = {name: 0.0 for name in SIM_PACKAGES + ("other",)}
    stats = pstats.Stats(profile).stats  # type: ignore[attr-defined]
    for (filename, _, _), (_, _, tottime, _, callers) in stats.items():
        if filename == "~" and callers:
            for (caller_file, _, _), edge in callers.items():
                totals[_package_of(caller_file) or "other"] += edge[2]
            continue
        totals[_package_of(filename) or "other"] += tottime
    return totals


def write_json(path: str, payload: dict) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
