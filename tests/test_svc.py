"""Unit tests for the sweep-service building blocks.

Covers the pieces that need no live daemon: the ndjson protocol, the
deterministic priority queue, the job wire codec, the quarantined clock,
and the multi-client ResultCache hardening (atomic hit-touch, the prune
lockfile, and the prune-vs-get race regression). The live-daemon
integration and crash-resume paths live in ``test_svc_service.py`` and
``test_svc_resume.py``.
"""

import json
import multiprocessing
import os
import random

import pytest

from repro.analysis.runner import (
    JOB_WIRE_SCHEMA_VERSION,
    PRUNE_LOCK_NAME,
    Job,
    ResultCache,
    SecurityJob,
)
from repro.analysis.storage import DirectoryLock, LockBusyError
from repro.jobs import JobSpec
from repro.mc.setup import MitigationSetup
from repro.svc import protocol
from repro.svc.clock import Clock
from repro.svc.queue import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    JobRecord,
    SweepQueue,
)


# ----------------------------------------------------------------------
# Protocol framing
# ----------------------------------------------------------------------
class TestProtocol:
    def test_encode_decode_round_trip(self):
        message = {"op": "submit", "jobs": [{"kind": "sim"}], "priority": 2}
        assert protocol.decode(protocol.encode(message)) == message

    def test_encoding_is_canonical(self):
        a = protocol.encode({"b": 1, "a": 2})
        b = protocol.encode({"a": 2, "b": 1})
        assert a == b
        assert a.endswith(b"\n")

    def test_oversized_message_is_refused(self):
        big = {"op": "submit", "blob": "x" * (protocol.MAX_LINE_BYTES + 1)}
        with pytest.raises(protocol.ProtocolError):
            protocol.encode(big)
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"x" * (protocol.MAX_LINE_BYTES + 1))

    def test_non_object_lines_are_refused(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"[1, 2]\n")
        with pytest.raises(protocol.ProtocolError):
            protocol.decode(b"not json\n")

    def test_unknown_op_is_refused(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_request({"op": "reboot"})
        op, _ = protocol.parse_request({"op": "ping"})
        assert op == "ping"

    def test_response_envelopes(self):
        assert protocol.response_error(protocol.ok(x=1)) is None
        assert protocol.response_error(protocol.error("nope")) == "nope"


# ----------------------------------------------------------------------
# Deterministic queue
# ----------------------------------------------------------------------
class TestSweepQueue:
    def submit(self, queue, n, priority=0):
        return [
            queue.submit("sim", object(), f"key{queue._next_seq}", priority)
            for _ in range(n)
        ]

    def test_fifo_within_a_priority_class(self):
        queue = SweepQueue()
        records = self.submit(queue, 3)
        popped = [queue.pop().job_id for _ in range(3)]
        assert popped == [r.job_id for r in records]

    def test_higher_priority_dispatches_first(self):
        queue = SweepQueue()
        low = queue.submit("sim", object(), "k0", priority=0)
        high = queue.submit("sim", object(), "k1", priority=5)
        assert queue.pop() is high
        assert queue.pop() is low

    def test_requeue_keeps_original_sequence(self):
        """A crashed shard goes back to the *head* of its priority class."""
        queue = SweepQueue()
        first, second = self.submit(queue, 2)
        crashed = queue.pop()
        assert crashed is first
        queue.requeue(crashed)
        assert queue.pop() is first  # beats `second` despite re-heaping
        assert queue.pop() is second

    def test_cancellation_is_lazy(self):
        queue = SweepQueue()
        a, b = self.submit(queue, 2)
        a.transition(CANCELLED)
        assert queue.pop() is b  # the stale heap entry is skipped
        assert queue.pop() is None

    def test_depth_counts_queued_only(self):
        queue = SweepQueue()
        a, b = self.submit(queue, 2)
        assert queue.depth() == 2
        a.transition(CANCELLED)
        assert queue.depth() == 1
        assert len(queue) == 2  # records are never forgotten

    @pytest.mark.parametrize("seed", range(10))
    def test_depth_count_matches_a_scan_under_random_lifecycles(self, seed):
        """The kept count equals the brute-force scan after every step
        of a random mix of the scheduler's transitions."""
        rng = random.Random(seed)
        queue = SweepQueue()

        def scan():
            return sum(
                1 for r in queue.records.values() if r.state == QUEUED
            )

        for _ in range(400):
            by_state = {}
            for r in queue.records.values():
                by_state.setdefault(r.state, []).append(r)
            op = rng.choice(["submit", "pop", "requeue", "cancel", "finish"])
            if op == "submit":
                queue.submit("sim", object(), f"k{rng.randrange(5)}",
                             rng.randrange(3))
            elif op == "pop":
                record = queue.pop()
                if record is not None:
                    assert queue.depth() == scan()
                    record.transition(rng.choice([RUNNING, DONE]))
            elif op == "requeue" and by_state.get(RUNNING):
                queue.requeue(rng.choice(by_state[RUNNING]))
            elif op == "cancel":
                live = by_state.get(QUEUED, []) + by_state.get(RUNNING, [])
                if live:
                    rng.choice(live).transition(CANCELLED)
            elif op == "finish" and by_state.get(RUNNING):
                rng.choice(by_state[RUNNING]).transition(
                    rng.choice([DONE, FAILED])
                )
            assert queue.depth() == scan()

    def test_history_records_every_transition(self):
        record = JobRecord(
            job_id="J0", kind="sim", job=object(), key="k",
            priority=0, seq=0,
        )
        record.transition("running")
        record.transition(QUEUED)
        record.transition("running")
        record.transition("done")
        assert record.history == [
            "queued", "running", "queued", "running", "done",
        ]
        view = record.status_record(snapshots=2)
        assert view["snapshots"] == 2
        json.dumps(view)  # the status view is plain JSON


# ----------------------------------------------------------------------
# Job wire codec
# ----------------------------------------------------------------------
class TestJobWire:
    def test_sim_job_round_trips_losslessly(self):
        job = Job(
            "mcf",
            MitigationSetup(mechanism="autorfm", tracker="mint", threshold=4),
            "rubix", 400, 7, segment_cycles=8000, backend="scalar",
        )
        wire = job.to_wire()
        assert wire["kind"] == "sim"
        assert wire["schema"] == JOB_WIRE_SCHEMA_VERSION
        decoded = Job.from_wire(json.loads(json.dumps(wire)))
        assert decoded == job

    def test_security_job_round_trips_losslessly(self):
        job = SecurityJob(
            acts=2000, window=4, tracker="mint", policy="fractal", seeds=3,
            scenario="abcd_k", scenario_params={"stride": 20},
        )
        wire = job.to_wire()
        decoded = SecurityJob.from_wire(json.loads(json.dumps(wire)))
        assert decoded == job
        assert isinstance(decoded.rows, tuple)
        assert isinstance(decoded.scenario_params, tuple)

    def test_any_job_dispatches_on_kind(self):
        sim = Job("xz")
        sec = SecurityJob(seeds=2)
        assert JobSpec.from_wire(sim.to_wire()) == sim
        assert JobSpec.from_wire(sec.to_wire()) == sec

    def test_wrong_schema_version_is_refused(self):
        wire = Job("xz").to_wire()
        wire["schema"] = JOB_WIRE_SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema"):
            Job.from_wire(wire)

    def test_wrong_kind_is_refused(self):
        wire = Job("xz").to_wire()
        wire["kind"] = "security"
        with pytest.raises(ValueError):
            Job.from_wire(wire)
        with pytest.raises(ValueError, match="kind"):
            JobSpec.from_wire({"kind": "mystery", "schema": 1})

    def test_unknown_security_fields_are_refused(self):
        wire = SecurityJob().to_wire()
        wire["surprise"] = 1
        with pytest.raises(ValueError, match="surprise"):
            SecurityJob.from_wire(wire)


# ----------------------------------------------------------------------
# The quarantined clock
# ----------------------------------------------------------------------
class TestClock:
    def test_touch_creates_and_freshens(self, tmp_path):
        clock = Clock()
        target = str(tmp_path / "beat")
        clock.touch(target)
        assert os.path.exists(target)
        assert clock.age_of(target) < 60.0

    def test_age_of_missing_file_is_infinite(self, tmp_path):
        assert Clock().age_of(str(tmp_path / "nope")) == float("inf")

    def test_now_is_monotonic(self):
        clock = Clock()
        assert clock.now() <= clock.now()


# ----------------------------------------------------------------------
# DirectoryLock + the prune-vs-get race regression
# ----------------------------------------------------------------------
def _make_entry(cache, name, mtime):
    path = os.path.join(cache.directory, name)
    with open(path, "w") as handle:
        handle.write("{}" * 64)
    os.utime(path, (mtime, mtime))
    return path


class TestDirectoryLock:
    def test_second_acquire_is_refused_while_held(self, tmp_path):
        path = str(tmp_path / "x.lock")
        first, second = DirectoryLock(path), DirectoryLock(path)
        assert first.acquire()
        assert not second.acquire()
        first.release()
        assert second.acquire()
        second.release()

    def test_context_manager_raises_when_busy(self, tmp_path):
        path = str(tmp_path / "x.lock")
        with DirectoryLock(path):
            with pytest.raises(LockBusyError):
                with DirectoryLock(path):
                    pass
        assert not os.path.exists(path)

    def test_stale_lock_of_dead_owner_is_stolen(self, tmp_path):
        path = str(tmp_path / "x.lock")
        proc = multiprocessing.Process(target=lambda: None)
        proc.start()
        proc.join()
        with open(path, "w") as handle:
            handle.write(str(proc.pid))  # a pid that no longer exists
        assert DirectoryLock(path).acquire()

    def test_unparseable_lock_is_stolen(self, tmp_path):
        path = str(tmp_path / "x.lock")
        with open(path, "w") as handle:
            handle.write("not-a-pid")
        assert DirectoryLock(path).acquire()


class TestCachePruneRace:
    def test_prune_skips_when_another_pruner_holds_the_lock(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        _make_entry(cache, "aaa.json", 1_000)
        with DirectoryLock(os.path.join(cache.directory, PRUNE_LOCK_NAME)):
            outcome = cache.prune(0)
        assert outcome == {"removed": 0, "freed_bytes": 0, "skipped": True}
        assert os.path.exists(os.path.join(cache.directory, "aaa.json"))
        # With the lock free again the prune proceeds.
        assert cache.prune(0)["removed"] == 1

    def test_hit_touched_entry_is_spared_mid_prune(self, tmp_path):
        """The regression: get() between scan and unlink must spare the
        entry.

        ``get`` touches the file's mtime *before* reading; the pruner
        re-stats each victim immediately before its unlink and spares any
        file whose mtime advanced past the scan. Interleaving the two via
        ``_prune_locked`` makes the race deterministic.
        """
        cache = ResultCache(str(tmp_path))
        _make_entry(cache, "hot.json", 1_000)
        _make_entry(cache, "cold.json", 2_000)
        entries = cache._entries()  # the pruner's scan happens first...
        cache.get("hot")           # ...then a concurrent client hits "hot"
        outcome = cache._prune_locked(entries, 0)
        assert os.path.exists(os.path.join(cache.directory, "hot.json"))
        assert not os.path.exists(os.path.join(cache.directory, "cold.json"))
        assert outcome["removed"] == 1

    def test_get_touches_before_reading(self, tmp_path):
        """Even a miss freshens the mtime — the touch precedes the read."""
        cache = ResultCache(str(tmp_path))
        path = _make_entry(cache, "k.json", 1_000)
        assert cache.get("k") is None  # junk content: a miss
        assert os.stat(path).st_mtime > 1_000

    def test_prune_still_prunes_lru_first(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        _make_entry(cache, "old.json", 1_000)
        keep = _make_entry(cache, "new.json", 2_000)
        outcome = cache.prune(os.stat(keep).st_size)
        assert outcome["removed"] == 1
        assert not outcome["skipped"]
        assert os.path.exists(keep)

    def test_prune_lockfile_is_not_counted_or_evicted(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        _make_entry(cache, "a.json", 1_000)
        cache.prune(0)
        stats = cache.stats()
        assert stats["results"] == 0
        assert not os.path.exists(
            os.path.join(cache.directory, PRUNE_LOCK_NAME)
        )


class TestSnapshotIndex:
    def test_counts_match_per_key_boundaries(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        snapshots = [("k1", 300), ("k1", 100), ("k2", 200)]
        junk = ["k3.seg-notanumber.ckpt.gz", "k1.json", "k4.ckpt.gz"]
        paths = [cache.snapshot_path(k, b) for k, b in snapshots]
        paths += [os.path.join(cache.directory, name) for name in junk]
        for path in paths:
            open(path, "w").close()
        counts = cache.snapshot_counts()
        assert counts == {"k1": 2, "k2": 1}
        for key in ("k1", "k2", "k3", "k4"):
            assert counts.get(key, 0) == len(cache.snapshot_boundaries(key))
        assert cache.snapshot_boundaries("k1") == [100, 300]

    def test_missing_directory_has_no_snapshots(self, tmp_path):
        cache = ResultCache(str(tmp_path / "absent"))
        assert cache.snapshot_counts() == {}
        assert cache.snapshot_boundaries("k") == []
