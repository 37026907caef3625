"""Live-daemon integration tests for the sweep service.

Each test starts a real :class:`~repro.svc.SweepService` on a Unix socket
in a background thread and talks to it through :class:`~repro.svc.
SweepClient` — the same path the CLI and CI service step use. The
differential tests compare daemon-served results against a fresh
in-process :class:`~repro.analysis.runner.ExperimentRunner` run with its
own isolated cache directory, byte-for-byte on the canonical JSON form.
"""

import json
import shutil
import tempfile
import threading
import time

import pytest

from repro.analysis.runner import (
    ExperimentRunner,
    Job,
    SecurityJob,
    _security_results_to_dicts,
    result_to_dict,
)
from repro.cli import main
from tests.test_runner import CACHE_FAULTS, _corrupt
from repro.mc.setup import MitigationSetup
from repro.svc import (
    ServiceError,
    SweepClient,
    SweepService,
    daemon_available,
    protocol,
)

REQUESTS = 300
SETUP = MitigationSetup(mechanism="autorfm", tracker="mint", threshold=4)


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


@pytest.fixture
def service_dir():
    """A *short* scratch path: Unix socket paths are length-limited, so
    pytest's deeply nested tmp_path is unusable here."""
    path = tempfile.mkdtemp(prefix="rsvc-", dir="/tmp")
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture
def daemon(service_dir):
    """A live daemon on ``<service_dir>/s.sock`` with 2 workers."""
    service = SweepService(
        service_dir + "/s.sock",
        workers=2,
        requests=REQUESTS,
        cache_dir=service_dir + "/cache",
        poll_interval=0.02,
    )
    thread = threading.Thread(target=service.run, daemon=True)
    thread.start()
    assert service.wait_ready(10)
    yield service
    service.stop()
    thread.join(timeout=15)
    assert not thread.is_alive()


def in_process(jobs, service_dir):
    """The same jobs through the plain runner, in an isolated cache."""
    runner = ExperimentRunner(jobs=1, cache_dir=service_dir + "/refcache")
    return runner.run_many(jobs)


class TestServiceBatch:
    def test_three_job_batch_hit_cancel_and_differential(
        self, daemon, service_dir
    ):
        """The CI scenario: a 3-job batch with one duplicate (answered
        from the shared store) and one cancel, byte-identical to the
        in-process runner."""
        fresh = Job("xz", SETUP, "rubix", REQUESTS, 1)
        duplicate = Job("xz", SETUP, "rubix", REQUESTS, 1)
        doomed = Job("mcf", SETUP, "rubix", REQUESTS, 1)
        with SweepClient(daemon.socket_path) as client:
            ids = client.submit([fresh, duplicate, doomed])
            assert len(ids) == 3
            assert client.cancel(ids[2]) == "cancelled"
            first = client.result(ids[0], wait=True, timeout=180)
            second = client.result(ids[1], wait=True, timeout=180)
            records = {r["id"]: r for r in client.status()}

        assert records[ids[0]]["state"] == "done"
        assert records[ids[1]]["state"] == "done"
        # The doomed job may have been caught queued or already running
        # (its worker is killed either way); cancelled is terminal.
        assert records[ids[2]]["state"] == "cancelled"
        assert records[ids[2]]["history"][-1] == "cancelled"
        # The duplicate never executed: it was merged into the in-flight
        # twin or answered straight from the cache.
        assert records[ids[1]]["from_cache"]
        assert canonical(first["result"]) == canonical(second["result"])

        (expected,) = in_process([fresh], service_dir)
        assert canonical(result_to_dict(expected)) == canonical(
            first["result"]
        )

        # A cancelled job has no result to serve.
        with SweepClient(daemon.socket_path) as client:
            with pytest.raises(ServiceError, match="cancelled"):
                client.result(ids[2], wait=True, timeout=5)

    def test_resubmission_is_a_cache_hit_with_metrics(
        self, daemon, service_dir
    ):
        job = Job("wrf", SETUP, "rubix", REQUESTS, 1)
        with SweepClient(daemon.socket_path) as client:
            (first_id,) = client.submit([job])
            first = client.result(first_id, wait=True, timeout=180)
            assert not first["from_cache"]
            (second_id,) = client.submit([job])
            second = client.result(second_id, wait=True, timeout=60)
            assert second["from_cache"]
            assert canonical(first["result"]) == canonical(second["result"])

            stats = client.cache_stats()
        counters = stats["metrics"]["counters"]
        assert counters["svc.cache_hits"] >= 1
        assert counters["svc.cache_misses"] >= 1
        assert counters["svc.jobs_submitted"] == 2
        assert counters["svc.jobs_completed"] == 2
        assert stats["metrics"]["gauges"]["svc.queue_depth"] == 0
        assert stats["cache"]["results"] >= 1
        assert stats["workers"]["total"] == 2

    def test_security_job_round_trips_through_the_daemon(
        self, daemon, service_dir
    ):
        job = SecurityJob(acts=2000, window=4, seeds=3)
        with SweepClient(daemon.socket_path) as client:
            (job_id,) = client.submit([job])
            response = client.result(job_id, wait=True, timeout=180)
        assert response["kind"] == "security"
        runner = ExperimentRunner(
            jobs=1, cache_dir=service_dir + "/refcache"
        )
        expected = _security_results_to_dicts(runner.run_security(job))
        assert canonical(expected) == canonical(response["result"])

    def test_campaign_job_round_trips_through_the_daemon(
        self, daemon, service_dir
    ):
        """A campaign cell served by the daemon equals the in-process
        engine byte-for-byte, and a resubmission is a pure cache hit."""
        from repro.analysis.runner import CampaignJob

        job = CampaignJob(window=4, acts=1200, max_seeds=80)
        with SweepClient(daemon.socket_path) as client:
            (job_id,) = client.submit([job])
            response = client.result(job_id, wait=True, timeout=180)
            (status,) = client.status(job_id)
            (again,) = client.submit([job])
            cached = client.result(again, wait=True, timeout=60)
        assert response["kind"] == "campaign"
        assert status["kind"] == "campaign"
        runner = ExperimentRunner(
            jobs=1, cache_dir=service_dir + "/refcache"
        )
        expected = runner.run_campaign(job)
        assert canonical(expected) == canonical(response["result"])
        assert cached["from_cache"] is True
        assert canonical(cached["result"]) == canonical(response["result"])

    def test_priority_orders_the_backlog(self, service_dir):
        """With the single worker busy, a late high-priority job overtakes
        the earlier low-priority one in the backlog."""
        service = SweepService(
            service_dir + "/p.sock",
            workers=1,
            requests=REQUESTS,
            cache_dir=service_dir + "/pcache",
            poll_interval=0.02,
        )
        thread = threading.Thread(target=service.run, daemon=True)
        thread.start()
        assert service.wait_ready(10)
        try:
            blocker = Job("xz", SETUP, "rubix", REQUESTS, 11)
            low = Job("xz", SETUP, "rubix", REQUESTS, 13)
            high = Job("xz", SETUP, "rubix", REQUESTS, 14)
            with SweepClient(service.socket_path) as client:
                client.submit([blocker])
                (low_id,) = client.submit([low], priority=0)
                (high_id,) = client.submit([high], priority=5)
                client.result(high_id, wait=True, timeout=180)
                # One worker: `high` done means it was dispatched ahead of
                # the earlier-submitted `low`, which cannot be done yet.
                (low_rec,) = client.status(low_id)
                assert low_rec["state"] in ("queued", "running")
                client.result(low_id, wait=True, timeout=180)
        finally:
            service.stop()
            thread.join(timeout=15)

    def test_worker_exit_frees_its_slot_before_the_poll_tick(
        self, service_dir
    ):
        """A worker's exit wakes the scheduler: with one worker and a
        5 s poll interval, two short jobs (the second waiting for the
        first one's slot) finish well inside a single tick."""
        poll_interval = 5.0
        service = SweepService(
            service_dir + "/w.sock",
            workers=1,
            requests=REQUESTS,
            cache_dir=service_dir + "/wcache",
            poll_interval=poll_interval,
        )
        thread = threading.Thread(target=service.run, daemon=True)
        thread.start()
        assert service.wait_ready(10)
        try:
            jobs = [SecurityJob(acts=1000, window=4, seeds=2, rows=(row,))
                    for row in (70_000, 80_000)]
            with SweepClient(service.socket_path) as client:
                start = time.monotonic()
                ids = client.submit(jobs)
                for job_id in ids:
                    client.result(job_id, wait=True, timeout=60)
                elapsed = time.monotonic() - start
        finally:
            service.stop()
            thread.join(timeout=15)
        assert not thread.is_alive()
        assert elapsed < poll_interval / 2

    def test_one_worker_exit_costs_one_scheduler_pass(self, service_dir):
        """A worker's sentinel stays readable while the process tears
        down; the scheduler must not spin on it. With a 5 s poll interval
        every pass comes from a wake-up (a submit, a spawn, an exit), so
        a short cold batch takes a handful of ``_reap_workers`` passes
        per job."""
        service = SweepService(
            service_dir + "/p.sock",
            workers=2,
            requests=REQUESTS,
            cache_dir=service_dir + "/pcache",
            poll_interval=5.0,
        )
        passes = [0]
        reap = service._reap_workers

        def counted_reap():
            passes[0] += 1
            reap()

        service._reap_workers = counted_reap
        thread = threading.Thread(target=service.run, daemon=True)
        thread.start()
        assert service.wait_ready(10)
        jobs = [SecurityJob(acts=1000, window=4, seeds=2, rows=(row,))
                for row in (60_000, 70_000, 80_000, 90_000)]
        try:
            with SweepClient(service.socket_path) as client:
                for job_id in client.submit(jobs):
                    client.result(job_id, wait=True, timeout=60)
        finally:
            service.stop()
            thread.join(timeout=15)
        assert not thread.is_alive()
        assert passes[0] <= 4 * len(jobs), f"{passes[0]} passes"

    def test_stop_with_an_idle_client_connected_logs_no_error(
        self, service_dir, caplog
    ):
        """Stopping the daemon closes open client connections and lets
        their handlers return, so asyncio.run has no handler task left to
        cancel (which Python 3.11 logs as an ERROR traceback)."""
        service = SweepService(
            service_dir + "/i.sock",
            workers=1,
            requests=REQUESTS,
            cache_dir=service_dir + "/icache",
            poll_interval=0.02,
        )
        thread = threading.Thread(target=service.run, daemon=True)
        thread.start()
        assert service.wait_ready(10)
        with caplog.at_level("DEBUG", logger="asyncio"):
            with SweepClient(service.socket_path) as client:
                client.ping()
                service.stop()
                thread.join(timeout=15)
                assert not thread.is_alive()
        errors = [r for r in caplog.records
                  if r.name == "asyncio" and r.levelname == "ERROR"]
        assert errors == [], [r.getMessage() for r in errors]

    def test_unknown_job_id_is_a_service_error(self, daemon):
        with SweepClient(daemon.socket_path) as client:
            with pytest.raises(ServiceError, match="unknown job id"):
                client.status("J999999")
            with pytest.raises(ServiceError, match="unknown job id"):
                client.result("J999999", wait=False)

    def test_malformed_submissions_are_refused(self, daemon):
        with SweepClient(daemon.socket_path) as client:
            with pytest.raises(ServiceError, match="jobs"):
                client._call("submit", jobs=[])
            with pytest.raises(ServiceError, match="kind"):
                client._call("submit", jobs=[{"kind": "mystery"}])
            # The connection survives refused requests.
            assert client.ping()["ok"]

    def test_every_protocol_op_round_trips_through_a_client_method(
        self, daemon
    ):
        """Each op in ``protocol.OPS`` has a handler in the daemon's
        dispatch table and a SweepClient method the live daemon answers
        successfully."""
        assert sorted(SweepService._handlers) == sorted(protocol.OPS)
        issued = []
        with SweepClient(daemon.socket_path) as client:
            call = client._call

            def recording(op, **fields):
                response = call(op, **fields)
                issued.append(op)
                return response

            client._call = recording
            assert client.ping()["protocol"] == protocol.PROTOCOL_VERSION
            (job_id,) = client.submit([SecurityJob(acts=500, window=4,
                                                   seeds=2)])
            assert client.result(job_id, wait=True, timeout=180)["ok"]
            assert client.status(job_id)[0]["state"] == "done"
            assert client.cancel(job_id) == "done"  # terminal: no-op
            assert client.cache_stats()["workers"]["total"] == 2
            client.shutdown()
        assert sorted(issued) == sorted(protocol.OPS)

    def test_daemon_available_reflects_liveness(self, daemon, service_dir):
        assert daemon_available(daemon.socket_path)
        assert not daemon_available(service_dir + "/nope.sock")


def count_reads(service):
    """Wrap the daemon cache's one read primitive; returns the per-key
    call counts, filled as the daemon reads."""
    calls = {}
    read = service.cache.read

    def counted(key, kind):
        calls[key] = calls.get(key, 0) + 1
        return read(key, kind)

    service.cache.read = counted
    return calls


class TestServiceHitPath:
    """A DONE record carries the validated entry it finished with to its
    first `result` fetch; later fetches read the store again."""

    def test_warm_hit_reads_its_entry_once(self, daemon):
        job = Job("wrf", SETUP, "rubix", REQUESTS, 2)
        key = daemon.key_for(job)
        reads = count_reads(daemon)
        with SweepClient(daemon.socket_path) as client:
            (cold_id,) = client.submit([job])
            cold = client.result(cold_id, wait=True, timeout=180)
            # The dispatch-time miss, then the publish check at reap.
            assert reads[key] == 2
            (warm_id,) = client.submit([job])
            warm = client.result(warm_id, wait=True, timeout=60)
            assert warm["from_cache"]
            assert reads[key] == 3  # the dispatch-time hit, served as read
            assert canonical(warm["result"]) == canonical(cold["result"])

            again = client.result(warm_id, wait=False)
            assert reads[key] == 4  # a later fetch answers from the cache
            assert canonical(again["result"]) == canonical(warm["result"])
            counters = client.cache_stats()["metrics"]["counters"]
        assert counters["svc.cache_hits"] == 1
        assert counters["svc.cache_misses"] == 1

    def test_later_fetch_of_a_deleted_entry_reports_eviction(self, daemon):
        job = Job("wrf", SETUP, "rubix", REQUESTS, 3)
        with SweepClient(daemon.socket_path) as client:
            (job_id,) = client.submit([job])
            first = client.result(job_id, wait=True, timeout=180)
            assert first["state"] == "done"
            daemon.cache.clear()
            with pytest.raises(ServiceError, match="evicted"):
                client.result(job_id, wait=False)

    def test_dedup_follower_is_served_its_primarys_entry(self, daemon):
        job = Job("xz", SETUP, "zen", REQUESTS, 4)
        key = daemon.key_for(job)
        reads = count_reads(daemon)
        with SweepClient(daemon.socket_path) as client:
            ids = client.submit([job, job])
            first, second = (
                client.result(i, wait=True, timeout=180) for i in ids
            )
            (follower,) = client.status(ids[1])
        assert follower["merged_into"] == ids[0]
        assert canonical(first["result"]) == canonical(second["result"])
        assert reads[key] == 2  # the primary's miss and its publish check

    def test_status_lists_the_cache_directory_once(self, daemon):
        jobs = [Job("wrf", SETUP, "rubix", REQUESTS, s) for s in (6, 7, 8)]
        listings = []
        scan = daemon.cache._snapshots

        def counted():
            listings.append(1)
            return scan()

        with SweepClient(daemon.socket_path) as client:
            for job_id in client.submit(jobs):
                client.result(job_id, wait=True, timeout=180)
            daemon.cache._snapshots = counted
            records = client.status()
        assert len(records) == 3
        assert [r["snapshots"] for r in records] == [0, 0, 0]
        assert len(listings) == 1

    @pytest.mark.parametrize("fault", CACHE_FAULTS)
    def test_damaged_entry_is_recomputed(self, daemon, fault):
        job = Job("wrf", SETUP, "rubix", REQUESTS, 5)
        with SweepClient(daemon.socket_path) as client:
            (first_id,) = client.submit([job])
            first = client.result(first_id, wait=True, timeout=180)
            _corrupt(daemon.cache._path(daemon.key_for(job)), fault)
            (again_id,) = client.submit([job])
            again = client.result(again_id, wait=True, timeout=180)
            counters = client.cache_stats()["metrics"]["counters"]
        assert not again["from_cache"]
        assert canonical(again["result"]) == canonical(first["result"])
        assert counters["svc.cache_misses"] == 2
        assert counters.get("svc.cache_hits", 0) == 0


class TestServiceCli:
    def test_cli_round_trip_against_live_daemon(
        self, daemon, service_dir, capsys
    ):
        sock = daemon.socket_path
        code = main([
            "submit", "--workloads", "xz", "--mechanism", "autorfm",
            "--threshold", "4", "--requests", str(REQUESTS),
            "--socket", sock, "--wait",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "submitted J000000" in out
        assert "cycles" in out

        assert main(["status", "--socket", sock]) == 0
        out = capsys.readouterr().out
        assert "J000000" in out and "done" in out

        assert main(["result", "J000000", "--socket", sock]) == 0
        assert "cycles" in capsys.readouterr().out

        assert main(["cache", "--daemon", "--socket", sock]) == 0
        out = capsys.readouterr().out
        assert "svc.jobs_submitted" in out

        # Cancelling a finished job is a no-op state echo.
        assert main(["cancel", "J000000", "--socket", sock]) == 0
        assert "done" in capsys.readouterr().out

    def test_cli_client_commands_fail_cleanly_without_daemon(
        self, service_dir, capsys
    ):
        sock = service_dir + "/nope.sock"
        assert main(["status", "--socket", sock]) == 2
        assert main(["result", "J000000", "--socket", sock]) == 2
        assert main(["cancel", "J000000", "--socket", sock]) == 2
        err = capsys.readouterr().err
        assert "repro serve" in err
