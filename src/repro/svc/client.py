"""Synchronous client for the sweep-service daemon.

:class:`SweepClient` speaks the ndjson protocol over a Unix socket and
exposes one method per op. It is deliberately thin: encoding lives in
:mod:`repro.svc.protocol`, job payload encoding in the job model's wire
codec (:meth:`repro.jobs.JobSpec.to_wire`), and every decision
— scheduling, dedup, caching — stays on the daemon side. The CLI's thin
``repro submit|status|result|cancel`` subcommands are built on this class
and fall back to in-process execution when :func:`daemon_available` says
no daemon is listening.
"""

from __future__ import annotations

import os
import socket
from typing import IO, Dict, List, Optional

from repro.jobs import JobSpec
from repro.svc import protocol
from repro.svc.scheduler import default_socket_path


class ServiceError(RuntimeError):
    """The daemon answered with an error response."""


def daemon_available(socket_path: Optional[str] = None) -> bool:
    """True when a live daemon answers a ``ping`` on ``socket_path``."""
    path = socket_path or default_socket_path()
    if not os.path.exists(path):
        return False
    try:
        with SweepClient(path) as client:
            client.ping()
        return True
    except (OSError, ServiceError, protocol.ProtocolError):
        return False


class SweepClient:
    """One connection to a sweep-service daemon."""

    def __init__(
        self,
        socket_path: Optional[str] = None,
        connect_timeout: float = 5.0,
    ) -> None:
        self.socket_path = socket_path or default_socket_path()
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(connect_timeout)
        try:
            self._sock.connect(self.socket_path)
        except OSError:
            self._sock.close()
            raise
        # Blocking from here on: `result --wait` legitimately sits until
        # the job finishes.
        self._sock.settimeout(None)
        self._reader: IO[bytes] = self._sock.makefile("rb")

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the socket; the daemon keeps running."""
        try:
            self._reader.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "SweepClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _call(self, op: str, **fields: object) -> dict:
        """One request/response round trip; raises on error responses."""
        request: Dict[str, object] = {"op": op}
        request.update(fields)
        self._sock.sendall(protocol.encode(request))
        line = self._reader.readline()
        if not line:
            raise ServiceError(f"daemon closed the connection during {op!r}")
        response = protocol.decode(line)
        failure = protocol.response_error(response)
        if failure is not None:
            raise ServiceError(failure)
        return response

    # ------------------------------------------------------------------
    def ping(self) -> dict:
        """Liveness + protocol version check."""
        return self._call("ping")

    def submit(
        self,
        jobs: List[JobSpec],
        priority: int = 0,
    ) -> List[str]:
        """Enqueue jobs; returns their daemon-assigned ids, in order."""
        response = self._call(
            "submit",
            jobs=[job.to_wire() for job in jobs],
            priority=priority,
        )
        return list(response["job_ids"])

    def status(self, job_id: Optional[str] = None) -> List[dict]:
        """Status records for one job (or every known job, seq order)."""
        fields = {"id": job_id} if job_id is not None else {}
        return list(self._call("status", **fields)["jobs"])

    def result(
        self,
        job_id: str,
        wait: bool = True,
        timeout: Optional[float] = None,
    ) -> dict:
        """The job's result payload (blocks until done when ``wait``).

        Returns the full response: ``result`` holds the result dict (sim)
        or per-seed list (security); ``from_cache`` says whether the
        daemon answered without executing.
        """
        fields: dict = {"id": job_id, "wait": wait}
        if timeout is not None:
            fields["timeout"] = timeout
        return self._call("result", **fields)

    def cancel(self, job_id: str) -> str:
        """Cancel a queued or running job; returns its new state."""
        return self._call("cancel", id=job_id)["state"]

    def cache_stats(self) -> dict:
        """Daemon-side cache occupancy, metrics snapshot, queue/workers."""
        return self._call("cache")

    def shutdown(self) -> None:
        """Ask the daemon to stop."""
        self._call("shutdown")
