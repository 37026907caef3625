"""Memory request record passed from the cores to the controller."""

from __future__ import annotations

from typing import Callable, Optional

CompletionCallback = Callable[[int], None]


class Request:
    """One 64 B read or write.

    ``row`` and ``flat_bank`` are the decoded DRAM location. A core built
    from a decoded trace fills them in; a request that arrives undecoded
    (``flat_bank < 0``) is decoded by
    :meth:`repro.mc.controller.MemoryController.submit`.
    ``on_complete`` fires (with the completion cycle) when the data transfer
    finishes; writes are fire-and-forget and usually pass ``None``.
    ``retry_at`` is used by the per-request ALERT-retry ablation; the default
    per-bank busy table never sets it.

    A plain slotted class rather than a dataclass: one is allocated per
    memory request, and ``dataclass(slots=True)`` needs Python 3.10.
    """

    __slots__ = (
        "core_id", "line_addr", "is_write", "arrival", "row", "flat_bank",
        "on_complete", "alerts", "retry_at", "_order",
    )

    def __init__(
        self,
        core_id: int,
        line_addr: int,
        is_write: bool,
        arrival: int,
        row: int = -1,
        flat_bank: int = -1,
        on_complete: Optional[CompletionCallback] = None,
        alerts: int = 0,
        retry_at: int = 0,
    ):
        self.core_id = core_id
        self.line_addr = line_addr
        self.is_write = is_write
        self.arrival = arrival
        self.row = row
        self.flat_bank = flat_bank
        self.on_complete = on_complete
        self.alerts = alerts
        self.retry_at = retry_at
        self._order = 0

    def __repr__(self) -> str:
        return (
            f"Request(core_id={self.core_id}, line_addr={self.line_addr}, "
            f"is_write={self.is_write}, arrival={self.arrival}, "
            f"row={self.row}, flat_bank={self.flat_bank}, "
            f"alerts={self.alerts}, retry_at={self.retry_at})"
        )
