"""Per-bank DRAM state machine.

The paper's system uses a closed-page policy that still permits row-buffer
hits: after an ACT the row stays open for tRAS, then auto-precharges. A
request to the open row within that window is a row hit. The bank can accept
the next ACT tRC after the previous one (tRC = tRAS + tRP exactly).

A bank optionally hosts:

* an :class:`~repro.core.autorfm.AutoRfmEngine` (AutoRFM mode) — transparent
  subarray mitigation, or
* a tracker + mitigation policy pair (RFM mode) — mitigation is performed
  during explicit RFM commands and during REF.
"""

from __future__ import annotations

from typing import Optional

from repro.core.autorfm import AutoRfmEngine
from repro.core.mitigation import MitigationPolicy
from repro.sim.config import SystemConfig
from repro.sim.stats import BankStats
from repro.trackers.base import Tracker
from repro.ckpt.contract import checkpointable

NO_ROW = -1


class _BankObsHooks:
    """Pre-resolved metric objects for the RFM-mode mitigation path.

    One slotted bundle keeps the bank's instance dict at its original
    size when observability is off; see :class:`repro.obs.Observability`.

    Attached through the memory controller's hook bundle, increments
    accumulate in plain ints and :meth:`flush` publishes them at the next
    drain boundary.
    """

    __slots__ = ("m_mitigations", "m_victims", "m_selects",
                 "m_empty_selects", "n_mitigations", "n_victims",
                 "n_selects", "n_empty_selects")

    def __init__(self, obs, flat: int, labels):
        metrics = obs.metrics
        self.m_mitigations = metrics.counter("core.mitigations", bank=flat)
        self.m_victims = metrics.counter("core.victim_refreshes", bank=flat)
        self.m_selects = metrics.counter("tracker.selects", **labels)
        self.m_empty_selects = metrics.counter(
            "tracker.empty_selects", **labels
        )
        self.n_mitigations = 0
        self.n_victims = 0
        self.n_selects = 0
        self.n_empty_selects = 0
        obs.children.append(self)

    def flush(self) -> None:
        """Publish accumulated counters (drain boundary)."""
        if self.n_mitigations:
            self.m_mitigations.inc(self.n_mitigations)
            self.n_mitigations = 0
        if self.n_victims:
            self.m_victims.inc(self.n_victims)
            self.n_victims = 0
        if self.n_selects:
            self.m_selects.inc(self.n_selects)
            self.n_selects = 0
        if self.n_empty_selects:
            self.m_empty_selects.inc(self.n_empty_selects)
            self.n_empty_selects = 0


@checkpointable(
    state=("ready_at", "open_row", "act_time", "open_until",
           "autorfm", "rfm_tracker", "rfm_policy"),
    const=("config", "timing"),
    derived=("stats", "_obs"),
)
class Bank:
    """Timing and mitigation state of one DRAM bank."""

    def __init__(
        self,
        config: SystemConfig,
        stats: BankStats,
        autorfm: Optional[AutoRfmEngine] = None,
        rfm_tracker: Optional[Tracker] = None,
        rfm_policy: Optional[MitigationPolicy] = None,
    ):
        if (rfm_tracker is None) != (rfm_policy is None):
            raise ValueError("rfm_tracker and rfm_policy come as a pair")
        self.config = config
        self.timing = config.timing
        self.stats = stats
        self.autorfm = autorfm
        self.rfm_tracker = rfm_tracker
        self.rfm_policy = rfm_policy

        self.ready_at = 0  # earliest cycle the next ACT may issue
        self.open_row = NO_ROW
        self.act_time = -(10**9)  # when the open row was activated
        self.open_until = -1  # end of the row-hit window (act + tRAS)

        # Observability hooks for the RFM-mode mitigation path (AutoRFM
        # mode publishes through its engine instead); one slot, None — and
        # therefore free — until attach_obs is called.
        self._obs: Optional[_BankObsHooks] = None

    def attach_obs(self, obs, flat: int) -> None:
        """Publish RFM-mode mitigations through the memory controller's
        observability hook bundle (no-op for banks without a tracker, or
        when metrics are off)."""
        if obs.metrics is None or self.rfm_tracker is None:
            return
        self._obs = _BankObsHooks(
            obs, flat, dict(self.rfm_tracker.metric_labels)
        )

    # ------------------------------------------------------------------
    # Demand path
    # ------------------------------------------------------------------
    def is_open(self, now: int) -> bool:
        """True while a row is open and inside its hit window."""
        return self.open_row != NO_ROW and now <= self.open_until

    def row_hits(self, row: int, now: int) -> bool:
        """True when an access to ``row`` at ``now`` is a row-buffer hit."""
        return self.is_open(now) and row == self.open_row

    def can_activate(self, now: int) -> bool:
        """True when an ACT may legally issue at ``now``."""
        return now >= self.ready_at and self.open_row == NO_ROW

    def activate(self, row: int, now: int) -> None:
        """Issue an ACT.

        Under the closed-page policy the caller must schedule
        :meth:`auto_precharge` at now + tRAS; under open-page the row stays
        open until :meth:`precharge_for_conflict`, REF, or RFM closes it.
        """
        if not self.can_activate(now):
            raise RuntimeError(f"ACT at {now} violates bank timing")
        self.open_row = row
        self.act_time = now
        if self.config.page_policy == "open":
            self.open_until = 1 << 62  # open until explicitly precharged
        else:
            self.open_until = now + self.timing.tras
        self.ready_at = now + self.timing.trc
        self.stats.activations += 1
        if self.autorfm is not None:
            self.autorfm.on_activation(row, now)
        if self.rfm_tracker is not None:
            self.rfm_tracker.on_activation(row)

    def record_hit(self) -> None:
        """Count one row-buffer hit."""
        self.stats.row_hits += 1

    def auto_precharge(self, now: int) -> None:
        """Close the open row (scheduled at act_time + tRAS, or at REF)."""
        if self.open_row == NO_ROW:
            return
        self.open_row = NO_ROW
        self.open_until = -1
        if self.autorfm is not None:
            self.autorfm.on_precharge(now)

    def precharge_for_conflict(self, now: int) -> None:
        """Open-page: close the row so a conflicting ACT can issue.

        The precharge starts once tRAS is satisfied and takes tRP; the next
        ACT also respects tRC from the previous one.
        """
        if self.open_row == NO_ROW:
            return
        pre_start = max(now, self.act_time + self.timing.tras)
        self.ready_at = max(self.ready_at, pre_start + self.timing.trp)
        self.open_row = NO_ROW
        self.open_until = -1
        if self.autorfm is not None:
            self.autorfm.on_precharge(pre_start)

    # ------------------------------------------------------------------
    # Maintenance path
    # ------------------------------------------------------------------
    def start_refresh(self, now: int, duration: int = 0) -> None:
        """REF: close the row, block the bank for ``duration``.

        ``duration`` defaults to tRFC (all-bank REF); the same-bank refresh
        mode passes the shorter tRFCsb.
        """
        self.auto_precharge(now)
        blocked = duration or self.timing.trfc
        self.ready_at = max(self.ready_at, now + blocked)
        self.stats.refreshes += 1
        # REF provides mitigation time for free: a pending tracker window is
        # harvested during the refresh (Section II-E).
        if self.rfm_tracker is not None:
            self._perform_rfm_mitigation()

    def issue_rfm(self, now: int) -> int:
        """Blocking RFM command; returns the cycle the bank frees up."""
        if self.open_row != NO_ROW:
            raise RuntimeError("RFM requires the bank to be precharged")
        start = max(now, self.ready_at)
        self.ready_at = start + self.timing.trfm
        self.stats.rfm_commands += 1
        if self.rfm_tracker is not None:
            self._perform_rfm_mitigation()
        return self.ready_at

    def stall_until(self, time: int) -> None:
        """External stall (REF on sibling logic, ABO back-off, ALERT busy)."""
        self.ready_at = max(self.ready_at, time)

    def _perform_rfm_mitigation(self) -> None:
        obs = self._obs
        request = self.rfm_tracker.select_for_mitigation()
        if request is None:
            if obs is not None:
                obs.n_empty_selects += 1
            return
        if obs is not None:
            obs.n_selects += 1
        victims = self.rfm_policy.victims(request)
        if not victims:
            return
        self.stats.mitigations += 1
        self.stats.victim_refreshes += len(victims)
        if obs is not None:
            obs.n_mitigations += 1
            obs.n_victims += len(victims)
        if request.level > 1:
            self.stats.recursive_rounds += 1
        for victim in victims:
            self.rfm_tracker.on_victim_refresh(victim, request.level)
