"""AutoRFM engine: transparent, non-blocking RFM (Section IV).

One :class:`AutoRfmEngine` lives inside each DRAM bank. It counts demand
activations; every ``autorfm_th`` activations (the *AutoRFM Threshold*), the
bank's tracker nominates an aggressor and — at the precharge that closes the
window — the aggressor's subarray becomes the *Subarray Under Mitigation*
(SAUM) for ``4 * tRC`` while the victim refreshes are performed.

While a SAUM is busy, activations to *other* subarrays proceed normally. An
ACT that maps to the SAUM is declined: :meth:`conflicts` returns True, the
memory controller records an ALERT and retries after ``t_M`` (see
:class:`repro.mc.busy_table.BankBusyTable`).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.mitigation import MitigationPolicy
from repro.core.rowswap import MigrationMitigation
from repro.obs.trace import layout
from repro.sim.config import SystemConfig
from repro.sim.stats import BankStats
from repro.trackers.base import Tracker
from repro.ckpt.contract import checkpointable

#: Trace record layout of a SAUM busy span (see repro.obs.trace).
_T_SAUM = layout("SAUM", "bank", "end", "region", "row", "t", "victims")


class _EngineObsHooks:
    """Pre-resolved observability hooks for one AutoRFM engine.

    A single slotted bundle so the engine's instance dict grows by one key
    at most; metric fields stay None when the registry is disabled (e.g.
    trace-only observability).

    Attached through the memory controller's hook bundle, emission is
    deferred: counter increments accumulate in plain ints, trace records
    queue on the controller's shared in-order ``trace_pending`` list, and
    the controller's flush publishes both at the next drain boundary.
    """

    __slots__ = ("bank", "m_mitigations", "m_victims",
                 "m_selects", "m_empty_selects",
                 "n_mitigations", "n_victims", "n_selects",
                 "n_empty_selects", "pending")

    def __init__(self, obs, bank: int, labels):
        self.bank = bank
        self.m_mitigations = None
        self.m_victims = None
        self.m_selects = None
        self.m_empty_selects = None
        metrics = obs.metrics
        if metrics is not None:
            self.m_mitigations = metrics.counter("core.mitigations",
                                                 bank=bank)
            self.m_victims = metrics.counter("core.victim_refreshes",
                                             bank=bank)
            self.m_selects = metrics.counter("tracker.selects", **labels)
            self.m_empty_selects = metrics.counter(
                "tracker.empty_selects", **labels
            )
        self.n_mitigations = 0
        self.n_victims = 0
        self.n_selects = 0
        self.n_empty_selects = 0
        self.pending = obs.trace_pending
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
    state=("tracker", "policy", "_acts_in_window", "_mitigation_pending",
           "saum", "saum_busy_until", "_last_saum"),
    const=("config", "autorfm_th", "regions_per_bank", "_rows_per_region"),
    derived=("stats", "mitigation_listener", "victim_listener", "_obs"),
)
class AutoRfmEngine:
    """Per-bank transparent mitigation engine."""

    def __init__(
        self,
        config: SystemConfig,
        tracker: Tracker,
        policy: MitigationPolicy,
        autorfm_th: int,
        stats: Optional[BankStats] = None,
        regions_per_bank: Optional[int] = None,
    ):
        """``regions_per_bank`` sets the lock granularity.

        AutoRFM locks a single subarray (the default, ``None`` ->
        ``config.subarrays_per_bank`` regions); the SMD comparison of
        Section VII-B locks coarser maintenance regions (e.g. 8 per bank),
        which proportionally raises the conflict probability.
        """
        if autorfm_th < 1:
            raise ValueError("autorfm_th must be at least 1")
        regions = (
            config.subarrays_per_bank if regions_per_bank is None
            else regions_per_bank
        )
        if not 1 <= regions <= config.rows_per_bank:
            raise ValueError("regions_per_bank out of range")
        if config.rows_per_bank % regions:
            raise ValueError("regions must divide rows_per_bank evenly")
        self.config = config
        self.tracker = tracker
        self.policy = policy
        self.autorfm_th = autorfm_th
        self.regions_per_bank = regions
        self._rows_per_region = config.rows_per_bank // regions
        self.stats = stats if stats is not None else BankStats()

        self._acts_in_window = 0
        self._mitigation_pending = False
        self.saum: Optional[int] = None
        self.saum_busy_until = 0
        self._last_saum: Optional[int] = None
        #: Optional observer fired when a mitigation starts (command log).
        self.mitigation_listener: Optional[Callable[[int], None]] = None
        #: Optional observer fired per victim refresh: (now, victim_row).
        self.victim_listener: Optional[Callable[[int, int], None]] = None
        # Observability hooks (pre-resolved by attach_obs into one slotted
        # bundle); None — and therefore free — when observability is off.
        self._obs: Optional[_EngineObsHooks] = None

    def attach_obs(self, obs, bank: int) -> None:
        """Wire this engine into the memory controller's observability
        hook bundle.

        Called once at construction by the memory controller, which knows
        the flat bank index; metric objects are resolved here so the
        per-mitigation cost is a few attribute increments.
        """
        self._obs = _EngineObsHooks(obs, bank,
                                    dict(self.tracker.metric_labels))

    def _obs_on_mitigation(self, now: int, row: int, victims: int) -> None:
        """Publish one mitigation: SAUM busy span plus counters."""
        obs = self._obs
        if obs.m_mitigations is not None:
            obs.n_mitigations += 1
            obs.n_victims += victims
        if obs.pending is not None:
            obs.pending.append((
                _T_SAUM, obs.bank, self.saum_busy_until,
                self.saum if self.saum is not None else -1, row, now, victims,
            ))

    # ------------------------------------------------------------------
    # Hooks called by the bank / memory controller
    # ------------------------------------------------------------------
    def on_activation(self, row: int, now: int) -> None:
        """Observe a successful demand ACT of ``row`` at cycle ``now``."""
        self.tracker.on_activation(row)
        self._acts_in_window += 1
        if self._acts_in_window >= self.autorfm_th:
            self._mitigation_pending = True

    def on_precharge(self, now: int) -> None:
        """Observe the precharge closing an ACT; may start a mitigation.

        Mitigation starts only on a precharge (Section IV-A): that is the
        moment the memory controller infers no row is open in the bank.
        """
        if not self._mitigation_pending:
            return
        self._mitigation_pending = False
        self._acts_in_window = 0
        self._start_mitigation(now)

    def region_of_row(self, row: int) -> int:
        """Lock-granularity region holding ``row`` (a subarray by default)."""
        if not 0 <= row < self.config.rows_per_bank:
            raise ValueError(f"row {row} out of range")
        return row // self._rows_per_region

    def conflicts(self, row: int, now: int) -> bool:
        """Would an ACT to ``row`` at ``now`` hit the busy SAUM?"""
        if self.saum is None or now >= self.saum_busy_until:
            return False
        return self.region_of_row(row) == self.saum

    # ------------------------------------------------------------------
    @property
    def mitigation_busy_cycles(self) -> int:
        """SAUM busy time per mitigation (t_M, about 200 ns)."""
        return self.policy.busy_cycles(self.config.timing.trc)

    def _start_mitigation(self, now: int) -> None:
        obs = self._obs
        request = self.tracker.select_for_mitigation()
        if request is None:
            if obs is not None and obs.m_empty_selects is not None:
                obs.n_empty_selects += 1
            return
        if obs is not None and obs.m_selects is not None:
            obs.n_selects += 1

        if isinstance(self.policy, MigrationMitigation):
            # Row migration: relocate the aggressor instead of refreshing
            # its victims. The source subarray is locked for the (long)
            # move; the destination lock is folded into the same window.
            old_physical, _ = self.policy.relocate(request)
            self.saum = self.region_of_row(old_physical)
            self.saum_busy_until = now + self.mitigation_busy_cycles
            self.stats.mitigations += 1
            self.stats.row_swaps += 1
            self._last_saum = self.saum
            if self.mitigation_listener is not None:
                self.mitigation_listener(now)
            if obs is not None:
                self._obs_on_mitigation(now, request.row, victims=0)
            return

        victims = self.policy.victims(request)
        if not victims:
            return

        subarray = self.region_of_row(request.row)
        self.saum = subarray
        self.saum_busy_until = now + self.mitigation_busy_cycles

        self.stats.mitigations += 1
        self.stats.victim_refreshes += len(victims)
        if request.level > 1:
            self.stats.recursive_rounds += 1
        self._last_saum = subarray
        if self.mitigation_listener is not None:
            self.mitigation_listener(now)
        if obs is not None:
            self._obs_on_mitigation(now, request.row, victims=len(victims))

        for victim in victims:
            self.tracker.on_victim_refresh(victim, request.level)
            if self.victim_listener is not None:
                self.victim_listener(now, victim)
