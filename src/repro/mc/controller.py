"""Memory controller and command scheduler.

One :class:`MemoryController` owns both subchannels. Scheduling is
event-driven at request granularity:

* per-bank FIFO queues with row-hit-first service (FR-FCFS-lite) under the
  closed-page-with-tRAS-window policy of the paper;
* all-bank REF per subchannel every tREFI (blocking tRFC), staggered between
  subchannels;
* RFM mode — RAA counters; RFM issued eagerly at the precharge once RAA
  reaches RFMTH, blocking the bank for tRFM;
* AutoRFM mode — ACTs that conflict with the Subarray-Under-Mitigation are
  declined with an ALERT; the per-bank busy table (Fig. 7) blocks the bank
  for t_M before the retry. ``per_request_retry`` switches to the complex-MC
  ablation of Section IV-C where only the conflicted request waits;
* PRAC mode — scaled tRC plus ABO: an over-threshold row stalls the whole
  subchannel for tRFM while the chip mitigates.
"""

from __future__ import annotations

import dataclasses
from functools import partial
from typing import Callable, List, Optional

from repro.ckpt.contract import checkpointable
from repro.core.autorfm import AutoRfmEngine
from repro.dram.bank import NO_ROW, Bank
from repro.mapping.base import MemoryMapping
from repro.mc.blockhammer import BlockHammerLimiter
from repro.mc.busy_table import BankBusyTable
from repro.mc.request import Request
from repro.mc.setup import MitigationSetup, build_policy, build_tracker
from repro.obs import DEPTH_EDGES, LATENCY_EDGES, Observability
from repro.obs.trace import layout
from repro.rfm.prac import PracModel, abo_threshold_for, prac_timing
from repro.rfm.rfm import RfmController
from repro.sim.cmdlog import (
    ACT,
    ALERT,
    MITIGATION,
    REF,
    RFM,
    VICTIM_REFRESH,
    CommandLog,
)
from repro.sim.config import SystemConfig
from repro.sim.engine import Engine
from repro.sim.rng import RngStreams
from repro.sim.stats import SimStats

__all__ = ["MemoryController"]

# Trace record layouts of the controller's hooks: each appends
# ``(template, *values)`` with the values in the sorted field-name order
# listed here (see repro.obs.trace).
_T_ACT = layout("ACT", "bank", "row", "t")
_T_ALERT = layout("ALERT", "alerts", "bank", "retry_at", "row", "t")
_T_REF = layout("REF", "end", "subchannel", "t")
_T_REF_SAME_BANK = layout("REF", "bank", "end", "subchannel", "t")
_T_ABO = layout("ABO", "bank", "end", "subchannel", "t")
_T_RFM = layout("RFM", "bank", "end", "t")


class _ObsHooks:
    """Pre-resolved observability hook points for one controller.

    Bundled into a single slotted object so the controller's instance dict
    grows by exactly one key (``_obs``) when observability is enabled and
    disabled runs keep their original attribute layout: each hook site pays
    one ``is None`` load-and-branch, nothing more. The bank, AutoRFM
    engine and RFM layer ``attach_obs`` hooks take this bundle and
    register their own accumulators in ``children``.

    Emission is deferred to drain boundaries: hot paths append to plain
    per-bank int accumulators (``acts``/``alerts``/...), buffer raw
    histogram values, and queue flat int trace-record tuples on the single
    shared ``trace_pending`` list (one list so records from the
    controller, the per-bank AutoRFM engines, and the RFM layer stay in
    exact emission order). :meth:`flush` publishes everything into the
    registry/tracer; it runs at every REF (the natural drain boundary),
    at :meth:`~repro.cpu.system.SimulatedSystem.finalize`, and before a
    checkpoint capture — the flush cadence never changes the final
    values, only when they land.
    """

    __slots__ = (
        "tracer", "metrics", "m_acts", "m_alerts", "m_rfm_cmds", "m_refs",
        "h_queue_depth", "h_retry_wait",
        "acts", "alerts", "rfm_cmds", "refs",
        "queue_depth_pending", "retry_wait_pending", "trace_pending",
        "children",
    )

    def __init__(self, obs: Observability, config: SystemConfig,
                 n_banks: int):
        self.tracer = obs.tracer
        metrics = obs.metrics
        self.metrics = metrics
        self.m_acts = None
        self.m_alerts = None
        self.m_rfm_cmds = None
        self.m_refs = None
        self.h_queue_depth = None
        self.h_retry_wait = None
        self.acts = None
        self.alerts = None
        self.rfm_cmds = None
        self.refs = None
        self.queue_depth_pending = None
        self.retry_wait_pending = None
        self.trace_pending = [] if self.tracer is not None else None
        # Child hook bundles (AutoRFM engines, RFM-mode banks, the RFM
        # layer) that accumulate their own counters; flushed with ours.
        self.children = []
        if metrics is not None:
            self.m_acts = [
                metrics.counter("mc.act", bank=i) for i in range(n_banks)
            ]
            self.m_alerts = [
                metrics.counter("mc.alert", bank=i) for i in range(n_banks)
            ]
            self.m_rfm_cmds = [
                metrics.counter("mc.rfm", bank=i) for i in range(n_banks)
            ]
            self.m_refs = [
                metrics.counter("mc.ref", bank=i) for i in range(n_banks)
            ]
            self.h_queue_depth = [
                metrics.histogram("mc.queue_depth", DEPTH_EDGES,
                                  subchannel=sc)
                for sc in range(config.num_subchannels)
            ]
            self.h_retry_wait = metrics.histogram(
                "mc.retry_wait", LATENCY_EDGES
            )
            self.acts = [0] * n_banks
            self.alerts = [0] * n_banks
            self.rfm_cmds = [0] * n_banks
            self.refs = [0] * n_banks
            self.queue_depth_pending = [
                [] for _ in range(config.num_subchannels)
            ]
            self.retry_wait_pending = []

    def flush(self) -> None:
        """Publish every deferred accumulation (drain boundary)."""
        if self.metrics is not None:
            for accumulator, counters in (
                (self.acts, self.m_acts),
                (self.alerts, self.m_alerts),
                (self.rfm_cmds, self.m_rfm_cmds),
                (self.refs, self.m_refs),
            ):
                for flat, n in enumerate(accumulator):
                    if n:
                        counters[flat].inc(n)
                        accumulator[flat] = 0
            for sc, values in enumerate(self.queue_depth_pending):
                if values:
                    self.h_queue_depth[sc].observe_many(values)
                    values.clear()
            if self.retry_wait_pending:
                self.h_retry_wait.observe_many(self.retry_wait_pending)
                self.retry_wait_pending.clear()
        pending = self.trace_pending
        if pending:
            self.tracer.emit_raw(pending)
            # Clear in place: the per-bank engine bundles alias this list,
            # so rebinding it would silently orphan their queue.
            pending.clear()
        for child in self.children:
            child.flush()


@checkpointable(
    state=(
        "queues",
        "_recent_acts",
        "busy_table",
        "_write_buffers",
        "bus_free_at",
        "_wakeups",
        "_order",
        "_ref_cursor",
        "rfm",
        "prac",
        "blockhammer",
        "banks",
    ),
    const=(
        "config",
        "timing",
        "setup",
        "_open_page",
        "_write_drain",
        "_simple_pick",
        "_banks_per_sc",
        "_trp",
        "_tras",
        "_trcd",
        "_tfaw",
        "_cas_latency",
        "_burst",
        "_completion_tail",
    ),
    derived=(
        "mapping",
        "engine",
        "stats",
        "keep_running",
        "command_log",
        "_obs",
        "_streams",
        "_auto_precharge_cbs",
        "_wakeup_cbs",
    ),
)
class MemoryController:
    """Request queues, per-bank schedulers, and maintenance commands."""

    def __init__(
        self,
        config: SystemConfig,
        mapping: MemoryMapping,
        engine: Engine,
        setup: MitigationSetup,
        streams: RngStreams,
        stats: SimStats,
        keep_running: Optional[Callable[[], bool]] = None,
        command_log: Optional[CommandLog] = None,
        obs: Optional[Observability] = None,
    ):
        config.validate()
        if setup.mechanism == "prac":
            config = dataclasses.replace(config, timing=prac_timing(config.timing))
        self.config = config
        self.timing = config.timing
        self.mapping = mapping
        self.engine = engine
        self.setup = setup
        self.stats = stats
        self.keep_running = keep_running or (lambda: True)
        self.command_log = command_log

        self._open_page = config.page_policy == "open"
        self._write_drain = config.write_drain
        # The common candidate pick (no per-request retry, no write drain)
        # is inlined in _try_service; the rest go through _pick_candidate.
        self._simple_pick = not (setup.per_request_retry or config.write_drain)
        # Hot-path constants, pre-resolved once: the scheduler consults these
        # on every request, and the timing values live behind computed
        # properties on the (frozen) config objects.
        timing = self.timing
        self._banks_per_sc = config.banks_per_subchannel
        self._trp = timing.trp
        self._tras = timing.tras
        self._trcd = timing.trcd
        self._tfaw = timing.tfaw
        self._cas_latency = timing.cas_latency
        self._burst = timing.burst
        self._completion_tail = (
            timing.burst + config.static_mem_latency + mapping.extra_latency
        )
        n_banks = config.num_banks
        self.queues: List[List[Request]] = [[] for _ in range(n_banks)]
        # tFAW: timestamps of the last four ACTs per subchannel.
        self._recent_acts: List[List[int]] = [
            [] for _ in range(config.num_subchannels)
        ]
        self.busy_table = BankBusyTable(n_banks)
        # Optional write buffering (read-priority): writes park here until
        # the high watermark triggers a burst drain.
        self._write_buffers: List[List[Request]] = [
            [] for _ in range(config.num_subchannels)
        ]
        self.bus_free_at: List[int] = [0] * config.num_subchannels
        self._wakeups: List[Optional[int]] = [None] * n_banks
        self._order = 0
        # Per-bank event callbacks, built once and reused for every ACT and
        # wake-up. They stay partials of bound methods, so the checkpoint
        # layer serialises them exactly as it would fresh ones.
        self._auto_precharge_cbs = [
            partial(self._auto_precharge, flat) for flat in range(n_banks)
        ]
        self._wakeup_cbs = [
            partial(self._wakeup_fired, flat) for flat in range(n_banks)
        ]

        self.rfm: Optional[RfmController] = None
        self.prac: Optional[PracModel] = None
        self.blockhammer: Optional[BlockHammerLimiter] = None
        if setup.mechanism == "rfm":
            self.rfm = RfmController(n_banks, setup.threshold)
        elif setup.mechanism == "prac":
            self.prac = PracModel(n_banks, abo_threshold_for(setup.prac_trh_d))
        elif setup.mechanism == "blockhammer":
            self.blockhammer = BlockHammerLimiter(
                config, trh=setup.blockhammer_trh
            )

        # Observability: one pre-resolved hook bundle (see _ObsHooks) or
        # None; when observability is off the per-event cost is a single
        # is-None branch next to the existing command_log check.
        self._obs: Optional[_ObsHooks] = None
        if obs is not None and obs.enabled:
            self._obs = _ObsHooks(obs, config, n_banks)
            if self.rfm is not None:
                self.rfm.attach_obs(self._obs)

        self._streams = streams
        self.banks: List[Bank] = [
            self._build_bank(flat) for flat in range(n_banks)
        ]
        self._schedule_refreshes()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_bank(self, flat: int) -> Bank:
        setup, config = self.setup, self.config
        bank_stats = self.stats.banks[flat]
        autorfm = None
        rfm_tracker = None
        rfm_policy = None
        if setup.mechanism == "autorfm":
            autorfm = AutoRfmEngine(
                config=config,
                tracker=build_tracker(setup, self._streams, flat),
                policy=build_policy(setup, config, self._streams, flat),
                autorfm_th=setup.threshold,
                stats=bank_stats,
            )
        elif setup.mechanism == "smd":
            # Self-Managed DRAM (Section VII-B): same transparent-decline
            # machinery, but PARA sampling at every precharge and a coarse
            # maintenance-region lock instead of a single subarray.
            smd_setup = dataclasses.replace(
                setup, tracker="para", policy="blast2"
            )
            autorfm = AutoRfmEngine(
                config=config,
                tracker=build_tracker(smd_setup, self._streams, flat),
                policy=build_policy(smd_setup, config, self._streams, flat),
                autorfm_th=1,
                stats=bank_stats,
                regions_per_bank=setup.smd_regions_per_bank,
            )
        elif setup.mechanism == "rfm":
            rfm_tracker = build_tracker(setup, self._streams, flat)
            rfm_policy = build_policy(setup, config, self._streams, flat)
        if autorfm is not None and self._obs is not None:
            autorfm.attach_obs(self._obs, flat)
        if autorfm is not None and self.command_log is not None:
            autorfm.mitigation_listener = (
                lambda t, f=flat: self.command_log.record(t, MITIGATION, f)
            )
            autorfm.victim_listener = (
                lambda t, victim, f=flat: self.command_log.record(
                    t, VICTIM_REFRESH, f, victim
                )
            )
        bank = Bank(
            config=config,
            stats=bank_stats,
            autorfm=autorfm,
            rfm_tracker=rfm_tracker,
            rfm_policy=rfm_policy,
        )
        if self._obs is not None:
            bank.attach_obs(self._obs, flat)
        return bank

    def _schedule_refreshes(self) -> None:
        trefi = self.timing.trefi
        if self.config.refresh_mode == "same_bank":
            # REFsb: one bank per tREFI / banks slot, round-robin, so every
            # bank still refreshes once per tREFI.
            self._ref_cursor = [0] * self.config.num_subchannels
            interval = max(1, trefi // self.config.banks_per_subchannel)
            for sc in range(self.config.num_subchannels):
                offset = (sc * interval) // self.config.num_subchannels
                self.engine.schedule(
                    offset + interval,
                    partial(self._refresh_same_bank, sc),
                )
        else:
            for sc in range(self.config.num_subchannels):
                offset = (sc * trefi) // self.config.num_subchannels
                first = offset if offset > 0 else trefi
                self.engine.schedule(first, partial(self._refresh, sc))
        if self.prac is not None:
            self.engine.schedule(self.timing.trefw, self._prac_refresh_window)

    # ------------------------------------------------------------------
    # Request entry point
    # ------------------------------------------------------------------
    def submit(self, request: Request) -> None:
        """Accept a request at the current cycle.

        Cores built from a decoded trace hand over ``row``/``flat_bank``;
        an undecoded request (``flat_bank < 0``) is decoded here.
        """
        flat = request.flat_bank
        if flat < 0:
            location = self.mapping.locate(request.line_addr)
            request.row = location.row
            flat = request.flat_bank = location.flat_bank(self._banks_per_sc)
        request._order = self._order
        self._order += 1
        if self._write_drain and request.is_write:
            sc = flat // self._banks_per_sc
            buffer = self._write_buffers[sc]
            buffer.append(request)
            watermark = (3 * self.config.write_buffer_size) // 4
            if len(buffer) >= watermark:
                self.drain_writes(sc)
            return
        queue = self.queues[flat]
        queue.append(request)
        obs = self._obs
        if obs is not None and obs.queue_depth_pending is not None:
            obs.queue_depth_pending[flat // self._banks_per_sc].append(
                len(queue)
            )
        self._try_service(flat, self.engine.now)

    def drain_writes(self, sc: Optional[int] = None) -> int:
        """Flush buffered writes into the bank queues; returns the count.

        Called at the high watermark, at every REF (idle-ish moment), and
        by :func:`repro.cpu.system.simulate` at end of run so no write is
        ever lost.
        """
        subchannels = (
            range(self.config.num_subchannels) if sc is None else (sc,)
        )
        drained = 0
        for s in subchannels:
            buffer = self._write_buffers[s]
            if not buffer:
                continue
            drained += len(buffer)
            for request in buffer:
                self.queues[request.flat_bank].append(request)
            # Service banks in index order: iterating the raw set would
            # order them by hash-table layout, and that order assigns the
            # engine's tie-breaking sequence numbers (DET005).
            touched = sorted({r.flat_bank for r in buffer})
            buffer.clear()
            for flat in touched:
                self._try_service(flat, self.engine.now)
        return drained

    def buffered_writes(self) -> int:
        """Writes currently parked in the drain buffers."""
        return sum(len(b) for b in self._write_buffers)

    def pending_requests(self) -> int:
        """Requests currently waiting in the per-bank queues."""
        return sum(len(q) for q in self.queues)

    # ------------------------------------------------------------------
    # Scheduler
    # ------------------------------------------------------------------
    def _try_service(self, flat: int, now: int) -> None:
        queue = self.queues[flat]
        if not queue:
            return
        bank = self.banks[flat]
        sc = flat // self._banks_per_sc
        # Hot loop: state every pass may consult is resolved into locals
        # once per call. Hooks only the ACT path needs are read on that
        # path, which a call reaches at most once (after an ACT the bank
        # waits tRC) unless the per-request-retry ablation retries.
        rfm = self.rfm
        open_page = self._open_page
        simple_pick = self._simple_pick
        busy_until = self.busy_table._busy_until

        while queue:
            # 1) Row-buffer hits first (FR-FCFS within the tRAS window).
            # One pass serves every hit in queue order and compacts the
            # queue in place (no per-hit O(n) remove, no re-filtering).
            open_row = bank.open_row
            if open_row != NO_ROW and now <= bank.open_until:
                kept = []
                for request in queue:
                    if request.row == open_row:
                        bank.record_hit()
                        self._serve(request, bank, sc, now, True)
                    else:
                        kept.append(request)
                if len(kept) != len(queue):
                    queue[:] = kept
                    continue

            # 2) Pick the ACT candidate: the oldest request unless the bank
            # is busy after an ALERT (the busy-table check of Fig. 7).
            if simple_pick:
                until = busy_until[flat]
                if now < until:
                    self._wakeup(flat, until)
                    return
                idx = 0
            else:
                idx = self._pick_candidate(flat, queue, now)
                if idx is None:
                    return
            request = queue[idx]

            # 3) RFM gating: RAA at the cap means RFM before any ACT.
            if rfm is not None and rfm.rfm_needed(flat):
                if bank.open_row != NO_ROW and open_page:
                    bank.precharge_for_conflict(now)
                if bank.open_row == NO_ROW:
                    free_at = bank.issue_rfm(now)
                    rfm.on_rfm(flat)
                    if self.command_log is not None:
                        self.command_log.record(
                            free_at - self.timing.trfm, RFM, flat
                        )
                    if self._obs is not None:
                        self._obs_on_rfm(flat, free_at)
                    self._wakeup(flat, free_at)
                else:
                    self._wakeup(flat, bank.ready_at)
                return

            # 4) Bank timing. Open-page closes a conflicting row on demand;
            # closed-page rows auto-precharge at tRAS.
            if bank.open_row != NO_ROW and open_page:
                bank.precharge_for_conflict(now)
            if bank.open_row != NO_ROW or now < bank.ready_at:
                self._wakeup(flat, bank.ready_at)
                return

            # 4a) tFAW: at most four ACTs per rolling window per subchannel.
            recent = self._recent_acts[sc]
            if len(recent) == 4 and now - recent[0] < self._tfaw:
                self._wakeup(flat, recent[0] + self._tfaw)
                return

            row = request.row
            blockhammer = self.blockhammer

            # 4b) BlockHammer: a blacklisted row's ACTs are spaced out.
            if blockhammer is not None:
                allowed = blockhammer.earliest_act(flat, row, now)
                if now < allowed:
                    self._wakeup(flat, allowed)
                    return

            # 5) AutoRFM: conflict with the SAUM declines the ACT (ALERT).
            autorfm = bank.autorfm
            if autorfm is not None and autorfm.conflicts(row, now):
                self._handle_alert(request, bank, flat, now)
                if self.setup.per_request_retry:
                    continue
                return

            # 6) Issue the ACT.
            bank.activate(row, now)
            recent.append(now)
            if len(recent) > 4:
                recent.pop(0)
            log = self.command_log
            if log is not None:
                log.record(now, ACT, flat, row)
            obs = self._obs
            if obs is not None:
                if obs.acts is not None:
                    obs.acts[flat] += 1
                if obs.trace_pending is not None:
                    obs.trace_pending.append((_T_ACT, flat, row, now))
            if not open_page:
                self.engine.schedule(
                    now + self._tras, self._auto_precharge_cbs[flat]
                )
            if rfm is not None:
                rfm.on_activation(flat)
            prac = self.prac
            if prac is not None and prac.on_activation(flat, row):
                self._abo_stall(sc, flat, now)
            if blockhammer is not None:
                self.blockhammer.observe(flat, row, now)
            self._serve(request, bank, sc, now, False)
            del queue[idx]
            # Loop: younger queued requests may now hit the open row.

    def _pick_candidate(
        self, flat: int, queue: List[Request], now: int
    ) -> Optional[int]:
        """Index of the next ACT candidate in ``queue``, or None to defer."""
        if self.setup.per_request_retry:
            earliest = queue[0].retry_at
            for i, request in enumerate(queue):
                retry_at = request.retry_at
                if retry_at <= now:
                    return i
                if retry_at < earliest:
                    earliest = retry_at
            self._wakeup(flat, earliest)
            return None
        if self.busy_table.is_busy(flat, now):
            self._wakeup(flat, self.busy_table.busy_until(flat))
            return None
        if self.config.write_drain:
            # Read priority: drained writes yield to demand reads.
            for i, request in enumerate(queue):
                if not request.is_write:
                    return i
        return 0

    def _handle_alert(
        self, request: Request, bank: Bank, flat: int, now: int
    ) -> None:
        bank.stats.alerts += 1
        request.alerts += 1
        if self.command_log is not None:
            self.command_log.record(now, ALERT, flat, request.row)
        if request.alerts > self.stats.max_request_alerts:
            self.stats.max_request_alerts = request.alerts
        tm = self.setup.tm_retry_cycles or bank.autorfm.mitigation_busy_cycles
        retry_time = now + tm
        obs = self._obs
        if obs is not None:
            if obs.alerts is not None:
                obs.alerts[flat] += 1
                obs.retry_wait_pending.append(tm)
            if obs.trace_pending is not None:
                # One record carries the whole ACT->ALERT->retry link: the
                # declined row, how many ALERTs this request has eaten, and
                # when the MC will retry.
                obs.trace_pending.append((
                    _T_ALERT, request.alerts, flat, retry_time, request.row,
                    now,
                ))
        # The MC precharges the bank so every chip holds the conflicted row
        # closed (footnote 1 of the paper).
        bank.stall_until(now + self._trp)
        if self.setup.per_request_retry:
            request.retry_at = retry_time
        else:
            self.busy_table.mark_busy(flat, retry_time)
            self._wakeup(flat, retry_time)

    def _serve(
        self, request: Request, bank: Bank, sc: int, now: int, hit: bool
    ) -> None:
        if hit:
            data_ready = max(now, bank.act_time + self._trcd)
        else:
            data_ready = now + self._trcd
        data_start = max(data_ready + self._cas_latency, self.bus_free_at[sc])
        self.bus_free_at[sc] = data_start + self._burst
        # _completion_tail = burst + static latency + mapping extra latency.
        completion = data_start + self._completion_tail
        if request.is_write:
            bank.stats.writes += 1
        else:
            bank.stats.reads += 1
        if request.on_complete is not None:
            self.engine.schedule(completion, request.on_complete)

    # ------------------------------------------------------------------
    # Maintenance events
    # ------------------------------------------------------------------
    def _auto_precharge(self, flat: int, now: int) -> None:
        bank = self.banks[flat]
        bank.auto_precharge(now)
        if self.rfm is not None and self.rfm.rfm_due(flat):
            # Opportunistic RFM: a due RFM is issued at the precharge when no
            # demand is waiting (hiding the stall in idle time); with demand
            # pending it is deferred until the RAAMMT hard cap forces it.
            if not self.queues[flat] or self.rfm.rfm_needed(flat):
                free_at = bank.issue_rfm(now)
                self.rfm.on_rfm(flat)
                if self.command_log is not None:
                    self.command_log.record(
                        free_at - self.timing.trfm, RFM, flat
                    )
                if self._obs is not None:
                    self._obs_on_rfm(flat, free_at)
                if self.queues[flat]:
                    self._wakeup(flat, free_at)
                return
        if self.queues[flat]:
            self._wakeup(flat, bank.ready_at)

    def _refresh(self, sc: int, now: int) -> None:
        base = sc * self.config.banks_per_subchannel
        obs = self._obs
        for local in range(self.config.banks_per_subchannel):
            flat = base + local
            self.banks[flat].start_refresh(now)
            if self.rfm is not None:
                self.rfm.on_refresh(flat)
            if self.command_log is not None:
                self.command_log.record(now, REF, flat)
            if obs is not None and obs.refs is not None:
                obs.refs[flat] += 1
            if self.queues[flat]:
                self._wakeup(flat, self.banks[flat].ready_at)
        if obs is not None and obs.trace_pending is not None:
            obs.trace_pending.append(
                (_T_REF, now + self.timing.trfc, sc, now)
            )
        self.stats.refresh_windows += 1
        if self.config.write_drain:
            self.drain_writes(sc)  # REF is a natural drain point
        if obs is not None:
            obs.flush()  # REF is the observability drain boundary too
        if self.keep_running():
            self.engine.schedule(
                now + self.timing.trefi, partial(self._refresh, sc)
            )

    def _refresh_same_bank(self, sc: int, now: int) -> None:
        base = sc * self.config.banks_per_subchannel
        local = self._ref_cursor[sc]
        self._ref_cursor[sc] = (local + 1) % self.config.banks_per_subchannel
        flat = base + local
        self.banks[flat].start_refresh(now, duration=self.timing.trfc_sb)
        if self.rfm is not None:
            self.rfm.on_refresh(flat)
        if self.command_log is not None:
            self.command_log.record(now, REF, flat)
        obs = self._obs
        if obs is not None:
            if obs.refs is not None:
                obs.refs[flat] += 1
            if obs.trace_pending is not None:
                obs.trace_pending.append((
                    _T_REF_SAME_BANK, flat, now + self.timing.trfc_sb, sc,
                    now,
                ))
            obs.flush()
        if self.queues[flat]:
            self._wakeup(flat, self.banks[flat].ready_at)
        if local == self.config.banks_per_subchannel - 1:
            self.stats.refresh_windows += 1
        if self.keep_running():
            interval = max(
                1, self.timing.trefi // self.config.banks_per_subchannel
            )
            self.engine.schedule(
                now + interval, partial(self._refresh_same_bank, sc)
            )

    def _prac_refresh_window(self, now: int) -> None:
        self.prac.on_refresh_window()
        if self.keep_running():
            self.engine.schedule(
                now + self.timing.trefw, self._prac_refresh_window
            )

    def _abo_stall(self, sc: int, flat: int, now: int) -> None:
        """ABO ALERT: back off the whole subchannel for a mitigation slot."""
        until = now + self.timing.trfm
        base = sc * self.config.banks_per_subchannel
        for local in range(self.config.banks_per_subchannel):
            self.banks[base + local].stall_until(until)
        alerting = self.stats.banks[flat]
        alerting.alerts += 1
        alerting.mitigations += 1
        alerting.victim_refreshes += 4
        obs = self._obs
        if obs is not None:
            if obs.alerts is not None:
                obs.alerts[flat] += 1
            if obs.trace_pending is not None:
                obs.trace_pending.append((_T_ABO, flat, until, sc, now))

    # ------------------------------------------------------------------
    # Observability hook points
    # ------------------------------------------------------------------
    def _obs_on_rfm(self, flat: int, free_at: int) -> None:
        """Publish one blocking RFM command: counter plus stall span."""
        obs = self._obs
        if obs.rfm_cmds is not None:
            obs.rfm_cmds[flat] += 1
        if obs.trace_pending is not None:
            obs.trace_pending.append(
                (_T_RFM, flat, free_at, free_at - self.timing.trfm)
            )

    def flush_obs(self) -> None:
        """Publish deferred observability accumulations.

        Called at every REF (the drain boundary), by
        :meth:`~repro.cpu.system.SimulatedSystem.finalize`, and by the
        checkpoint layer before a capture. No-op when observability is
        off; safe to call at any cycle (cadence never changes the final
        metrics or trace)."""
        if self._obs is not None:
            self._obs.flush()

    # ------------------------------------------------------------------
    # Wakeup bookkeeping
    # ------------------------------------------------------------------
    def _wakeup(self, flat: int, time: int) -> None:
        now = self.engine.now
        if time <= now:
            time = now + 1
        pending = self._wakeups[flat]
        if pending is not None and pending <= time:
            return
        self._wakeups[flat] = time
        self.engine.schedule(time, self._wakeup_cbs[flat])

    def _wakeup_fired(self, flat: int, now: int) -> None:
        if self._wakeups[flat] is not None and self._wakeups[flat] <= now:
            self._wakeups[flat] = None
        self._try_service(flat, now)
