"""Batched timing-simulation backend (ROADMAP item 3).

:func:`simulate_batch` advances many independent timing simulations
("lanes") in one process. The scalar engine behind
:func:`repro.cpu.system.simulate` spends most of its wall clock on Python
call machinery — ``Engine -> Core -> MemoryController -> Bank`` method
chains and one ``Request`` object per memory request. This module mirrors
the design of ``repro.security.kernels``: the regular no-LLC fast path
(post-LLC trace -> controller -> bank timings) is re-expressed as a fused
interpreter over plain int tuples and parallel arrays. Both engines decode
a lane's whole trace up front through the same vectorised
:meth:`~repro.mapping.base.MemoryMapping.locate_array`
(:func:`repro.cpu.system.decode_traces`).

Bit-identity contract
---------------------

The scalar engine stays the oracle (``backend="scalar"``), and every
batched result is bit-identical to it: same :class:`SimStats`, same
command log, same event order. Two properties make that tractable:

* the discrete-event heap breaks ties by insertion sequence number, so
  replicating the exact *schedule-call order* of the scalar wiring
  replicates the event order exactly;
* all stochastic state (trackers, mitigation policies, the BlockHammer
  bloom filters, the AutoRFM engines) lives in the very same objects the
  scalar path uses, constructed from identically derived RNG streams, so
  every random draw happens at the same point in the same order.

Lanes that would leave the fast path — observability attached, write
drain, open-page policy, same-bank refresh, checkpoint boundaries, event
budgets, the per-request-retry ablation — are detected up front and run
on the scalar oracle. Lanes whose *run* hits an irregular event (a
blocking RFM command coming due, a PRAC/ABO recovery stall) raise
:class:`_Fallback` mid-kernel and are re-run from scratch on the scalar
path; because the kernel keeps its side effects private until success
(its own stats object, its own command-record list), the rerun is
trivially bit-identical.
"""

from __future__ import annotations

import dataclasses
import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.autorfm import AutoRfmEngine
from repro.mc.blockhammer import BlockHammerLimiter
from repro.mc.setup import MitigationSetup, build_policy, build_tracker
from repro.rfm.prac import PracModel, abo_threshold_for, prac_timing
from repro.rfm.rfm import RfmController
from repro.sim.cmdlog import (
    ACT,
    ALERT,
    MITIGATION,
    REF,
    VICTIM_REFRESH,
    CommandLog,
    CommandRecord,
)
from repro.sim.config import SystemConfig
from repro.sim.rng import RngStreams
from repro.sim.stats import SimStats
from repro.workloads.trace import Trace

#: Valid values for the ``backend=`` knobs on :func:`simulate_batch`,
#: :func:`repro.cpu.system.simulate`, and :class:`repro.analysis.runner.Job`.
BACKENDS = ("scalar", "batch")

# Fused-interpreter opcodes. Heap entries are (time, seq, op, a, b) int
# tuples ordered by (time, seq) — exactly the scalar engine's tie-break,
# so the opcode fields are never compared.
_OP_WAKEUP = 0  # a = flat bank
_OP_AUTO_PRE = 1  # a = flat bank
_OP_READ_DONE = 2  # a = core, b = request index
_OP_ISSUE_FIRED = 3  # a = core
_OP_REF = 4  # a = subchannel
_OP_PRAC_WINDOW = 5


class _Fallback(Exception):
    """A lane left the fast path; rerun it on the scalar oracle."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass
class SimLane:
    """One simulation's worth of :func:`repro.cpu.system.simulate` inputs.

    Fields mirror the scalar entry point one for one; a lane carrying
    options the fused kernel does not model (observability, event budget,
    checkpointing) is routed to the scalar oracle with identical results.
    """

    traces: Sequence[Trace]
    setup: Optional[MitigationSetup] = None
    config: Optional[SystemConfig] = None
    mapping: str = "zen"
    seed: int = 0
    max_events: Optional[int] = None
    command_log: Optional[CommandLog] = None
    obs: Optional[object] = None  # Optional[repro.obs.Observability]
    checkpoint_every: Optional[int] = None
    checkpoint_dir: Optional[str] = None


def _lane_block_reason(
    lane: SimLane, setup: MitigationSetup, config: SystemConfig
) -> Optional[str]:
    """Why ``lane`` must take the scalar path, or None if kernel-eligible."""
    if lane.obs is not None and getattr(lane.obs, "enabled", True):
        return "observability"
    if lane.max_events is not None:
        return "max-events"
    if lane.checkpoint_every is not None or lane.checkpoint_dir is not None:
        return "checkpoint"
    if config.page_policy != "closed":
        return "open-page"
    if config.refresh_mode != "all_bank":
        return "same-bank-refresh"
    if config.write_drain:
        return "write-drain"
    if setup.per_request_retry:
        return "per-request-retry"
    return None


# Kernel state is transient by design: checkpoint-enabled lanes route to
# the scalar oracle (_lane_block_reason), so a kernel never needs to be
# captured mid-run.
class _LaneKernel:  # repro: lint-ignore[CKPT001]
    """Fused interpreter advancing one lane on the no-LLC fast path.

    Construction mirrors :class:`repro.cpu.system.SimulatedSystem` wiring
    exactly (same RNG stream derivations, same object construction order);
    :meth:`run` replays the engine/core/controller/bank event logic with
    local variables and parallel arrays instead of object graphs.
    """

    def __init__(
        self, lane: SimLane, setup: MitigationSetup, config: SystemConfig
    ):
        config.validate()
        if len(lane.traces) != config.num_cores:
            raise ValueError(
                f"need {config.num_cores} traces (one per core), "
                f"got {len(lane.traces)}"
            )
        self.lane = lane
        self.setup = setup
        self.config = config
        self.events = 0

        # Same mapping construction (and rubix key derivation) and the same
        # one-pass trace decode as cpu.system; imported lazily to keep this
        # module importable before repro.cpu.
        from repro.cpu.system import build_mapping, decode_traces

        mapping = build_mapping(lane.mapping, config, lane.seed)
        self.extra_latency = mapping.extra_latency

        # PRAC inflates tRC inside the controller; cores keep the base
        # config (they only read width/ROB/MSHR limits from it).
        if setup.mechanism == "prac":
            mc_config = dataclasses.replace(
                config, timing=prac_timing(config.timing)
            )
        else:
            mc_config = config
        self.timing = mc_config.timing

        streams = RngStreams(lane.seed)
        mc_streams = streams.spawn("mc")
        n_banks = config.num_banks
        self.stats = SimStats.with_shape(n_banks, config.num_cores)

        self.rfm: Optional[RfmController] = None
        self.prac: Optional[PracModel] = None
        self.blockhammer: Optional[BlockHammerLimiter] = None
        if setup.mechanism == "rfm":
            self.rfm = RfmController(n_banks, setup.threshold)
        elif setup.mechanism == "prac":
            self.prac = PracModel(n_banks, abo_threshold_for(setup.prac_trh_d))
        elif setup.mechanism == "blockhammer":
            self.blockhammer = BlockHammerLimiter(
                mc_config, trh=setup.blockhammer_trh
            )

        # Per-bank mitigation machinery: the *real* objects, in the same
        # flat-bank construction order as MemoryController._build_bank, so
        # RNG stream names and draw order match the scalar path exactly.
        self.records: Optional[List[CommandRecord]] = (
            [] if lane.command_log is not None else None
        )
        records = self.records
        self.autorfm: List[Optional[AutoRfmEngine]] = [None] * n_banks
        self.rfm_trackers = [None] * n_banks
        self.rfm_policies = [None] * n_banks
        self.tm_alert = [0] * n_banks
        self.rows_per_region = 1
        for flat in range(n_banks):
            engine = None
            if setup.mechanism == "autorfm":
                engine = AutoRfmEngine(
                    config=mc_config,
                    tracker=build_tracker(setup, mc_streams, flat),
                    policy=build_policy(setup, mc_config, mc_streams, flat),
                    autorfm_th=setup.threshold,
                    stats=self.stats.banks[flat],
                )
            elif setup.mechanism == "smd":
                smd_setup = dataclasses.replace(
                    setup, tracker="para", policy="blast2"
                )
                engine = AutoRfmEngine(
                    config=mc_config,
                    tracker=build_tracker(smd_setup, mc_streams, flat),
                    policy=build_policy(smd_setup, mc_config, mc_streams, flat),
                    autorfm_th=1,
                    stats=self.stats.banks[flat],
                    regions_per_bank=setup.smd_regions_per_bank,
                )
            elif setup.mechanism == "rfm":
                self.rfm_trackers[flat] = build_tracker(
                    setup, mc_streams, flat
                )
                self.rfm_policies[flat] = build_policy(
                    setup, mc_config, mc_streams, flat
                )
            if engine is not None:
                self.autorfm[flat] = engine
                self.rows_per_region = engine._rows_per_region
                # t_M is a pure function of the policy class and tRC; the
                # scalar path recomputes it per ALERT, with the same value.
                self.tm_alert[flat] = (
                    setup.tm_retry_cycles or engine.mitigation_busy_cycles
                )
                if records is not None:
                    engine.mitigation_listener = (
                        lambda t, f=flat: records.append(
                            CommandRecord(t, MITIGATION, f)
                        )
                    )
                    engine.victim_listener = (
                        lambda t, victim, f=flat: records.append(
                            CommandRecord(t, VICTIM_REFRESH, f, victim)
                        )
                    )

        # Core constants, vectorized: instruction sequence numbers are a
        # cumsum, dispatch bounds and retirement budgets elementwise ops.
        width = config.core_width
        self.core_n: List[int] = []
        self.core_seq: List[List[int]] = []
        self.core_bound: List[List[int]] = []
        self.core_retire: List[List[int]] = []
        self.core_writes: List[List[bool]] = []
        self.tail_cycles: List[int] = []
        self.totals: List[int] = []
        for trace in lane.traces:
            gaps = np.asarray(trace.gaps, dtype=np.int64)
            n = len(trace)
            seq_arr = np.cumsum(gaps + 1)
            self.core_n.append(n)
            self.core_seq.append(seq_arr.tolist())
            self.core_bound.append((seq_arr // width).tolist())
            self.core_retire.append(((gaps + width) // width).tolist())
            self.core_writes.append(list(trace.writes))
            tail = -(-trace.tail_instructions // width)
            self.tail_cycles.append(tail)
            self.totals.append(
                (int(seq_arr[-1]) if n else 0) + trace.tail_instructions
            )

        # One vectorized address decode for the lane's whole trace set.
        try:
            self.core_rows, self.core_flats = decode_traces(
                mapping, lane.traces
            )
        except ValueError:
            # Out-of-range address: the scalar path raises the same error
            # at system construction, so hand the lane to it.
            raise _Fallback("address-range") from None

    # ------------------------------------------------------------------
    def run(self):
        """Drain the lane to completion; returns a SimulationResult.

        Raises :class:`_Fallback` when the lane hits an irregular event
        (blocking RFM due, ABO recovery); no externally visible state has
        been touched at that point.
        """
        from repro.cpu.system import SimulationResult

        setup = self.setup
        config = self.config
        timing = self.timing
        stats = self.stats
        bank_stats = stats.banks

        # --- constants -------------------------------------------------
        trefi = timing.trefi
        trfc = timing.trfc
        trp = timing.trp
        tras = timing.tras
        trcd = timing.trcd
        trc = timing.trc
        tfaw = timing.tfaw
        cas = timing.cas_latency
        burst = timing.burst
        completion_tail = (
            burst + config.static_mem_latency + self.extra_latency
        )
        banks_per_sc = config.banks_per_subchannel
        nsc = config.num_subchannels
        n_banks = config.num_banks
        num_cores = config.num_cores
        rob_size = config.rob_size
        mshrs = config.mshrs_per_core
        rpr = self.rows_per_region
        sc_of = [flat // banks_per_sc for flat in range(n_banks)]

        rfm = self.rfm
        prac = self.prac
        bh = self.blockhammer
        autorfm = self.autorfm
        rfm_trackers = self.rfm_trackers
        rfm_policies = self.rfm_policies
        tm_alert = self.tm_alert
        records = self.records
        # Pre-bound per-bank fast paths into the real mitigation objects:
        # the per-ACT AutoRfmEngine.on_activation body (tracker call plus
        # window counter) and the on_precharge pending check are inlined
        # at the call sites; only the rare _start_mitigation stays a call.
        eng_tracker_act = [
            engine.tracker.on_activation if engine is not None else None
            for engine in autorfm
        ]
        eng_start = [
            engine._start_mitigation if engine is not None else None
            for engine in autorfm
        ]
        eng_th = [
            engine.autorfm_th if engine is not None else 0
            for engine in autorfm
        ]
        bh_earliest = bh.earliest_act if bh is not None else None
        bh_observe = bh.observe if bh is not None else None
        prac_on_act = prac.on_activation if prac is not None else None
        # RfmController.on_activation/on_refresh reduce to RAA bumps when
        # no observability is attached (kernel lanes never attach any).
        raa = rfm.raa if rfm is not None else None
        raa_max = rfm.raa_max if rfm is not None else 0
        rfm_th_limit = rfm.rfm_th if rfm is not None else 0
        ref_decrement = rfm.ref_decrement if rfm is not None else 0

        core_n = self.core_n
        core_seq = self.core_seq
        core_bound = self.core_bound
        core_retire = self.core_retire
        core_writes = self.core_writes
        core_rows = self.core_rows
        core_flats = self.core_flats
        tail_cycles = self.tail_cycles

        # --- mutable state (parallel arrays, no object graphs) ---------
        heap: List[tuple] = []
        push = heapq.heappush
        pop = heapq.heappop
        seq = 0

        queues: List[List[list]] = [[] for _ in range(n_banks)]
        recent_acts: List[List[int]] = [[] for _ in range(nsc)]
        busy_until = [0] * n_banks
        bus_free = [0] * nsc
        wakeups: List[Optional[int]] = [None] * n_banks
        b_ready = [0] * n_banks
        b_open = [-1] * n_banks
        b_act = [-(10 ** 9)] * n_banks
        b_until = [-1] * n_banks
        # Kernel-owned stat accumulators (merged into BankStats/CoreStats
        # at the end; mitigation counters land directly in the shared
        # BankStats via the real AutoRFM/tracker objects).
        b_acts = [0] * n_banks
        b_hits = [0] * n_banks
        b_reads = [0] * n_banks
        b_writes = [0] * n_banks
        b_refs = [0] * n_banks
        b_alerts = [0] * n_banks
        max_alerts = 0

        next_i = [0] * num_cores
        mshr_used = [0] * num_cores
        dispatch_time = [([0] * n) for n in core_n]
        completion: List[List[Optional[int]]] = [
            ([None] * n) for n in core_n
        ]
        outstanding: List[List[list]] = [[] for _ in range(num_cores)]
        retire_ptr = [0] * num_cores
        retire_time = [0] * num_cores
        issue_at: List[Optional[int]] = [None] * num_cores
        finished = [False] * num_cores
        finish_cycle = [0] * num_cores
        c_memreq = [0] * num_cores
        c_reads = [0] * num_cores
        c_latsum = [0] * num_cores
        unfinished = 0

        # --- closures over the flattened state -------------------------
        # Hot containers ride in through default arguments (LOAD_FAST, not
        # cell lookups); only the rebound scalars (seq, max_alerts,
        # unfinished) stay nonlocal. The wakeup dedup is hand-inlined at
        # the per-request sites and kept as a helper for the rare ones
        # (ALERT, BlockHammer throttle, REF); both forms are the exact
        # MemoryController._wakeup logic.
        def wakeup(flat, time, now):
            nonlocal seq
            if time <= now:
                time = now + 1
            pending = wakeups[flat]
            if pending is not None and pending <= time:
                return
            wakeups[flat] = time
            push(heap, (time, seq, _OP_WAKEUP, flat, 0))
            seq += 1

        def try_service(
            flat,
            now,
            queues=queues,
            sc_of=sc_of,
            b_open=b_open,
            b_until=b_until,
            b_act=b_act,
            b_ready=b_ready,
            busy_until=busy_until,
            recent_acts=recent_acts,
            bus_free=bus_free,
            wakeups=wakeups,
            autorfm=autorfm,
            rfm_trackers=rfm_trackers,
            eng_tracker_act=eng_tracker_act,
            eng_th=eng_th,
            tm_alert=tm_alert,
            b_acts=b_acts,
            b_hits=b_hits,
            b_reads=b_reads,
            b_writes=b_writes,
            b_alerts=b_alerts,
            heap=heap,
            push=push,
            trcd=trcd,
            cas=cas,
            burst=burst,
            completion_tail=completion_tail,
            tras=tras,
            trc=trc,
            trp=trp,
            tfaw=tfaw,
            rpr=rpr,
            records=records,
            raa=raa,
            raa_max=raa_max,
            prac_on_act=prac_on_act,
            bh_earliest=bh_earliest,
            bh_observe=bh_observe,
            OP_WAKEUP=_OP_WAKEUP,
            OP_AUTO_PRE=_OP_AUTO_PRE,
            OP_READ_DONE=_OP_READ_DONE,
        ):
            # Inlined MemoryController._try_service for the fast path
            # (closed page, all-bank REF, no write drain, no retry
            # ablation); irregular events raise _Fallback instead.
            nonlocal seq, max_alerts
            queue = queues[flat]
            while queue:
                open_row = b_open[flat]
                if open_row != -1 and now <= b_until[flat]:
                    sc = sc_of[flat]
                    kept = []
                    act_time = b_act[flat]
                    for req in queue:
                        if req[0] == open_row:
                            b_hits[flat] += 1
                            data_ready = act_time + trcd
                            if now > data_ready:
                                data_ready = now
                            data_start = data_ready + cas
                            free = bus_free[sc]
                            if free > data_start:
                                data_start = free
                            bus_free[sc] = data_start + burst
                            if req[1]:
                                b_writes[flat] += 1
                            else:
                                b_reads[flat] += 1
                                push(heap, (
                                    data_start + completion_tail, seq,
                                    OP_READ_DONE, req[2], req[3],
                                ))
                                seq += 1
                        else:
                            kept.append(req)
                    if len(kept) != len(queue):
                        queue[:] = kept
                        continue

                busy = busy_until[flat]
                if now < busy:
                    # Inlined wakeup (busy > now, so no clamp needed).
                    pending = wakeups[flat]
                    if pending is None or pending > busy:
                        wakeups[flat] = busy
                        push(heap, (busy, seq, OP_WAKEUP, flat, 0))
                        seq += 1
                    return

                if raa is not None and raa[flat] >= raa_max:
                    raise _Fallback("rfm-command")

                ready = b_ready[flat]
                if b_open[flat] != -1 or now < ready:
                    # Inlined wakeup at the bank-not-ready site.
                    if ready <= now:
                        ready = now + 1
                    pending = wakeups[flat]
                    if pending is None or pending > ready:
                        wakeups[flat] = ready
                        push(heap, (ready, seq, OP_WAKEUP, flat, 0))
                        seq += 1
                    return

                sc = sc_of[flat]
                recent = recent_acts[sc]
                if len(recent) == 4:
                    window = recent[0] + tfaw
                    if now < window:
                        # Inlined wakeup (window > now).
                        pending = wakeups[flat]
                        if pending is None or pending > window:
                            wakeups[flat] = window
                            push(heap, (window, seq, OP_WAKEUP, flat, 0))
                            seq += 1
                        return

                req = queue[0]
                row = req[0]

                if bh_earliest is not None:
                    allowed = bh_earliest(flat, row, now)
                    if now < allowed:
                        wakeup(flat, allowed, now)
                        return

                engine = autorfm[flat]
                if engine is not None:
                    saum = engine.saum
                    if (
                        saum is not None
                        and now < engine.saum_busy_until
                        and row // rpr == saum
                    ):
                        # Inlined _handle_alert (Fig. 7 busy-table path).
                        b_alerts[flat] += 1
                        alerts = req[4] + 1
                        req[4] = alerts
                        if records is not None:
                            records.append(
                                CommandRecord(now, ALERT, flat, row)
                            )
                        if alerts > max_alerts:
                            max_alerts = alerts
                        retry_time = now + tm_alert[flat]
                        stall = now + trp
                        if stall > b_ready[flat]:
                            b_ready[flat] = stall
                        if retry_time > busy_until[flat]:
                            busy_until[flat] = retry_time
                        wakeup(flat, retry_time, now)
                        return

                # Issue the ACT (inlined Bank.activate, closed page).
                b_open[flat] = row
                b_act[flat] = now
                b_until[flat] = now + tras
                b_ready[flat] = now + trc
                b_acts[flat] += 1
                if engine is not None:
                    # Inlined AutoRfmEngine.on_activation: tracker sample
                    # plus the mitigation-window counter.
                    eng_tracker_act[flat](row)
                    acts = engine._acts_in_window + 1
                    engine._acts_in_window = acts
                    if acts >= eng_th[flat]:
                        engine._mitigation_pending = True
                else:
                    tracker = rfm_trackers[flat]
                    if tracker is not None:
                        tracker.on_activation(row)
                recent.append(now)
                if len(recent) > 4:
                    recent.pop(0)
                if records is not None:
                    records.append(CommandRecord(now, ACT, flat, row))
                push(heap, (now + tras, seq, OP_AUTO_PRE, flat, 0))
                seq += 1
                if raa is not None:
                    # Inlined RfmController.on_activation (no obs hooks
                    # are ever attached on the kernel path).
                    raa[flat] += 1
                if prac_on_act is not None and prac_on_act(flat, row):
                    raise _Fallback("abo-recovery")
                if bh_observe is not None:
                    bh_observe(flat, row, now)
                # Inlined _serve(hit=False).
                data_start = now + trcd + cas
                free = bus_free[sc]
                if free > data_start:
                    data_start = free
                bus_free[sc] = data_start + burst
                if req[1]:
                    b_writes[flat] += 1
                else:
                    b_reads[flat] += 1
                    push(heap, (
                        data_start + completion_tail, seq,
                        OP_READ_DONE, req[2], req[3],
                    ))
                    seq += 1
                del queue[0]
                # Loop: younger queued requests may now hit the open row.

        def try_issue(
            core,
            now,
            core_n=core_n,
            core_seq=core_seq,
            core_bound=core_bound,
            core_retire=core_retire,
            core_writes=core_writes,
            core_rows=core_rows,
            core_flats=core_flats,
            tail_cycles=tail_cycles,
            next_i=next_i,
            mshr_used=mshr_used,
            dispatch_time=dispatch_time,
            completion=completion,
            outstanding=outstanding,
            retire_ptr=retire_ptr,
            retire_time=retire_time,
            issue_at=issue_at,
            finished=finished,
            finish_cycle=finish_cycle,
            c_memreq=c_memreq,
            queues=queues,
            heap=heap,
            push=push,
            try_service=try_service,
            rob_size=rob_size,
            mshrs=mshrs,
            OP_ISSUE_FIRED=_OP_ISSUE_FIRED,
        ):
            # Inlined Core._try_issue + _advance_retirement +
            # _maybe_finish. The while/else mirrors the scalar control
            # flow: stall returns (break) skip the final _maybe_finish,
            # a natural exit (all instructions dispatched) runs it.
            nonlocal seq, unfinished
            n = core_n[core]
            ni = next_i[core]
            used = mshr_used[core]
            seqs = core_seq[core]
            bounds = core_bound[core]
            writes = core_writes[core]
            rows = core_rows[core]
            flats = core_flats[core]
            out = outstanding[core]
            comp = completion[core]
            dtime = dispatch_time[core]
            rcyc = core_retire[core]
            while ni < n:
                i = ni
                bound = bounds[i]
                if bound > now:
                    pending = issue_at[core]
                    if pending is None or pending > bound:
                        issue_at[core] = bound
                        push(heap, (bound, seq, OP_ISSUE_FIRED, core, 0))
                        seq += 1
                    break
                if out and seqs[i] - out[0][0] >= rob_size:
                    break
                is_write = writes[i]
                if not is_write and used >= mshrs:
                    break
                # Dispatch + submit (locate was precomputed up front).
                ni = i + 1
                c_memreq[core] += 1
                dtime[i] = now
                if is_write:
                    comp[i] = now
                else:
                    used += 1
                    out.append([seqs[i], i, 0])
                next_i[core] = ni
                flat = flats[i]
                queues[flat].append([rows[i], is_write, core, i, 0])
                try_service(flat, now)
                # Inlined _advance_retirement.
                ptr = retire_ptr[core]
                rtime = retire_time[core]
                stalled = False
                while ptr < ni:
                    done = comp[ptr]
                    if done is None:
                        stalled = True
                        break
                    budget = rtime + rcyc[ptr]
                    rtime = done if done > budget else budget
                    ptr += 1
                retire_ptr[core] = ptr
                retire_time[core] = rtime
                if not stalled and ni == n and not finished[core]:
                    # Inlined _maybe_finish (ptr == ni == n here).
                    finished[core] = True
                    cycle = rtime + tail_cycles[core]
                    finish_cycle[core] = cycle if cycle > 1 else 1
                    unfinished -= 1
            else:
                # Natural loop exit: scalar's trailing _maybe_finish().
                if not finished[core] and retire_ptr[core] == n:
                    finished[core] = True
                    cycle = retire_time[core] + tail_cycles[core]
                    finish_cycle[core] = cycle if cycle > 1 else 1
                    unfinished -= 1
            next_i[core] = ni
            mshr_used[core] = used

        # --- initial schedule (same seq order as SimulatedSystem) ------
        for sc in range(nsc):
            offset = (sc * trefi) // nsc
            first = offset if offset > 0 else trefi
            push(heap, (first, seq, _OP_REF, sc, 0))
            seq += 1
        if prac is not None:
            push(heap, (timing.trefw, seq, _OP_PRAC_WINDOW, 0, 0))
            seq += 1
        for core in range(num_cores):
            if core_n[core] == 0:
                finished[core] = True
                cycle = tail_cycles[core]
                finish_cycle[core] = cycle if cycle > 1 else 1
            else:
                push(heap, (0, seq, _OP_ISSUE_FIRED, core, 0))
                seq += 1
        unfinished = sum(1 for flag in finished if not flag)

        # --- the fused event loop --------------------------------------
        OP_WAKEUP = _OP_WAKEUP
        OP_AUTO_PRE = _OP_AUTO_PRE
        OP_READ_DONE = _OP_READ_DONE
        OP_ISSUE_FIRED = _OP_ISSUE_FIRED
        OP_REF = _OP_REF
        while heap:
            now, _, op, a, b = pop(heap)
            if op == OP_WAKEUP:
                pending = wakeups[a]
                if pending is not None and pending <= now:
                    wakeups[a] = None
                if queues[a]:
                    try_service(a, now)
            elif op == OP_AUTO_PRE:
                # Inlined _auto_precharge (closed-page tRAS expiry); the
                # engine hook is AutoRfmEngine.on_precharge, inlined down
                # to its pending-mitigation check.
                if b_open[a] != -1:
                    b_open[a] = -1
                    b_until[a] = -1
                    engine = autorfm[a]
                    if engine is not None and engine._mitigation_pending:
                        engine._mitigation_pending = False
                        engine._acts_in_window = 0
                        eng_start[a](now)
                if raa is not None and raa[a] >= rfm_th_limit:
                    if not queues[a] or raa[a] >= raa_max:
                        raise _Fallback("rfm-command")
                if queues[a]:
                    # Inlined wakeup at the post-precharge site.
                    ready = b_ready[a]
                    if ready <= now:
                        ready = now + 1
                    pending = wakeups[a]
                    if pending is None or pending > ready:
                        wakeups[a] = ready
                        push(heap, (ready, seq, OP_WAKEUP, a, 0))
                        seq += 1
            elif op == OP_READ_DONE:
                # Inlined Core._on_read_complete + _advance_retirement.
                mshr_used[a] -= 1
                comp = completion[a]
                comp[b] = now
                c_reads[a] += 1
                c_latsum[a] += now - dispatch_time[a][b]
                out = outstanding[a]
                for entry in out:
                    if entry[1] == b:
                        entry[2] = 1
                        break
                while out and out[0][2]:
                    del out[0]
                limit = next_i[a]
                ptr = retire_ptr[a]
                rtime = retire_time[a]
                rcyc = core_retire[a]
                stalled = False
                while ptr < limit:
                    done = comp[ptr]
                    if done is None:
                        stalled = True
                        break
                    budget = rtime + rcyc[ptr]
                    rtime = done if done > budget else budget
                    ptr += 1
                retire_ptr[a] = ptr
                retire_time[a] = rtime
                if not stalled and limit == core_n[a] and not finished[a]:
                    finished[a] = True
                    cycle = rtime + tail_cycles[a]
                    finish_cycle[a] = cycle if cycle > 1 else 1
                    unfinished -= 1
                try_issue(a, now)
            elif op == OP_ISSUE_FIRED:
                pending = issue_at[a]
                if pending is not None and pending <= now:
                    issue_at[a] = None
                try_issue(a, now)
            elif op == OP_REF:
                # Inlined _refresh (all-bank REF per subchannel).
                base = a * banks_per_sc
                for local in range(banks_per_sc):
                    flat = base + local
                    if b_open[flat] != -1:
                        b_open[flat] = -1
                        b_until[flat] = -1
                        engine = autorfm[flat]
                        if engine is not None and engine._mitigation_pending:
                            engine._mitigation_pending = False
                            engine._acts_in_window = 0
                            eng_start[flat](now)
                    blocked = now + trfc
                    if blocked > b_ready[flat]:
                        b_ready[flat] = blocked
                    b_refs[flat] += 1
                    tracker = rfm_trackers[flat]
                    if tracker is not None:
                        # Inlined Bank._perform_rfm_mitigation: REF
                        # harvests a pending tracker window for free.
                        request = tracker.select_for_mitigation()
                        if request is not None:
                            victims = rfm_policies[flat].victims(request)
                            if victims:
                                bstats = bank_stats[flat]
                                bstats.mitigations += 1
                                bstats.victim_refreshes += len(victims)
                                if request.level > 1:
                                    bstats.recursive_rounds += 1
                                for victim in victims:
                                    tracker.on_victim_refresh(
                                        victim, request.level
                                    )
                    if raa is not None:
                        # Inlined RfmController.on_refresh.
                        level = raa[flat] - ref_decrement
                        raa[flat] = level if level > 0 else 0
                    if records is not None:
                        records.append(CommandRecord(now, REF, flat))
                    if queues[flat]:
                        wakeup(flat, b_ready[flat], now)
                stats.refresh_windows += 1
                if unfinished:
                    push(heap, (now + trefi, seq, OP_REF, a, 0))
                    seq += 1
            else:  # _OP_PRAC_WINDOW
                prac.on_refresh_window()
                if unfinished:
                    push(heap, (
                        now + timing.trefw, seq, _OP_PRAC_WINDOW, 0, 0,
                    ))
                    seq += 1

        # --- finalize (mirrors SimulatedSystem.finalize) ---------------
        stalled_cores = [
            core for core in range(num_cores) if not finished[core]
        ]
        if stalled_cores:
            raise RuntimeError(
                f"cores {stalled_cores} never finished (deadlock?)"
            )
        for flat in range(n_banks):
            bstats = bank_stats[flat]
            bstats.activations += b_acts[flat]
            bstats.row_hits += b_hits[flat]
            bstats.reads += b_reads[flat]
            bstats.writes += b_writes[flat]
            bstats.refreshes += b_refs[flat]
            bstats.alerts += b_alerts[flat]
        for core in range(num_cores):
            cstats = stats.cores[core]
            cstats.memory_requests = c_memreq[core]
            cstats.reads_completed = c_reads[core]
            cstats.read_latency_sum = c_latsum[core]
            cstats.instructions = self.totals[core]
            cstats.finish_cycle = finish_cycle[core]
        stats.max_request_alerts = max_alerts
        stats.cycles = max(finish_cycle)
        self.events = seq
        return SimulationResult(
            stats=stats,
            setup=setup,
            mapping=self.lane.mapping,
            seed=self.lane.seed,
        )


def _run_scalar(lane: SimLane):
    """Run one lane on the scalar oracle with its full option surface."""
    from repro.cpu.system import simulate

    return simulate(
        lane.traces,
        setup=lane.setup,
        config=lane.config,
        mapping=lane.mapping,
        seed=lane.seed,
        max_events=lane.max_events,
        command_log=lane.command_log,
        obs=lane.obs,
        checkpoint_every=lane.checkpoint_every,
        checkpoint_dir=lane.checkpoint_dir,
    )


def simulate_batch(
    lanes: Sequence[SimLane],
    backend: str = "batch",
    report: Optional[Dict] = None,
) -> List:
    """Run every lane and return their results in order.

    ``backend="batch"`` advances kernel-eligible lanes on the fused
    interpreter and transparently reruns any lane that leaves the fast
    path on the scalar oracle; ``backend="scalar"`` forces the oracle for
    every lane. Results are bit-identical either way.

    ``report``, when given a dict, is filled with per-lane routing
    telemetry: ``report["lanes"][i]`` records the path taken ("kernel" or
    "scalar"), the fallback/ineligibility reason (None on the kernel
    path), and the kernel event count.
    """
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS}"
        )
    results = []
    entries = []
    for lane in lanes:
        setup = lane.setup or MitigationSetup(mechanism="none")
        config = lane.config or SystemConfig()
        reason: Optional[str] = None
        if backend != "batch":
            reason = "scalar-backend"
        else:
            reason = _lane_block_reason(lane, setup, config)
        if reason is None:
            try:
                kernel = _LaneKernel(lane, setup, config)
                result = kernel.run()
            except _Fallback as fallback:
                reason = fallback.reason
            else:
                if lane.command_log is not None and kernel.records:
                    lane.command_log.records.extend(kernel.records)
                results.append(result)
                entries.append({
                    "path": "kernel",
                    "reason": None,
                    "events": kernel.events,
                })
                continue
        results.append(_run_scalar(lane))
        entries.append({"path": "scalar", "reason": reason, "events": None})
    if report is not None:
        report["backend"] = backend
        report["lanes"] = entries
    return results
