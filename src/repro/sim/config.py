"""System and DRAM configuration (Tables I and IV of the paper).

All simulator time is integer CPU cycles at ``CPU_FREQ_GHZ`` = 4 GHz, i.e.
0.25 ns per cycle. Every DDR5 timing in Table I is a whole number of cycles
at that granularity (tRC = 48 ns = 192 cycles, tRFM = 205 ns = 820 cycles).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from functools import cached_property

CPU_FREQ_GHZ = 4
CYCLES_PER_NS = CPU_FREQ_GHZ  # 4 GHz -> 4 cycles per nanosecond

# ----------------------------------------------------------------------
# Environment knobs
# ----------------------------------------------------------------------
# This module is the designated home for os.environ reads that influence
# the simulator (the determinism lint's DET003 forbids them anywhere else
# in sim-critical code): an env var read in a hot path is an input the
# result-cache key and snapshot metadata never see. Orchestration-level
# knobs (REPRO_JOBS, REPRO_CACHE_*) live with the analysis runner, which
# is not sim-critical by construction. No simulator knob reads the
# environment today.


def ns_to_cycles(ns: float) -> int:
    """Convert nanoseconds to CPU cycles, rounding to the nearest cycle.

    Every Table I timing is an exact integer at 4 GHz; rounding only matters
    for derived timings such as PRAC's scaled tRC (52.8 ns -> 211 cycles).
    """
    return int(round(ns * CYCLES_PER_NS))


def cycles_to_ns(cycles: int) -> float:
    """Convert CPU cycles back to nanoseconds."""
    return cycles / CYCLES_PER_NS


@dataclass(frozen=True)
class DramTiming:
    """DDR5 timing parameters (Table I), stored in nanoseconds.

    Use the ``*_cycles`` properties for simulator time. ``cas_latency_ns``
    and ``burst_ns`` are not in Table I; they model read latency and data-bus
    occupancy for a 64 B transfer on a DDR5 subchannel and only shift absolute
    latency, not the relative slowdowns the paper reports.
    """

    trcd_ns: float = 12.0  # time for performing ACT
    trp_ns: float = 12.0  # time to precharge an open row
    tras_ns: float = 36.0  # minimum time a row must be kept open
    trc_ns: float = 48.0  # time between successive ACTs to a bank
    trefw_ns: float = 32_000_000.0  # refresh period (32 ms)
    trefi_ns: float = 3900.0  # time between successive REF commands
    trfc_ns: float = 410.0  # duration of an all-bank REF command
    trfc_sb_ns: float = 130.0  # duration of a same-bank (REFsb) command
    trfm_ns: float = 205.0  # duration of an RFM command
    cas_latency_ns: float = 16.0  # column access latency
    burst_ns: float = 3.25  # 64 B burst on a 32-bit DDR5-4800 subchannel
    #: Four-activate window per subchannel. DDR5 parts span ~8-14 ns at
    #: this data rate; 10 ns models an x4/x16 mid-point.
    tfaw_ns: float = 10.0

    @cached_property
    def trcd(self) -> int:
        return ns_to_cycles(self.trcd_ns)

    @cached_property
    def trp(self) -> int:
        return ns_to_cycles(self.trp_ns)

    @cached_property
    def tras(self) -> int:
        return ns_to_cycles(self.tras_ns)

    @cached_property
    def trc(self) -> int:
        return ns_to_cycles(self.trc_ns)

    @cached_property
    def trefw(self) -> int:
        return ns_to_cycles(self.trefw_ns)

    @cached_property
    def trefi(self) -> int:
        return ns_to_cycles(self.trefi_ns)

    @cached_property
    def trfc(self) -> int:
        return ns_to_cycles(self.trfc_ns)

    @cached_property
    def trfc_sb(self) -> int:
        return ns_to_cycles(self.trfc_sb_ns)

    @cached_property
    def trfm(self) -> int:
        return ns_to_cycles(self.trfm_ns)

    @cached_property
    def cas_latency(self) -> int:
        return ns_to_cycles(self.cas_latency_ns)

    @cached_property
    def burst(self) -> int:
        return ns_to_cycles(self.burst_ns)

    @cached_property
    def tfaw(self) -> int:
        return ns_to_cycles(self.tfaw_ns)

    def scaled(self, trc_factor: float = 1.0, trp_factor: float = 1.0) -> "DramTiming":
        """Return a copy with scaled tRC/tRP (used by the PRAC model)."""
        return dataclasses.replace(
            self,
            trc_ns=self.trc_ns * trc_factor,
            trp_ns=self.trp_ns * trp_factor,
        )


@dataclass(frozen=True)
class SystemConfig:
    """Baseline system configuration (Table IV).

    The default geometry is 32 GB of DDR5 as 2 subchannels x 1 rank x
    32 banks = 64 banks, 128 K rows per bank, 4 KB rows, 256 subarrays per
    bank (512 rows each). A 64 B line and 4 KB page give 64 lines per page.
    """

    num_cores: int = 8
    core_width: int = 4  # instructions retired per CPU cycle
    rob_size: int = 256  # run-ahead window, in instructions
    mshrs_per_core: int = 8  # outstanding misses per core

    llc_size_bytes: int = 8 * 1024 * 1024
    llc_ways: int = 16
    line_bytes: int = 64

    num_subchannels: int = 2
    banks_per_subchannel: int = 32
    rows_per_bank: int = 128 * 1024
    row_bytes: int = 4096
    subarrays_per_bank: int = 256

    timing: DramTiming = field(default_factory=DramTiming)

    #: Row-buffer policy: "closed" (the paper's choice — auto-precharge at
    #: tRAS, hits permitted inside the window) or "open" (rows stay open
    #: until a conflicting access, REF, or RFM forces a precharge).
    page_policy: str = "closed"

    #: Refresh mode: "all_bank" (REFab every tREFI blocks the subchannel
    #: for tRFC — the paper's assumption) or "same_bank" (DDR5 REFsb: banks
    #: refresh round-robin, one per tREFI / banks slot, each blocked only
    #: tRFCsb; the rest keep serving).
    refresh_mode: str = "all_bank"

    #: Write handling: False (default) interleaves writes with reads in
    #: arrival order; True buffers writes per subchannel and drains them in
    #: bursts at a high watermark (read-priority, real-MC style).
    write_drain: bool = False
    write_buffer_size: int = 32

    # Fixed round-trip latency outside DRAM (interconnect + controller), in
    # CPU cycles.
    static_mem_latency: int = 60

    @property
    def num_banks(self) -> int:
        return self.num_subchannels * self.banks_per_subchannel

    @property
    def lines_per_row(self) -> int:
        return self.row_bytes // self.line_bytes

    @property
    def rows_per_subarray(self) -> int:
        return self.rows_per_bank // self.subarrays_per_bank

    @property
    def lines_per_bank(self) -> int:
        return self.rows_per_bank * self.lines_per_row

    @property
    def total_lines(self) -> int:
        return self.num_banks * self.lines_per_bank

    @property
    def capacity_bytes(self) -> int:
        return self.total_lines * self.line_bytes

    def validate(self) -> None:
        """Raise ``ValueError`` for an inconsistent geometry."""
        if self.rows_per_bank % self.subarrays_per_bank:
            raise ValueError("rows_per_bank must divide into subarrays")
        if self.row_bytes % self.line_bytes:
            raise ValueError("row_bytes must be a multiple of line_bytes")
        if (self.lines_per_row // 2) % self.banks_per_subchannel:
            raise ValueError(
                "line pairs per page must be a multiple of the banks per "
                "subchannel (the Zen striping needs it to stay bijective)"
            )
        for name in ("num_cores", "num_subchannels", "banks_per_subchannel"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.page_policy not in ("closed", "open"):
            raise ValueError(f"unknown page_policy {self.page_policy!r}")
        if self.refresh_mode not in ("all_bank", "same_bank"):
            raise ValueError(f"unknown refresh_mode {self.refresh_mode!r}")
        if self.write_buffer_size < 1:
            raise ValueError("write_buffer_size must be positive")

    def subarray_of_row(self, row: int) -> int:
        """Map a row index within a bank to its subarray index."""
        if not 0 <= row < self.rows_per_bank:
            raise ValueError(f"row {row} out of range")
        return row // self.rows_per_subarray
