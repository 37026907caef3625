"""Mapping interface shared by all physical memory mappings."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.sim.config import SystemConfig


@dataclass(frozen=True)
class LineLocation:
    """Physical location of one 64 B line.

    ``bank`` is local to the subchannel; ``flat_bank`` is the global bank
    index used for statistics. ``column`` indexes lines within the row.
    """

    subchannel: int
    bank: int
    row: int
    column: int

    def flat_bank(self, banks_per_subchannel: int) -> int:
        """Global bank index across subchannels (for statistics)."""
        return self.subchannel * banks_per_subchannel + self.bank


class MemoryMapping(abc.ABC):
    """Maps a physical line address to its DRAM location.

    A mapping must be a bijection from ``[0, config.total_lines)`` onto the
    full set of (subchannel, bank, row, column) tuples: trackers and the
    Rowhammer attack analysis both depend on distinct lines never aliasing.
    """

    #: Extra request latency introduced by the mapping, in CPU cycles
    #: (e.g. the Rubix cipher's 3-cycle address encryption).
    extra_latency: int = 0

    def __init__(self, config: SystemConfig):
        config.validate()
        self.config = config
        # locate() runs once per memory request; resolve the geometry
        # constants out of the config's computed properties up front.
        self._total_lines = config.total_lines
        self._lines_per_row = config.lines_per_row
        self._banks_per_sc = config.banks_per_subchannel
        self._num_subchannels = config.num_subchannels

    @abc.abstractmethod
    def locate(self, line_addr: int) -> LineLocation:
        """Return the location of ``line_addr``."""

    @abc.abstractmethod
    def line_for(self, location: LineLocation) -> int:
        """Inverse of :meth:`locate`: the line address at ``location``.

        Adversarial analysis needs this: a Rowhammer attacker targets
        specific *rows*, so attack-trace generation must construct the line
        addresses that land there (trivial under Zen; requires the cipher
        key under Rubix, which is why randomization also raises the bar for
        attackers that cannot read the mapping).
        """

    def locate_array(self, addrs) -> Tuple[np.ndarray, np.ndarray]:
        """Vectorised :meth:`locate` for a whole trace: ``(rows, flat_banks)``.

        Element-wise identical to ``locate(a).row`` and
        ``locate(a).flat_bank(banks_per_subchannel)``; both results are
        int64 arrays. The first out-of-range address raises the same
        ``ValueError`` as :meth:`locate`. Subclasses that scramble the
        address first override only :meth:`_scramble_array`.
        """
        addrs = np.asarray(addrs, dtype=np.int64)
        bad = (addrs < 0) | (addrs >= self._total_lines)
        if bad.any():
            self._check_range(int(addrs[np.argmax(bad)]))
        scrambled = self._scramble_array(addrs)
        lines_per_row = self._lines_per_row
        banks = self._banks_per_sc
        nsc = self._num_subchannels
        page = scrambled // lines_per_row
        bank = ((scrambled % lines_per_row) >> 1) % banks
        rows = page // nsc // banks
        flat_banks = (page % nsc) * banks + bank
        return rows, flat_banks

    def _scramble_array(self, addrs: np.ndarray) -> np.ndarray:
        """The pre-decomposition address transform, on a whole array."""
        return addrs

    def subarray_of(self, location: LineLocation) -> int:
        """Subarray index (within the bank) holding ``location``'s row."""
        return self.config.subarray_of_row(location.row)

    def _check_range(self, line_addr: int) -> None:
        if not 0 <= line_addr < self._total_lines:
            raise ValueError(
                f"line address {line_addr} outside "
                f"[0, {self._total_lines})"
            )

    def _decompose(self, scrambled: int) -> LineLocation:
        """Zen-style bit decomposition of a (possibly encrypted) line address.

        Layout of the 4 KB page (64 lines): two consecutive lines share a
        bank row, and the line-pairs stripe across the banks of a
        subchannel (with the Table IV geometry, 32 pairs over 32 banks, so
        each page leaves exactly two lines per bank). The page number
        selects the subchannel, the column group within the row, and the
        row. The mapping is a bijection for any geometry where the pair
        count per page is a multiple of the bank count (``validate``
        enforces this).
        """
        lines_per_row = self._lines_per_row
        offset = scrambled % lines_per_row
        page = scrambled // lines_per_row

        col_low = offset & 1
        pair = offset >> 1
        banks = self._banks_per_sc
        bank = pair % banks
        leftover = pair // banks  # extra pairs of this page in the same bank

        subchannel = page % self._num_subchannels
        page //= self._num_subchannels

        page_group = page % banks
        row = page // banks

        column = (leftover * banks + page_group) * 2 + col_low
        return LineLocation(subchannel=subchannel, bank=bank, row=row, column=column)

    def _compose(self, location: LineLocation) -> int:
        """Inverse of :meth:`_decompose` (returns the pre-cipher address)."""
        cfg = self.config
        banks = cfg.banks_per_subchannel
        if not 0 <= location.subchannel < cfg.num_subchannels:
            raise ValueError(f"subchannel {location.subchannel} out of range")
        if not 0 <= location.bank < banks:
            raise ValueError(f"bank {location.bank} out of range")
        if not 0 <= location.row < cfg.rows_per_bank:
            raise ValueError(f"row {location.row} out of range")
        if not 0 <= location.column < cfg.lines_per_row:
            raise ValueError(f"column {location.column} out of range")

        col_low = location.column & 1
        col_group = location.column >> 1
        leftover = col_group // banks
        page_group = col_group % banks
        offset = (leftover * banks + location.bank) * 2 + col_low
        page = (location.row * banks + page_group) * cfg.num_subchannels
        page += location.subchannel
        return page * cfg.lines_per_row + offset
