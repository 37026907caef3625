"""Tests for the Zen and Rubix memory mappings."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapping import LineLocation, RubixMapping, ZenMapping
from repro.sim.config import SystemConfig

CONFIG = SystemConfig()
LINES = CONFIG.total_lines


class TestZenMapping:
    def setup_method(self):
        self.zen = ZenMapping(CONFIG)

    def test_line_pair_shares_bank_and_row(self):
        # The paper's Zen property: two lines of a 4 KB page per bank row.
        for base in (0, 64, 4096, 123456 * 2):
            a = self.zen.locate(base)
            b = self.zen.locate(base + 1)
            assert (a.subchannel, a.bank, a.row) == (b.subchannel, b.bank, b.row)
            assert a.column != b.column

    def test_page_stripes_across_all_banks(self):
        # The 64 lines of a 4 KB page touch all 32 banks of one subchannel.
        locations = [self.zen.locate(line) for line in range(64)]
        banks = {(loc.subchannel, loc.bank) for loc in locations}
        assert len(banks) == 32
        assert len({loc.subchannel for loc in locations}) == 1

    def test_consecutive_pages_alternate_subchannels(self):
        a = self.zen.locate(0)
        b = self.zen.locate(64)  # next 4 KB page
        assert a.subchannel != b.subchannel

    def test_sibling_page_shares_row(self):
        # +8 KB (page + 2) lands in the same subchannel, bank, and row —
        # the neighbourhood-revisit property the SAUM conflicts rely on.
        a = self.zen.locate(0)
        b = self.zen.locate(128)
        assert (a.subchannel, a.bank, a.row) == (b.subchannel, b.bank, b.row)

    def test_row_range(self):
        last = self.zen.locate(LINES - 1)
        assert 0 <= last.row < CONFIG.rows_per_bank

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            self.zen.locate(LINES)
        with pytest.raises(ValueError):
            self.zen.locate(-1)

    def test_flat_bank(self):
        loc = LineLocation(subchannel=1, bank=3, row=0, column=0)
        assert loc.flat_bank(32) == 35

    def test_subarray_of(self):
        loc = self.zen.locate(0)
        assert self.zen.subarray_of(loc) == loc.row // CONFIG.rows_per_subarray

    @given(st.integers(min_value=0, max_value=LINES - 1))
    @settings(max_examples=300, deadline=None)
    def test_locations_are_distinct_and_in_range(self, line):
        loc = self.zen.locate(line)
        assert 0 <= loc.subchannel < CONFIG.num_subchannels
        assert 0 <= loc.bank < CONFIG.banks_per_subchannel
        assert 0 <= loc.row < CONFIG.rows_per_bank
        assert 0 <= loc.column < CONFIG.lines_per_row

    def test_bijective_on_sample_block(self):
        seen = set()
        for line in range(1 << 14):
            loc = self.zen.locate(line)
            key = (loc.subchannel, loc.bank, loc.row, loc.column)
            assert key not in seen
            seen.add(key)


class TestRubixMapping:
    def setup_method(self):
        self.rubix = RubixMapping(CONFIG, key=42)

    def test_has_cipher_latency(self):
        assert self.rubix.extra_latency == 3
        assert ZenMapping(CONFIG).extra_latency == 0

    def test_breaks_pair_correlation(self):
        # Under Rubix, pair mates should almost never share a bank row.
        same = 0
        for base in range(0, 2000, 2):
            a = self.rubix.locate(base)
            b = self.rubix.locate(base + 1)
            if (a.subchannel, a.bank, a.row) == (b.subchannel, b.bank, b.row):
                same += 1
        assert same <= 2

    def test_subarray_distribution_is_uniform(self):
        # Sequential lines spread across subarrays ~uniformly (1/256 each).
        counts = {}
        n = 8192
        for line in range(n):
            loc = self.rubix.locate(line)
            sub = self.rubix.subarray_of(loc)
            counts[sub] = counts.get(sub, 0) + 1
        assert len(counts) > 200  # most of the 256 subarrays touched
        assert max(counts.values()) < 10 * n / 256

    def test_deterministic_per_key(self):
        again = RubixMapping(CONFIG, key=42)
        for line in (0, 999, 123456):
            assert self.rubix.locate(line) == again.locate(line)

    def test_different_keys_differ(self):
        other = RubixMapping(CONFIG, key=43)
        assert any(
            self.rubix.locate(line) != other.locate(line) for line in range(32)
        )

    def test_inverse_recovers_line(self):
        for line in (0, 1, 77, 1 << 20):
            enc = self.rubix.cipher.encrypt(line)
            assert self.rubix.inverse(enc) == line

    def test_bijective_on_sample(self):
        seen = set()
        for line in range(1 << 13):
            loc = self.rubix.locate(line)
            key = (loc.subchannel, loc.bank, loc.row, loc.column)
            assert key not in seen
            seen.add(key)


class TestLocateArray:
    """The one-pass trace decode agrees with per-address ``locate``."""

    SMALL = SystemConfig(
        num_cores=2, num_subchannels=2, banks_per_subchannel=4,
        rows_per_bank=4096, subarrays_per_bank=16,
    )

    @pytest.mark.parametrize("config", [CONFIG, SMALL])
    @pytest.mark.parametrize("mapping_cls", [ZenMapping, RubixMapping])
    def test_matches_locate(self, config, mapping_cls):
        mapping = mapping_cls(config)
        total = config.total_lines
        rng = np.random.default_rng(11)
        addrs = [0, 1, 63, 64, total - 1] + rng.integers(
            0, total, 2000
        ).tolist()
        rows, flat_banks = mapping.locate_array(addrs)
        banks = config.banks_per_subchannel
        expected = [
            (loc.row, loc.flat_bank(banks))
            for loc in map(mapping.locate, addrs)
        ]
        assert list(zip(rows.tolist(), flat_banks.tolist())) == expected

    def test_empty(self):
        rows, flat_banks = RubixMapping(CONFIG).locate_array([])
        assert rows.size == flat_banks.size == 0

    @pytest.mark.parametrize("bad", [-1, LINES, LINES + 5])
    def test_names_first_bad_address(self, bad):
        with pytest.raises(ValueError, match=f"line address {bad} outside"):
            ZenMapping(CONFIG).locate_array([0, 5, bad, -7])
