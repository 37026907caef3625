"""Rubix randomized memory mapping [42].

Rubix encrypts the line address with a low-latency block cipher and uses the
encrypted address to access memory. Any spatial correlation in the program's
access stream is destroyed, so the probability that an access conflicts with
the Subarray-Under-Mitigation is ~1/subarrays regardless of the access
pattern. The price is lost row-buffer locality (~18 % more activations), paid
back in bank-level parallelism.
"""

from __future__ import annotations

import numpy as np

from repro.mapping.base import LineLocation, MemoryMapping
from repro.mapping.kcipher import KCipher
from repro.sim.config import SystemConfig


class RubixMapping(MemoryMapping):
    """Encrypt the line address, then place it with the Zen decomposition.

    The post-cipher decomposition is irrelevant to randomness (the cipher
    output is already uniform); reusing the Zen bit slicing keeps the two
    mappings directly comparable.
    """

    extra_latency = KCipher.LATENCY_CYCLES

    def __init__(self, config: SystemConfig, key: int = 0x5EED):
        super().__init__(config)
        self.cipher = KCipher(domain=config.total_lines, key=key)

    def locate(self, line_addr: int) -> LineLocation:
        self._check_range(line_addr)
        return self._decompose(self.cipher.encrypt(line_addr))

    def _scramble_array(self, addrs: np.ndarray) -> np.ndarray:
        return self.cipher.encrypt_array(addrs)

    def line_for(self, location: LineLocation) -> int:
        """Inverse mapping — only computable with the cipher key.

        The simulator's attacker harness uses this to model the *strongest*
        adversary (one who knows the mapping, per the threat model); a real
        attacker without the key cannot aim at rows under Rubix.
        """
        return self.cipher.decrypt(self._compose(location))

    def inverse(self, location_line: int) -> int:
        """Recover the original line address of an encrypted line index."""
        return self.cipher.decrypt(location_line)
