"""DDR5 Refresh Management (RFM) bookkeeping (Section II-E).

The memory controller counts activations per bank in a Rolling Accumulated
ACT (RAA) counter. When a bank's RAA reaches ``rfm_th`` the MC must issue an
RFM command — a blocking operation of tRFM during which the bank services no
demand requests — which decrements RAA by ``rfm_th``. A REF also decrements
RAA (by 100 % of ``rfm_th`` here, the paper's assumption in Section II-F).
"""

from __future__ import annotations

from typing import List, Optional
from repro.ckpt.contract import checkpointable


class _RfmObsHooks:
    """Pre-resolved RAA metric objects (one slot on the controller).

    Attached through the memory controller's hook bundle, increments and
    the running RAA peak accumulate in plain ints and :meth:`flush`
    publishes them at the next drain boundary.
    """

    __slots__ = ("m_rfms", "m_ref_decrements", "m_raa_peak",
                 "n_rfms", "n_ref_decrements", "raa_peak")

    def __init__(self, obs):
        metrics = obs.metrics
        self.m_rfms = metrics.counter("rfm.issued")
        self.m_ref_decrements = metrics.counter("rfm.ref_decrements")
        self.m_raa_peak = metrics.gauge("rfm.raa_peak")
        self.n_rfms = 0
        self.n_ref_decrements = 0
        self.raa_peak = 0
        obs.children.append(self)

    def flush(self) -> None:
        """Publish accumulated RAA bookkeeping (drain boundary)."""
        if self.n_rfms:
            self.m_rfms.inc(self.n_rfms)
            self.n_rfms = 0
        if self.n_ref_decrements:
            self.m_ref_decrements.inc(self.n_ref_decrements)
            self.n_ref_decrements = 0
        if self.raa_peak > self.m_raa_peak.value:
            self.m_raa_peak.set(self.raa_peak)


@checkpointable(
    state=("raa", "rfms_issued"),
    const=("num_banks", "rfm_th", "raa_max", "ref_decrement"),
    derived=("_obs",),
)
class RfmController:
    """Per-bank RAA counters and the RFM issue rule.

    DDR5 defines two trip points: RAAIMT (here ``rfm_th``), above which an
    RFM is *due*, and RAAMMT (``rfm_th * max_factor``), above which the MC
    must stop activating the bank until an RFM completes. A good controller
    issues due RFMs opportunistically while the bank is idle and only blocks
    demand once the hard cap is reached.
    """

    def __init__(
        self,
        num_banks: int,
        rfm_th: int,
        ref_decrement: int = None,
        max_factor: float = 1.5,
    ):
        if rfm_th < 1:
            raise ValueError("rfm_th must be at least 1")
        if max_factor < 1.0:
            raise ValueError("max_factor must be >= 1")
        self.num_banks = num_banks
        self.rfm_th = rfm_th
        self.raa_max = max(rfm_th, int(rfm_th * max_factor))
        # REF reduces RAA by 50 % or 100 % of RFMTH per the spec; the paper's
        # motivation study assumes 100 %.
        self.ref_decrement = rfm_th if ref_decrement is None else ref_decrement
        self.raa: List[int] = [0] * num_banks
        self.rfms_issued = 0
        # Observability hooks; one slot, None (free) unless attach_obs ran.
        self._obs: Optional[_RfmObsHooks] = None

    def attach_obs(self, obs) -> None:
        """Publish RAA bookkeeping through the memory controller's
        observability hook bundle (no-op when metrics are off)."""
        if obs.metrics is None:
            return
        self._obs = _RfmObsHooks(obs)

    def on_activation(self, bank: int) -> None:
        """Count one ACT into the bank's RAA counter."""
        self.raa[bank] += 1
        obs = self._obs
        if obs is not None:
            if self.raa[bank] > obs.raa_peak:
                obs.raa_peak = self.raa[bank]

    def rfm_due(self, bank: int) -> bool:
        """RAAIMT reached: an RFM should be issued when convenient."""
        return self.raa[bank] >= self.rfm_th

    def rfm_needed(self, bank: int) -> bool:
        """RAAMMT reached: no more ACTs to ``bank`` until an RFM."""
        return self.raa[bank] >= self.raa_max

    def on_rfm(self, bank: int) -> None:
        """Account an issued RFM: RAA drops by RFMTH."""
        self.raa[bank] = max(0, self.raa[bank] - self.rfm_th)
        self.rfms_issued += 1
        obs = self._obs
        if obs is not None:
            obs.n_rfms += 1

    def on_refresh(self, bank: int) -> None:
        """Account a REF: RAA drops by the refresh decrement."""
        self.raa[bank] = max(0, self.raa[bank] - self.ref_decrement)
        obs = self._obs
        if obs is not None:
            obs.n_ref_decrements += 1
