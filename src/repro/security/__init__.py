"""Security analysis: analytical threshold models and attack simulation.

* :mod:`repro.security.mint_model` — Appendix A: tolerated Rowhammer
  threshold of MINT-style trackers as a function of window size.
* :mod:`repro.security.fractal_model` — Appendix B: damage/escape model of
  Fractal Mitigation and the TRH-D >= 53 safety bound.
* :mod:`repro.security.thresholds` — the measured TRH history (Table II,
  Fig. 1a).
* :mod:`repro.security.montecarlo` — logical-time attack simulation against
  tracker + mitigation pairs (transitive/Half-Double patterns included).
* :mod:`repro.security.kernels` — the vectorized batch engine: S seeds x P
  patterns per call, exactly equal to the scalar reference.
* :mod:`repro.security.campaign` — adaptive empirical threshold search:
  integer bisection over candidate thresholds with SPRT early-stopping
  per probe, sharing one seed-pressure pool per cell.
* :mod:`repro.security.blast` — disturbance-vs-distance model (Blaster).
* :mod:`repro.security.ecc` — SECDED tolerance model (Section VII-E).
"""

from repro.security.fractal_model import (
    FM_SAFE_TRHD,
    fm_damage,
    fm_escape_probability,
    fm_max_damage,
    mint_escape_probability,
)
from repro.security.mint_model import (
    MTTF_TARGET_YEARS,
    mint_tolerated_trhd,
    mint_tolerated_trhs,
)
from repro.security.kernels import (
    BlastPolicySpec,
    CipherRowRemapper,
    FractalPolicySpec,
    GrapheneSpec,
    MintSpec,
    ParaSpec,
    build_pattern,
    run_attack_batch,
)
from repro.security.campaign import (
    CampaignJob,
    SprtConfig,
    oracle_campaign_cell,
    run_campaign_cell,
    search_smallest_safe,
    sprt_probe,
    summarize_campaign,
)
from repro.security.montecarlo import AttackResult, run_attack
from repro.security.thresholds import (
    TRH_HISTORY,
    SweepPoint,
    montecarlo_tolerated_threshold,
    threshold_sweep,
)

__all__ = [
    "BlastPolicySpec",
    "CampaignJob",
    "CipherRowRemapper",
    "FractalPolicySpec",
    "GrapheneSpec",
    "MintSpec",
    "ParaSpec",
    "SprtConfig",
    "SweepPoint",
    "build_pattern",
    "montecarlo_tolerated_threshold",
    "oracle_campaign_cell",
    "run_attack_batch",
    "run_campaign_cell",
    "search_smallest_safe",
    "sprt_probe",
    "summarize_campaign",
    "threshold_sweep",
    "FM_SAFE_TRHD",
    "fm_damage",
    "fm_escape_probability",
    "fm_max_damage",
    "mint_escape_probability",
    "MTTF_TARGET_YEARS",
    "mint_tolerated_trhd",
    "mint_tolerated_trhs",
    "AttackResult",
    "run_attack",
    "TRH_HISTORY",
]
