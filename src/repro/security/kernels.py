"""Vectorized Monte-Carlo security kernels: S seeds × P patterns per call.

:func:`repro.security.montecarlo.run_attack` replays one pattern against
one live tracker/policy pair, one activation at a time.  The paper's
security results (Tables III/VI, Figs 14/16) need *thousands* of such
replays — same pattern, different RNG seeds — and the whole batch is
data-parallel.  This module runs the batch as one numpy program:

* pressure lives in an ``(arena_rows, seeds)`` float array covering only
  the rows a replay can reach, so each ACT is one add of a damage column
  over the centre's ``2R+1``-row block, across every seed at once;
* tracker nominations are pre-computed per window — MINT's slot draws,
  PARA's samples, and Fractal Mitigation's distance draws are batched RNG
  calls that consume the *identical* stream the scalar trackers would
  (``Generator.integers(..., size=n)`` equals n single draws, pinned by
  ``tests/test_security_kernels.py``); transitive-refresh feedback (MINT's
  W+1 slot re-nominating the previous mitigation at level+1) is a
  recurrence over seed vectors;
* policy victim refreshes are planned per block of windows as flat arena
  cells, so each victim slot is one gather, add and scatter over every
  seed, applied in the exact slot-and-offset order of the scalar engine;
* the running max is settled once per window from a record of every
  post-add value in chronological order.

Every floating-point add happens to the same cell in the same
chronological order, and a first-occurrence ``argmax`` over the record
picks the row the scalar engine's sequential strictly-greater rule
picks, so the batch engine's results are **exactly equal** to the scalar
reference — bit-identical pressures, identical max-pressure rows,
identical tie-breaking (the full argument is in
``docs/security_kernels.md``).  ``backend="scalar"`` runs the same batch
through :func:`run_attack` (the oracle); the differential suite asserts
both backends agree on every tested configuration.

RNG convention: replay seed ``s`` derives its generators as
``tracker_rng, policy_rng = SeedSequence(s).spawn(2)`` in both backends.

Rubix-style row remapping is supported through ``row_cipher``: the numpy
backend batches the remap over the whole row space up front with
:meth:`~repro.mapping.kcipher.KCipher.encrypt_array`; the scalar oracle
wraps the same cipher in :class:`CipherRowRemapper`.  Dynamic remappers
(RowSwap/Migration policies) mutate per-replay state and stay scalar-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.mitigation import (
    BlastRadiusMitigation,
    FractalMitigation,
    MitigationPolicy,
)
from repro.mapping.kcipher import KCipher
from repro.security.blast import hammer_profile
from repro.security.montecarlo import AttackResult, run_attack
from repro.trackers.base import Tracker
from repro.trackers.graphene import GrapheneTracker
from repro.trackers.mint import MintTracker
from repro.trackers.para import ParaTracker

__all__ = [
    "MintSpec",
    "GrapheneSpec",
    "ParaSpec",
    "FractalPolicySpec",
    "BlastPolicySpec",
    "CipherRowRemapper",
    "DEFAULT_ROWS_PER_BANK",
    "PreparedPattern",
    "build_pattern",
    "build_policy",
    "build_tracker",
    "cipher_table",
    "run_attack_batch",
    "seed_rngs",
]

#: Default bank geometry for attack-space replays (128K rows, Table I).
DEFAULT_ROWS_PER_BANK = 128 * 1024

#: Seed-chunk sizing: bound one chunk's working set to this many bytes.
#: The per-ACT and per-window numpy dispatch is paid once per chunk
#: whatever its width, so wider chunks are faster.  A chunk's pressure
#: arena covers only the rows its replay can reach (a few dozen for a
#: mid-bank pattern), so the per-(seed, window) nomination tables and the
#: window plan usually dominate; see :meth:`_BatchEngine.prepare`.
#: ``run_attack_batch(seed_chunk=...)`` overrides the sizing.
_CHUNK_BUDGET_BYTES = 512 * 1024 * 1024

#: int64 words per (seed, window) held while a chunk's nominations are
#: built and replayed (nominated rows, plus slots and levels for MINT's
#: transitive slot, or fractal distances).
_NOMINATION_WORDS = 3

#: Windows per precomputed epilogue plan block (see
#: :meth:`_BatchEngine._plan_windows`): large enough to amortize the
#: block's vectorized set-up, small enough that its tables (about
#: ``_PLAN_WORDS`` int64 words per seed and window while it is built)
#: stay a few MB even for thousand-seed chunks.
_PLAN_WINDOWS = 64
_PLAN_WORDS = 12

#: Victim slots per mitigation (both policies refresh four rows).
_SLOTS = 4


# ----------------------------------------------------------------------
# Specs: picklable value descriptions of trackers and policies.  The batch
# API takes specs instead of live objects because every seed needs its own
# freshly-seeded instance (and worker processes need to rebuild them).
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MintSpec:
    """MINT tracker (Section II-D): window W, optional transitive slot."""

    window: int
    transitive_slot: bool = False
    kind: str = field(default="mint", init=False)


@dataclass(frozen=True)
class GrapheneSpec:
    """Graphene tracker (Section VII-D): Misra-Gries table + threshold."""

    entries: int
    mitigation_count: int
    kind: str = field(default="graphene", init=False)


@dataclass(frozen=True)
class ParaSpec:
    """PARA sampling tracker (Section VII-B)."""

    probability: float
    kind: str = field(default="para", init=False)


@dataclass(frozen=True)
class FractalPolicySpec:
    """Fractal Mitigation (Section V-C): d=1 pair + probabilistic far pair."""

    kind: str = field(default="fractal", init=False)


@dataclass(frozen=True)
class BlastPolicySpec:
    """Recursive blast-radius mitigation (Fig. 9b): level-scaled victims."""

    kind: str = field(default="blast", init=False)


TrackerSpec = Union[MintSpec, GrapheneSpec, ParaSpec]
PolicySpec = Union[FractalPolicySpec, BlastPolicySpec]


def seed_rngs(seed: int) -> Tuple[np.random.Generator, np.random.Generator]:
    """The batch engine's RNG convention: one spawned child each for the
    tracker and the policy, derived from the replay seed."""
    tracker_seq, policy_seq = np.random.SeedSequence(seed).spawn(2)
    return (
        np.random.default_rng(tracker_seq),
        np.random.default_rng(policy_seq),
    )


def build_tracker(spec: TrackerSpec, rng: np.random.Generator) -> Tracker:
    """Live tracker for ``spec`` (used by the scalar oracle backend)."""
    if isinstance(spec, MintSpec):
        return MintTracker(
            spec.window, rng, transitive_slot=spec.transitive_slot
        )
    if isinstance(spec, GrapheneSpec):
        return GrapheneTracker(spec.entries, spec.mitigation_count, rng)
    if isinstance(spec, ParaSpec):
        return ParaTracker(spec.probability, rng)
    raise TypeError(f"unknown tracker spec {spec!r}")


def build_policy(
    spec: PolicySpec, rows_per_bank: int, rng: np.random.Generator
) -> MitigationPolicy:
    """Live policy for ``spec`` (used by the scalar oracle backend)."""
    if isinstance(spec, FractalPolicySpec):
        return FractalMitigation(rows_per_bank, rng)
    if isinstance(spec, BlastPolicySpec):
        return BlastRadiusMitigation(rows_per_bank)
    raise TypeError(f"unknown policy spec {spec!r}")


def tracker_spec_from_strings(name: str, window: int) -> TrackerSpec:
    """CLI/job-friendly spec construction from a tracker name."""
    if name == "mint":
        return MintSpec(window)
    if name == "mint-transitive":
        return MintSpec(window, transitive_slot=True)
    if name == "graphene":
        return GrapheneSpec(entries=64, mitigation_count=max(1, window))
    if name == "para":
        return ParaSpec(probability=1.0 / max(1, window))
    raise ValueError(f"unknown tracker {name!r}")


def policy_spec_from_string(name: str) -> PolicySpec:
    """CLI/job-friendly spec construction from a policy name."""
    if name == "fractal":
        return FractalPolicySpec()
    if name in ("blast", "recursive"):
        return BlastPolicySpec()
    raise ValueError(f"unknown policy {name!r}")


class CipherRowRemapper:
    """Adapter making a :class:`KCipher` usable as ``run_attack``'s
    ``remapper`` (Rubix-style static row scrambling in attack space)."""

    def __init__(self, cipher: KCipher):
        self.cipher = cipher

    def physical_row(self, row: int) -> int:
        """The physical row a logical ``row`` lands on under the cipher."""
        return self.cipher.encrypt(row)

    def table(self) -> np.ndarray:
        """The whole logical→physical map, batched up front."""
        return self.cipher.encrypt_array(
            np.arange(self.cipher.domain, dtype=np.int64)
        )


#: Memoized ``encrypt_array`` tables, keyed by the cipher's full identity
#: (domain + derived round keys — everything that determines the
#: permutation). A threshold campaign rebuilds the same cipher for every
#: probe; the table is ~1 MB per 128K-row bank, so a handful of entries
#: covers every live configuration.
_CIPHER_TABLE_MEMO: dict = {}
_CIPHER_TABLE_MEMO_CAP = 8


def cipher_table(cipher: KCipher) -> np.ndarray:
    """The memoized logical→physical table for ``cipher``.

    The returned array is shared across callers and must be treated as
    read-only (the batch engine only ever gathers from it).
    """
    key = (cipher.domain, tuple(cipher._round_keys))
    table = _CIPHER_TABLE_MEMO.get(key)
    if table is None:
        table = CipherRowRemapper(cipher).table()
        if len(_CIPHER_TABLE_MEMO) >= _CIPHER_TABLE_MEMO_CAP:
            _CIPHER_TABLE_MEMO.pop(next(iter(_CIPHER_TABLE_MEMO)))
        _CIPHER_TABLE_MEMO[key] = table
    return table


def build_pattern(attack: str, rows: Sequence[int], acts: int) -> List[int]:
    """Named attack pattern (see :mod:`repro.workloads.attacks`).

    ``rows`` parameterizes the pattern: the row list for ``round_robin``,
    ``[victim]`` for ``double_sided``, ``[aggressor]`` for
    ``single_sided``, ``[far_aggressor, decoys]`` for ``half_double``.
    """
    from repro.workloads import attacks

    rows = list(rows)
    if attack == "round_robin":
        return attacks.round_robin_attack(rows, acts)
    if attack == "single_sided":
        return attacks.single_sided(rows[0], acts)
    if attack == "double_sided":
        return attacks.double_sided(rows[0], acts)
    if attack == "half_double":
        decoys = rows[1] if len(rows) > 1 else 8
        return attacks.half_double(rows[0], acts, decoys=decoys)
    raise ValueError(f"unknown attack {attack!r}")


# ----------------------------------------------------------------------
# Batch API
# ----------------------------------------------------------------------
def run_attack_batch(
    patterns: Sequence[Sequence[int]],
    tracker: TrackerSpec,
    policy: PolicySpec,
    *,
    window: int,
    seeds: Union[int, Sequence[int]],
    rows_per_bank: int = DEFAULT_ROWS_PER_BANK,
    blast_radius: int = 2,
    refresh_interval_acts: Optional[int] = None,
    row_cipher: Optional[KCipher] = None,
    backend: str = "numpy",
    seed_chunk: Optional[int] = None,
    collect_pressure: bool = True,
) -> List[List[AttackResult]]:
    """Replay every pattern under every seed; returns ``[pattern][seed]``.

    ``seeds`` is either a count (replay seeds ``0..n-1``) or an explicit
    sequence.  ``backend="numpy"`` runs the vectorized engine;
    ``backend="scalar"`` runs the same batch through the scalar
    :func:`run_attack` oracle — results are exactly equal (the numpy
    backend's ``pressure`` maps list only rows with non-zero pressure,
    while the scalar reference also keeps zero-valued touched rows).

    ``row_cipher`` applies a static Rubix-style logical→physical row
    permutation: the pattern names logical rows, pressure accrues on
    physical neighbours.  The numpy backend builds the full remap table
    once with ``encrypt_array``; its domain must equal ``rows_per_bank``.
    """
    if window < 1:
        raise ValueError("window must be at least 1")
    if isinstance(seeds, (int, np.integer)):
        seed_list = list(range(int(seeds)))
    else:
        seed_list = [int(s) for s in seeds]
    if patterns and isinstance(patterns[0], (int, np.integer)):
        patterns = [patterns]  # type: ignore[list-item]
    if row_cipher is not None and row_cipher.domain != rows_per_bank:
        raise ValueError(
            f"row_cipher domain {row_cipher.domain} != rows_per_bank "
            f"{rows_per_bank}"
        )

    if backend == "scalar":
        return [
            [
                _run_scalar(
                    pattern, tracker, policy, window, seed, rows_per_bank,
                    blast_radius, refresh_interval_acts, row_cipher,
                )
                for seed in seed_list
            ]
            for pattern in patterns
        ]
    if backend != "numpy":
        raise ValueError(f"unknown backend {backend!r}")

    engine = _BatchEngine(
        tracker, policy, window, rows_per_bank, blast_radius,
        refresh_interval_acts, row_cipher, collect_pressure,
    )
    return [
        engine.run_pattern(pattern, seed_list, seed_chunk)
        for pattern in patterns
    ]


def _run_scalar(
    pattern, tracker_spec, policy_spec, window, seed, rows_per_bank,
    blast_radius, refresh_interval_acts, row_cipher,
) -> AttackResult:
    tracker_rng, policy_rng = seed_rngs(seed)
    tracker = build_tracker(tracker_spec, tracker_rng)
    policy = build_policy(policy_spec, rows_per_bank, policy_rng)
    remapper = CipherRowRemapper(row_cipher) if row_cipher is not None else None
    return run_attack(
        pattern,
        tracker,
        policy,
        window=window,
        blast_radius=blast_radius,
        refresh_interval_acts=refresh_interval_acts,
        remapper=remapper,
    )


# ----------------------------------------------------------------------
# The numpy engine
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PreparedPattern:
    """One pattern's replay-invariant precomputation.

    Everything here depends only on (pattern, engine configuration) — not
    on seeds — so a threshold campaign probing the same cell hundreds of
    times builds it once via :meth:`_BatchEngine.prepare` and replays it
    with :meth:`_BatchEngine.run_prepared`.
    """

    #: Logical pattern rows.
    pattern: np.ndarray
    #: Physical rows after the (optional) cipher remap: the per-ACT
    #: hammer centres.
    phys_pattern: np.ndarray
    #: Bytes one seed needs in a chunk: the largest pressure arena any
    #: chunk of this pattern can need, plus its nomination tables and
    #: window plan (sizes automatic seed chunks).
    seed_bytes: int


def _level_one(n_seeds: int, n_windows: int) -> np.ndarray:
    """The level table of a tracker that never escalates: a read-only
    broadcast of 1, so it costs no memory per (seed, window)."""
    return np.broadcast_to(np.int64(1), (n_seeds, n_windows))


#: ``2**k`` table for vectorized bit_length (16-bit operands).
_POW2_16 = np.left_shift(np.int64(1), np.arange(17, dtype=np.int64))


def _fractal_distances(rand16: np.ndarray) -> np.ndarray:
    """Vector twin of :meth:`FractalMitigation.draw_distance`:
    ``2 + leading_zeros(rand)`` over a 16-bit operand array."""
    bit_length = np.searchsorted(_POW2_16, rand16, side="right")
    return 2 + FractalMitigation.RAND_BITS - bit_length


# Engine state is transient by design: the pressure scratch buffer is
# derived scratch recycled between chunks, and campaign resume snapshots
# the per-seed pool (repro.security.campaign frontiers), never the engine.
class _BatchEngine:  # repro: lint-ignore[CKPT001]
    """One configured vectorized replay (shared across patterns/chunks)."""

    def __init__(
        self, tracker_spec, policy_spec, window, rows_per_bank,
        blast_radius, refresh_interval_acts, row_cipher, collect_pressure,
    ):
        self.tracker_spec = tracker_spec
        self.policy_spec = policy_spec
        self.window = window
        self.rows_per_bank = rows_per_bank
        self.profile = hammer_profile(blast_radius)
        self.blast_radius = blast_radius
        #: Hammer offsets in profile order; the damage they take as a
        #: ``(offset, 1)`` column (window slots) and as the
        #: ``(2R+1, 1)`` column over a centre's block (0.0 at the centre).
        self._offsets = np.array([o for o, _ in self.profile], np.int64)
        self._slot_damage = np.array([[d] for _, d in self.profile])
        self._block_damage = np.zeros((2 * blast_radius + 1, 1))
        self._block_damage[self._offsets + blast_radius, 0] = [
            d for _, d in self.profile
        ]
        self.refresh_interval_acts = refresh_interval_acts
        self.collect_pressure = collect_pressure
        self.phys_of: Optional[np.ndarray] = None
        if row_cipher is not None:
            self.phys_of = cipher_table(row_cipher)
        #: Reused flat backing store for per-chunk pressure arrays: grown
        #: to the largest (arena x seeds) ever needed, then recycled, so a
        #: campaign's thousands of probe chunks never re-allocate.
        self._pressure_buf = np.empty(0, dtype=np.float64)
        if isinstance(tracker_spec, MintSpec) and tracker_spec.window != window:
            raise ValueError(
                "numpy backend requires the MINT spec window to equal the "
                "replay window; use backend='scalar' for mismatched windows"
            )

    # -- nominations ---------------------------------------------------
    def _nominate(
        self, pattern: np.ndarray, rngs: List[Tuple[np.random.Generator, ...]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-(seed, window) nominations: rows (-1 = none) and levels.

        Both tables are read-only (they may be broadcast views).  Every
        nominated row is a pattern row, which bounds the arena's span.
        """
        spec = self.tracker_spec
        n_windows = pattern.shape[0] // self.window
        n_seeds = len(rngs)
        if isinstance(spec, MintSpec):
            return self._nominate_mint(pattern, rngs, n_windows)
        if isinstance(spec, GrapheneSpec):
            row = self._nominate_graphene_shared(pattern, n_windows)
            return (
                np.broadcast_to(row, (n_seeds, n_windows)),
                _level_one(n_seeds, n_windows),
            )
        if isinstance(spec, ParaSpec):
            return self._nominate_para(pattern, rngs, n_windows)
        raise TypeError(f"unknown tracker spec {spec!r}")

    def _nominate_mint(self, pattern, rngs, n_windows):
        spec = self.tracker_spec
        window = self.window
        slots = window + (1 if spec.transitive_slot else 0)
        n_seeds = len(rngs)
        base = np.arange(n_windows, dtype=np.int64) * window
        # Without the transitive slot each seed's slots become its
        # nominated rows at once, so only one table is ever held.
        slot = np.empty((n_seeds, n_windows), dtype=np.int64)
        for i, (tracker_rng, _) in enumerate(rngs):
            # One draw at construction plus one per select — batched, this
            # is the identical stream (see the RNG-batching pin test).
            draws = tracker_rng.integers(1, slots + 1, size=n_windows + 1)
            draws = draws[:n_windows]
            if not spec.transitive_slot:
                draws = pattern[base + draws - 1]
            slot[i] = draws
        if not spec.transitive_slot:
            return slot, _level_one(n_seeds, n_windows)
        # Transitive slot: a per-window recurrence across seed vectors —
        # slot W+1 re-nominates the previous mitigation at level+1 (or
        # nothing when no mitigation has happened yet).
        nom_row = np.empty((n_seeds, n_windows), dtype=np.int64)
        nom_level = np.empty((n_seeds, n_windows), dtype=np.int64)
        last_row = np.full(n_seeds, -1, dtype=np.int64)
        last_level = np.zeros(n_seeds, dtype=np.int64)
        acts = pattern.shape[0]
        for w in range(n_windows):
            slot_w = slot[:, w]
            transitive = slot_w == window + 1
            cap_idx = np.minimum(base[w] + slot_w - 1, acts - 1)
            cap_row = pattern[cap_idx]
            valid = np.where(transitive, last_row >= 0, True)
            row_w = np.where(transitive, last_row, cap_row)
            lvl_w = np.where(transitive, last_level + 1, 1)
            nom_row[:, w] = np.where(valid, row_w, -1)
            nom_level[:, w] = np.where(valid, lvl_w, 0)
            np.copyto(last_row, row_w, where=valid)
            np.copyto(last_level, lvl_w, where=valid)
        return nom_row, nom_level

    def _nominate_graphene_shared(self, pattern, n_windows):
        """Graphene is deterministic (its rng is unused): one scalar replay
        of the pattern serves every seed."""
        spec = self.tracker_spec
        tracker = GrapheneTracker(
            spec.entries,
            spec.mitigation_count,
            # Graphene never draws from its rng (see the docstring above);
            # the placeholder generator exists only to satisfy the Tracker
            # constructor and can never influence a result.
            np.random.default_rng(0),  # repro: lint-ignore[RNG001]
        )
        nom_row = np.full(n_windows, -1, dtype=np.int64)
        window = self.window
        pat = pattern.tolist()
        for w in range(n_windows):
            for act in pat[w * window:(w + 1) * window]:
                tracker.on_activation(act)
            request = tracker.select_for_mitigation()
            if request is not None:
                nom_row[w] = request.row
        return nom_row

    def _nominate_para(self, pattern, rngs, n_windows):
        spec = self.tracker_spec
        n_seeds = len(rngs)
        window = self.window
        acts = pattern.shape[0]
        nom_row = np.full((n_seeds, n_windows), -1, dtype=np.int64)
        covered = n_windows * window
        for i, (tracker_rng, _) in enumerate(rngs):
            sampled = tracker_rng.random(size=acts) < spec.probability
            hits = np.flatnonzero(sampled[:covered])
            if hits.size:
                # A later sample overwrites an unharvested one, and every
                # select clears the pending slot, so window w nominates
                # its own last sampled act (ascending writes keep the max).
                last = np.full(n_windows, -1, dtype=np.int64)
                last[hits // window] = hits
                has = last >= 0
                nom_row[i, has] = pattern[last[has]]
        return nom_row, _level_one(n_seeds, n_windows)

    def _fractal_distance_table(self, nom_row, rngs):
        """Per-(seed, window) fractal distances, drawn only for windows
        that actually mitigate — the scalar policy consumes one 16-bit
        draw per ``victims()`` call and none otherwise."""
        n_seeds, n_windows = nom_row.shape
        # Distances are at most 2 + RAND_BITS, so int8 holds them.
        dist = np.zeros((n_seeds, n_windows), dtype=np.int8)
        for i, (_, policy_rng) in enumerate(rngs):
            mitigating = nom_row[i] >= 0
            count = int(mitigating.sum())
            if count:
                rand = policy_rng.integers(
                    0, 1 << FractalMitigation.RAND_BITS, size=count
                )
                dist[i, mitigating] = _fractal_distances(rand)
        return dist

    # -- replay --------------------------------------------------------
    def _reach_bound(self, n_windows: int) -> int:
        """The farthest any victim can lie from its nominated row, for
        every seed: the arena bound :meth:`prepare` sizes chunks from."""
        if isinstance(self.policy_spec, FractalPolicySpec):
            return 2 + FractalMitigation.RAND_BITS
        spec = self.tracker_spec
        if isinstance(spec, MintSpec) and spec.transitive_slot:
            # The level grows by at most one per window.
            return 2 * max(1, n_windows)
        return 2

    def _span(self, phys_pattern: np.ndarray, reach: int) -> Tuple[int, int]:
        """``(low, height)``: the bank rows ``low .. low + height - 1`` a
        replay can write when every victim lies within ``reach`` rows of
        its nominated row.

        Every nomination is a pattern row, so without a cipher each write
        lands within ``reach + blast_radius`` rows of the pattern's
        physical rows: ACT targets within ``blast_radius`` of a centre,
        victims within ``reach`` of a nominated row (clamped to the bank),
        and their targets within ``blast_radius`` of a victim.  No row
        below 0 is ever written.  Under a cipher the victims scatter over
        the whole bank, so the span keeps the full height.
        """
        radius = self.blast_radius
        top = self.rows_per_bank - 1
        lo_row = int(phys_pattern.min()) if phys_pattern.size else 0
        hi_row = int(phys_pattern.max()) if phys_pattern.size else 0
        if self.phys_of is not None:
            return 0, max(hi_row, top) + radius + 1
        low = max(0, lo_row - reach - radius)
        high = max(hi_row, min(hi_row + reach, top)) + radius
        return low, high - low + 1

    def prepare(self, pattern: Sequence[int]) -> PreparedPattern:
        """Precompute everything about ``pattern`` that seeds share.

        Validation, the cipher remap of the pattern rows and the chunk
        sizing are all seed-independent; a caller probing the same pattern
        repeatedly (the threshold campaign) pays for them once and replays
        via :meth:`run_prepared`.
        """
        pattern_arr = np.asarray(list(pattern), dtype=np.int64)
        if pattern_arr.size and pattern_arr.min() < 0:
            raise ValueError("row indices must be non-negative")
        if self.phys_of is not None:
            if pattern_arr.size and pattern_arr.max() >= self.rows_per_bank:
                raise ValueError(
                    f"plaintext {int(pattern_arr.max())} outside "
                    f"[0, {self.rows_per_bank})"
                )
            phys_pattern = self.phys_of[pattern_arr]
        else:
            phys_pattern = pattern_arr

        n_windows = pattern_arr.shape[0] // self.window
        _, height = self._span(phys_pattern, self._reach_bound(n_windows))
        # Per seed: the arena with its pad rows, the window's value
        # record, the nomination tables, and one plan block.
        seed_bytes = 8 * (
            height + 2 * self.blast_radius + 1
            + (self.window + _SLOTS) * len(self.profile)
            + _NOMINATION_WORDS * n_windows
            + _PLAN_WORDS * min(_PLAN_WINDOWS, n_windows)
        )
        return PreparedPattern(pattern_arr, phys_pattern, seed_bytes)

    def run_prepared(
        self,
        prep: PreparedPattern,
        seed_list: List[int],
        seed_chunk: Optional[int] = None,
    ) -> List[AttackResult]:
        """Replay a prepared pattern for ``seed_list`` in memory-bounded
        chunks (same results as :meth:`run_pattern`, minus the per-call
        pattern work)."""
        if seed_chunk is None:
            seed_chunk = max(1, _CHUNK_BUDGET_BYTES // prep.seed_bytes)
        results: List[AttackResult] = []
        for start in range(0, len(seed_list), seed_chunk):
            chunk = seed_list[start:start + seed_chunk]
            results.extend(self._run_chunk(prep, chunk))
        return results

    def run_pattern(
        self,
        pattern: Sequence[int],
        seed_list: List[int],
        seed_chunk: Optional[int],
    ) -> List[AttackResult]:
        return self.run_prepared(self.prepare(pattern), seed_list, seed_chunk)

    def _pressure_arena(self, rows: int, n_seeds: int) -> np.ndarray:
        """A zeroed ``(rows, n_seeds)`` view over the reused flat buffer.

        ``fill(0.0)`` on a recycled buffer is bit-identical to a fresh
        ``np.zeros`` — only the allocator traffic changes.
        """
        need = rows * n_seeds
        if self._pressure_buf.size < need:
            self._pressure_buf = np.empty(need, dtype=np.float64)
        view = self._pressure_buf[:need].reshape(rows, n_seeds)
        view.fill(0.0)
        return view

    def _run_chunk(self, prep: PreparedPattern, seeds):
        """Replay one seed chunk.

        The arena holds ``2R+1`` pad rows (``R = blast_radius``) below the
        bank rows ``low .. low + height - 1`` of :meth:`_span`, so arena
        row ``r`` is bank row ``r + origin``.  The pad starts at ``-inf``
        and ``-inf + damage == -inf``, so it never beats a running max:
        hammer targets below bank row 0 land in it and need no bounds
        check, and a lane that refreshes no victim in a window slot
        hammers pad row ``R``, whose neighbours are all pad rows.  Row
        ``R`` itself is never a hammer target, so resetting it is
        harmless.

        Why this equals the scalar engine bit for bit:

        1. each cell's adds keep their chronological order (ACTs in
           pattern order, then the window's victim slots in policy order);
        2. within one ACT or one slot a lane's targets are distinct cells,
           so one vector add equals sequential adds (an idle lane's
           repeated pad cell holds ``-inf`` either way);
        3. the sequential strictly-greater rule ends at the first
           occurrence of the maximum, if it beats the old max, so a
           first-occurrence ``argmax`` over the window's record in
           chronological, profile order picks the same row;
        4. ``x + 0.0 == x`` for the centre's 0.0 damage, because pressure
           is never ``-0.0``;
        5. the record holds exactly the values the scalar engine compares
           (never the centre row) plus ``-inf`` pad cells, which cannot
           beat a running max that starts at 0.
        """
        acts = prep.pattern.shape[0]
        n_seeds = len(seeds)
        window = self.window
        refresh_every = self.refresh_interval_acts
        radius = self.blast_radius
        pad = 2 * radius + 1

        rngs = [seed_rngs(seed) for seed in seeds]
        nom_row, nom_level = self._nominate(prep.pattern, rngs)
        dist = (
            self._fractal_distance_table(nom_row, rngs)
            if isinstance(self.policy_spec, FractalPolicySpec)
            else None
        )
        if dist is not None:
            reach = int(dist.max(initial=0))
        else:
            reach = 2 * int(nom_level.max(initial=0))
        low, height = self._span(prep.phys_pattern, reach)
        origin = low - pad
        pressure = self._pressure_arena(pad + height, n_seeds)
        pressure[:pad] = -np.inf
        rows = pressure[pad:]
        flat = pressure.reshape(-1)

        max_pressure = np.zeros(n_seeds, dtype=np.float64)
        max_row = np.full(n_seeds, -1, dtype=np.int64)  # arena rows
        mitigations = np.count_nonzero(nom_row >= 0, axis=1)
        victim_refreshes = np.zeros(n_seeds, dtype=np.int64)
        n_prof = len(self.profile)
        target_cells = np.empty((n_prof, n_seeds), dtype=np.int64)
        scratch = (
            np.empty(n_seeds, dtype=np.float64),
            np.empty(n_seeds, dtype=bool),
            np.arange(n_seeds, dtype=np.int64),
            np.empty((window + _SLOTS, n_seeds), dtype=np.int64),
        )

        # One window's post-add values in chronological order: each ACT's
        # hammer targets, then each victim slot's, in profile order.  The
        # running max is settled once per window over this record.
        record = np.empty(((window + _SLOTS) * n_prof, n_seeds))
        act_records = [
            record[j * n_prof:(j + 1) * n_prof] for j in range(window)
        ]
        slot_records = record[window * n_prof:].reshape(
            _SLOTS, n_prof, n_seeds
        )
        damage = self._block_damage
        gather = self._offsets + radius
        centres = prep.phys_pattern - origin
        last = window - 1
        plan_start = plan_end = 0
        for i, centre in enumerate(centres.tolist()):
            # The centre's block takes the damage column (0.0 at the
            # centre itself) in one add; its targets go to the record.
            j = i % window
            block = pressure[centre - radius:centre + radius + 1]
            block += damage
            block.take(gather, axis=0, out=act_records[j])
            pressure[centre] = 0.0
            if j == last:
                w = i // window
                if w == plan_end:
                    active, victim_rows, victims = self._plan_windows(
                        w, nom_row, nom_level, dist, origin,
                        victim_refreshes,
                    )
                    plan_start, plan_end = w, w + len(active)
                if active[w - plan_start]:
                    self._refresh_victims(
                        flat, victims[w - plan_start], slot_records,
                        target_cells,
                    )
                    seen, slot_rows = record, victim_rows[w - plan_start]
                else:
                    seen, slot_rows = record[:window * n_prof], None
                self._settle_max(
                    seen, centres[i - last:i + 1], slot_rows,
                    max_pressure, max_row, scratch,
                )
            if refresh_every is not None and (i + 1) % refresh_every == 0:
                rows.fill(0.0)
        tail = acts % window
        if tail:
            self._settle_max(
                record[:tail * n_prof], centres[acts - tail:], None,
                max_pressure, max_row, scratch,
            )

        bank_row = np.where(max_row >= 0, max_row + origin, -1)
        return self._collect(
            rows, low, max_pressure, bank_row, mitigations,
            victim_refreshes, acts, n_seeds,
        )

    def _plan_windows(
        self, w0, nom_row, nom_level, dist, origin, victim_refreshes,
    ):
        """Victim cells for the epilogues of windows
        ``w0 .. w0 + _PLAN_WINDOWS - 1`` (fewer at the pattern's end).

        Returns ``(active, rows, cells)``: per window whether any lane
        mitigates, and the ``(window, slot, seed)`` arena row and flat
        arena cell of each victim in the policy's slot order.  A (slot,
        lane) that refreshes nothing (no nomination, or a victim outside
        the bank) gets pad row ``R``.  Adds these windows' counts to
        ``victim_refreshes``.
        """
        n_seeds = nom_row.shape[0]
        w1 = min(w0 + _PLAN_WINDOWS, nom_row.shape[1])
        rows = nom_row[:, w0:w1].T
        if dist is not None:
            near, far = 1, dist[:, w0:w1].T
        else:
            levels = nom_level[:, w0:w1].T
            near, far = 2 * levels - 1, 2 * levels
        nominated = rows >= 0
        victims = np.stack(
            (rows - far, rows - near, rows + near, rows + far), axis=1
        )
        refreshed = (
            nominated[:, None, :]
            & (victims >= 0)
            & (victims < self.rows_per_bank)
        )
        victim_refreshes += refreshed.sum(axis=(0, 1))
        if self.phys_of is not None:
            victims = self.phys_of[np.where(refreshed, victims, 0)]
        arena_rows = np.where(refreshed, victims - origin, self.blast_radius)
        cells = arena_rows * n_seeds + np.arange(n_seeds, dtype=np.int64)
        return nominated.any(axis=1).tolist(), arena_rows, cells

    def _refresh_victims(self, flat, victims, records, cells):
        """One window's victim refreshes, slot by slot in policy order:
        gather every lane's hammer targets (into ``cells``) and their
        values into the slot's record rows, add the profile damage,
        scatter back, reset the victims."""
        steps = self._offsets[:, None] * victims.shape[1]
        damage = self._slot_damage
        for slot in range(_SLOTS):
            np.add(victims[slot], steps, out=cells)
            values = records[slot]
            flat.take(cells, out=values)
            values += damage
            flat[cells] = values
            flat[victims[slot]] = 0.0

    def _settle_max(
        self, seen, centres, victim_rows, max_pressure, max_row, scratch,
    ):
        """Fold one window's chronological value record ``seen`` into the
        running max.  Applying the strictly-greater rule value by value
        leaves the first occurrence of the record's max, if it beats the
        old max, so one max and (when some lane improves) one argmax
        replace it.  The record holds one group of profile-ordered values
        per ACT (centred on ``centres``), then one per victim slot
        (centred on ``victim_rows``, or none when no slot ran)."""
        seen_max, greater, lanes, group_rows = scratch
        seen.max(axis=0, out=seen_max)
        np.greater(seen_max, max_pressure, out=greater)
        if not greater.any():
            return
        n_act = centres.size
        group_rows[:n_act] = centres[:, None]
        if victim_rows is not None:
            group_rows[n_act:n_act + _SLOTS] = victim_rows
        group, offset = np.divmod(seen.argmax(axis=0), self._offsets.size)
        rows = group_rows[group, lanes]
        rows += self._offsets[offset]
        np.copyto(max_row, rows, where=greater)
        np.copyto(max_pressure, seen_max, where=greater)

    def _collect(
        self, rows, low, max_pressure, max_row, mitigations,
        victim_refreshes, acts, n_seeds,
    ) -> List[AttackResult]:
        per_seed_pressure: List[dict] = [dict() for _ in range(n_seeds)]
        if self.collect_pressure:
            lanes, offsets = np.nonzero(rows.T)
            values = rows.T[lanes, offsets]
            for lane, row, value in zip(
                lanes.tolist(), (offsets + low).tolist(), values.tolist()
            ):
                per_seed_pressure[lane][row] = value
        return [
            AttackResult(
                max_pressure=float(max_pressure[s]),
                max_pressure_row=int(max_row[s]),
                activations=acts,
                mitigations=int(mitigations[s]),
                victim_refreshes=int(victim_refreshes[s]),
                pressure=per_seed_pressure[s],
            )
            for s in range(n_seeds)
        ]
