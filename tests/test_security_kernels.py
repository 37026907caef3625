"""Differential suite for the vectorized security kernels.

The numpy batch engine promises results *exactly* equal to the scalar
reference — bit-identical pressures, identical max-pressure rows and
tie-breaking — across every tracker/policy combination. These tests hold
it to that, and pin the numpy RNG-batching identities the engine's
equality argument rests on.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mapping.kcipher import KCipher
from repro.security.audit import audit_hammer_pressure
from repro.security.blast import FAR_DAMAGE, hammer_profile
from repro.security.kernels import (
    BlastPolicySpec,
    FractalPolicySpec,
    GrapheneSpec,
    MintSpec,
    ParaSpec,
    build_pattern,
    policy_spec_from_string,
    run_attack_batch,
    tracker_spec_from_strings,
)
from repro.security.montecarlo import run_attack
from repro.sim.cmdlog import ACT, VICTIM_REFRESH, CommandLog
from repro.trackers.mint import MintTracker
from repro.core.mitigation import FractalMitigation

ROWS = 128 * 1024

TRACKERS = ["mint", "mint-transitive", "graphene", "para"]
POLICIES = ["fractal", "blast"]


def assert_equal_results(scalar, vector):
    """Exact equality, field by field; pressure compared on non-zero rows
    (the numpy backend's maps list only rows with non-zero pressure)."""
    assert len(scalar) == len(vector)
    for s, v in zip(scalar, vector):
        assert v.max_pressure == s.max_pressure
        assert v.max_pressure_row == s.max_pressure_row
        assert v.activations == s.activations
        assert v.mitigations == s.mitigations
        assert v.victim_refreshes == s.victim_refreshes
        nonzero = {row: p for row, p in s.pressure.items() if p != 0.0}
        assert v.pressure == nonzero


def differential(pattern, tracker_spec, policy_spec, *, window, seeds, **kw):
    scalar = run_attack_batch(
        [pattern], tracker_spec, policy_spec, window=window, seeds=seeds,
        backend="scalar", **kw,
    )[0]
    vector = run_attack_batch(
        [pattern], tracker_spec, policy_spec, window=window, seeds=seeds,
        backend="numpy", **kw,
    )[0]
    assert_equal_results(scalar, vector)
    return scalar, vector


class TestDifferential:
    """Scalar-vs-numpy equality across trackers x policies x >= 50 seeds."""

    @pytest.mark.parametrize("tracker", TRACKERS)
    @pytest.mark.parametrize("policy", POLICIES)
    def test_round_robin_matrix(self, tracker, policy):
        window = 4
        pattern = build_pattern(
            "round_robin", [70_000 + 10 * i for i in range(window)], 400
        )
        differential(
            pattern,
            tracker_spec_from_strings(tracker, window),
            policy_spec_from_string(policy),
            window=window,
            seeds=50,
        )

    @pytest.mark.parametrize("attack,rows", [
        ("double_sided", [70_000]),
        ("single_sided", [70_000]),
        ("half_double", [70_000, 5]),
    ])
    def test_attack_shapes(self, attack, rows):
        pattern = build_pattern(attack, rows, 400)
        differential(
            pattern, MintSpec(4), FractalPolicySpec(), window=4, seeds=50
        )

    def test_refresh_interval(self):
        pattern = build_pattern("double_sided", [70_000], 600)
        differential(
            pattern, MintSpec(4), FractalPolicySpec(), window=4, seeds=50,
            refresh_interval_acts=133,
        )

    def test_blast_radius_one(self):
        pattern = build_pattern("double_sided", [70_000], 400)
        differential(
            pattern, MintSpec(4), BlastPolicySpec(), window=4, seeds=50,
            blast_radius=1,
        )

    def test_row_cipher(self):
        cipher = KCipher(ROWS, key=42)
        pattern = build_pattern("double_sided", [70_000], 200)
        differential(
            pattern, MintSpec(4), FractalPolicySpec(), window=4, seeds=20,
            row_cipher=cipher,
        )

    def test_seed_chunking_is_invisible(self):
        pattern = build_pattern("double_sided", [70_000], 200)
        whole = run_attack_batch(
            [pattern], MintSpec(4), FractalPolicySpec(), window=4, seeds=20,
        )[0]
        chunked = run_attack_batch(
            [pattern], MintSpec(4), FractalPolicySpec(), window=4, seeds=20,
            seed_chunk=3,
        )[0]
        assert_equal_results(whole, chunked)

    def test_edge_of_bank(self):
        # Victim next to row 0 and aggressors at the top of the bank: the
        # clamping rules must match exactly on both backends.
        for pattern in (
            build_pattern("double_sided", [1], 120),
            build_pattern("round_robin", [ROWS - 1, ROWS - 2], 120),
        ):
            differential(
                pattern, MintSpec(4), FractalPolicySpec(), window=4, seeds=20
            )

    def test_explicit_seed_list_and_multi_pattern(self):
        patterns = [
            build_pattern("double_sided", [70_000], 160),
            build_pattern("single_sided", [50_000], 160),
        ]
        seeds = [7, 99, 1234]
        scalar = run_attack_batch(
            patterns, ParaSpec(0.25), FractalPolicySpec(), window=4,
            seeds=seeds, backend="scalar",
        )
        vector = run_attack_batch(
            patterns, ParaSpec(0.25), FractalPolicySpec(), window=4,
            seeds=seeds, backend="numpy",
        )
        for s, v in zip(scalar, vector):
            assert_equal_results(s, v)

    def test_graphene_custom_spec(self):
        pattern = build_pattern("round_robin", [70_000, 70_010, 70_020], 300)
        differential(
            pattern, GrapheneSpec(entries=8, mitigation_count=3),
            BlastPolicySpec(), window=3, seeds=50,
        )


class TestBlockAndPlanPaths:
    """The per-ACT block update, the planned window epilogue and the
    reachable-row arena against the scalar oracle, where they are most
    likely to go wrong: centres and victims at either edge of the bank,
    partial windows, refresh clears mid-window, wide blast radii,
    escalating MINT levels (which widen the span), PARA lanes that skip
    windows, and the cipher's scattered rows."""

    BANK = 4096

    @given(
        region=st.sampled_from(["low", "mid", "high"]),
        n_rows=st.integers(min_value=1, max_value=4),
        pattern_seed=st.integers(min_value=0, max_value=2**32 - 1),
        acts=st.integers(min_value=1, max_value=400),
        window=st.integers(min_value=2, max_value=7),
        refresh=st.one_of(st.none(), st.integers(min_value=1, max_value=150)),
        blast_radius=st.integers(min_value=1, max_value=3),
        tracker=st.sampled_from(TRACKERS),
        policy=st.sampled_from(POLICIES),
        cipher_key=st.one_of(st.none(), st.integers(0, 2**16)),
        seeds=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=50, deadline=None)
    def test_numpy_equals_scalar(
        self, region, n_rows, pattern_seed, acts, window, refresh,
        blast_radius, tracker, policy, cipher_key, seeds,
    ):
        bank = self.BANK
        base = {"low": 0, "mid": bank // 2, "high": bank - 8}[region]
        rng = np.random.default_rng(pattern_seed)
        rows = base + rng.choice(8, size=n_rows, replace=False)
        pattern = rng.choice(rows, size=acts).tolist()
        cipher = None if cipher_key is None else KCipher(bank, cipher_key)
        differential(
            pattern,
            tracker_spec_from_strings(tracker, window),
            policy_spec_from_string(policy),
            window=window, seeds=seeds, rows_per_bank=bank,
            blast_radius=blast_radius, refresh_interval_acts=refresh,
            row_cipher=cipher,
        )

    def test_single_sided_tie_goes_to_profile_order(self):
        # Rows r - 1 and r + 1 take the same damage on every ACT, and the
        # Graphene threshold is never reached, so they tie throughout:
        # the first hammer-profile offset (-1) must win, as it does in
        # the scalar engine's sequential strictly-greater rule.
        row = 70_000
        pattern = build_pattern("single_sided", [row], 400)
        tracker = GrapheneSpec(entries=8, mitigation_count=10**6)
        results = run_attack_batch(
            [pattern], tracker, FractalPolicySpec(), window=4, seeds=64,
        )[0]
        for result in results:
            assert result.max_pressure == 400.0
            assert result.max_pressure_row == row - 1
            assert result.mitigations == 0
        scalar = run_attack_batch(
            [pattern], tracker, FractalPolicySpec(), window=4, seeds=2,
            backend="scalar",
        )[0]
        assert_equal_results(scalar, results[:2])


class TestReachableArena:
    """The pressure arena covers only the rows a replay can reach, so its
    size follows the pattern's extent, not the bank's height."""

    @staticmethod
    def engine():
        from repro.security.kernels import _BatchEngine

        return _BatchEngine(
            MintSpec(4), FractalPolicySpec(), 4, ROWS, 2, None, None, False,
        )

    def test_arena_holds_only_reachable_rows(self):
        engine = self.engine()
        seeds = list(range(256))
        pattern = build_pattern("double_sided", [70_000], 2_000)
        engine.run_pattern(pattern, seeds, None)
        # Pattern rows 69_999..70_001, widened on each side by the
        # farthest Fractal victim plus the blast radius, plus the
        # 2R+1 pad rows below.
        radius = 2
        span = 3 + 2 * (2 + FractalMitigation.RAND_BITS + radius)
        rows = span + 2 * radius + 1
        assert engine._pressure_buf.size <= rows * len(seeds)
        assert engine._pressure_buf.nbytes < 1 << 20

    def test_mid_bank_seeds_replay_in_one_chunk(self, monkeypatch):
        from repro.security.kernels import _BatchEngine

        widths = []
        replay = _BatchEngine._run_chunk

        def spy(self, prep, seeds):
            widths.append(len(seeds))
            return replay(self, prep, seeds)

        monkeypatch.setattr(_BatchEngine, "_run_chunk", spy)
        pattern = build_pattern("double_sided", [70_000], 400)
        results = run_attack_batch(
            [pattern], MintSpec(4), FractalPolicySpec(), window=4,
            seeds=1000, collect_pressure=False,
        )[0]
        assert widths == [1000]
        assert len(results) == 1000


class TestRngBatchingPins:
    """The equality argument rests on these numpy Generator identities:
    one size=n call consumes the identical stream as n single calls."""

    @pytest.mark.parametrize("seed", [0, 1, 1234])
    def test_integers_batch_equals_sequential(self, seed):
        batched = np.random.default_rng(seed).integers(1, 6, size=64)
        sequential = np.random.default_rng(seed)
        assert batched.tolist() == [
            int(sequential.integers(1, 6)) for _ in range(64)
        ]

    @pytest.mark.parametrize("seed", [0, 1, 1234])
    def test_random_batch_equals_sequential(self, seed):
        batched = np.random.default_rng(seed).random(size=64)
        sequential = np.random.default_rng(seed)
        np.testing.assert_array_equal(
            batched, np.array([sequential.random() for _ in range(64)])
        )


class TestEncryptArray:
    def test_matches_scalar(self):
        cipher = KCipher(1000, key=7)
        arr = np.arange(1000, dtype=np.int64)
        enc = cipher.encrypt_array(arr)
        assert enc.tolist() == [cipher.encrypt(i) for i in range(1000)]
        np.testing.assert_array_equal(cipher.decrypt_array(enc), arr)

    @given(
        domain=st.integers(min_value=2, max_value=3000),
        key=st.integers(min_value=0, max_value=(1 << 32) - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_bijective_on_any_domain(self, domain, key):
        # Non-power-of-four domains exercise the per-element cycle walk.
        cipher = KCipher(domain, key)
        enc = cipher.encrypt_array(np.arange(domain, dtype=np.int64))
        assert sorted(enc.tolist()) == list(range(domain))
        np.testing.assert_array_equal(
            cipher.decrypt_array(enc), np.arange(domain, dtype=np.int64)
        )

    def test_rejects_out_of_domain(self):
        cipher = KCipher(100, key=1)
        with pytest.raises(ValueError):
            cipher.encrypt_array(np.array([100]))
        with pytest.raises(ValueError):
            cipher.decrypt_array(np.array([-1]))
        with pytest.raises(ValueError):
            cipher.encrypt_array(np.arange(4).reshape(2, 2))


class TestBlastProfile:
    """Satellite: one shared blast-profile table drives both engines."""

    def test_profile_shape(self):
        assert hammer_profile(1) == ((-1, 1.0), (1, 1.0))
        assert hammer_profile(2) == (
            (-1, 1.0), (1, 1.0), (-2, FAR_DAMAGE), (2, FAR_DAMAGE),
        )
        with pytest.raises(ValueError):
            hammer_profile(0)

    def test_run_attack_blast_radius_one(self):
        # Regression: blast_radius=1 must not touch distance-2 bookkeeping.
        tracker = MintTracker(window=4, rng=np.random.default_rng(0))
        policy = FractalMitigation(ROWS, np.random.default_rng(1))
        pattern = [70_000] * 40
        result = run_attack(
            pattern, tracker, policy, window=4, blast_radius=1
        )
        # Only the d=1 neighbours of activations/victims can carry
        # pressure; no cell may hold a FAR_DAMAGE fraction.
        for row, value in result.pressure.items():
            assert value == int(value), (
                f"row {row} carries fractional pressure {value} despite "
                f"blast_radius=1"
            )

    def test_blast_radius_three_reaches_distance_three(self):
        tracker = MintTracker(window=4, rng=np.random.default_rng(0))
        policy = FractalMitigation(ROWS, np.random.default_rng(1))
        result = run_attack(
            [70_000] * 8, tracker, policy, window=4, blast_radius=3
        )
        assert result.pressure.get(70_003, 0.0) > 0.0


class TestAuditBackends:
    """audit_hammer_pressure's numpy path equals its scalar path."""

    def _differential(self, log, config):
        scalar = audit_hammer_pressure(log, config, backend="scalar")
        vector = audit_hammer_pressure(log, config, backend="numpy")
        assert vector.pressure == scalar.pressure
        assert vector.max_pressure == scalar.max_pressure
        assert vector.max_pressure_bank == scalar.max_pressure_bank
        assert vector.max_pressure_row == scalar.max_pressure_row
        assert vector.activations == scalar.activations
        assert vector.victim_refreshes == scalar.victim_refreshes
        return scalar

    def test_mixed_log(self, small_config):
        rng = np.random.default_rng(3)
        log = CommandLog()
        t = 0
        for _ in range(600):
            t += int(rng.integers(1, 200))
            bank = int(rng.integers(0, 4))
            row = int(rng.integers(0, 64))
            if rng.random() < 0.15:
                log.record(t, VICTIM_REFRESH, bank, row)
            else:
                log.record(t, ACT, bank, row)
        audit = self._differential(log, small_config)
        assert audit.max_pressure > 0.0

    def test_empty_log(self, small_config):
        self._differential(CommandLog(), small_config)


class TestKernelValidation:
    def test_negative_rows_rejected(self):
        with pytest.raises(ValueError):
            run_attack_batch(
                [[-1, 5]], MintSpec(2), FractalPolicySpec(), window=2,
                seeds=1,
            )

    def test_mint_window_mismatch_rejected(self):
        with pytest.raises(ValueError):
            run_attack_batch(
                [[1, 2, 3, 4]], MintSpec(2), FractalPolicySpec(), window=4,
                seeds=1,
            )

    def test_cipher_domain_mismatch_rejected(self):
        with pytest.raises(ValueError):
            run_attack_batch(
                [[1, 2]], MintSpec(2), FractalPolicySpec(), window=2,
                seeds=1, row_cipher=KCipher(64, key=1),
            )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            run_attack_batch(
                [[1, 2]], MintSpec(2), FractalPolicySpec(), window=2,
                seeds=1, backend="cuda",
            )

    def test_spec_strings(self):
        assert tracker_spec_from_strings("mint", 4) == MintSpec(4)
        assert tracker_spec_from_strings("mint-transitive", 4) == MintSpec(
            4, transitive_slot=True
        )
        assert isinstance(policy_spec_from_string("recursive"),
                          BlastPolicySpec)
        with pytest.raises(ValueError):
            tracker_spec_from_strings("hydra", 4)
        with pytest.raises(ValueError):
            policy_spec_from_string("none")


class TestSecurityJobs:
    """The runner's SecurityJob batch API: caching and backend-blindness."""

    def test_cache_round_trip_and_backend_blind_key(self, tmp_path):
        from repro.analysis.runner import ExperimentRunner, SecurityJob

        job = SecurityJob(
            attack="double_sided", rows=(70_000,), acts=200, window=4,
            tracker="mint", policy="fractal", seeds=6,
        )
        twin = dataclasses.replace(job, backend="scalar")
        assert job.key() == twin.key()
        assert job.key() != dataclasses.replace(job, seeds=7).key()

        runner = ExperimentRunner(cache_dir=str(tmp_path), use_cache=True,
                                  jobs=1)
        first = runner.run_security_many([job, twin])
        assert first[0] == first[1]  # deduped to one execution
        assert runner.simulations_run == 0  # security jobs don't count sims
        again = ExperimentRunner(
            cache_dir=str(tmp_path), use_cache=True, jobs=1
        ).run_security(job)
        assert again == first[0]
        assert all(r.pressure == {} for r in again)

    def test_job_validation(self):
        from repro.analysis.runner import SecurityJob

        with pytest.raises(ValueError):
            SecurityJob(tracker="nope")
        with pytest.raises(ValueError):
            SecurityJob(policy="nope")
        with pytest.raises(ValueError):
            SecurityJob(attack="nope")
        with pytest.raises(ValueError):
            SecurityJob(seeds=0)
        with pytest.raises(ValueError):
            SecurityJob(rows=())

    def test_matches_direct_kernel_call(self):
        from repro.analysis.runner import ExperimentRunner, SecurityJob

        job = SecurityJob(
            attack="round_robin", rows=(70_000, 70_010), acts=200, window=2,
            tracker="para", policy="blast", seeds=5,
        )
        runner = ExperimentRunner(use_cache=False, jobs=1)
        via_runner = runner.run_security(job)
        direct = run_attack_batch(
            [build_pattern("round_robin", [70_000, 70_010], 200)],
            tracker_spec_from_strings("para", 2),
            policy_spec_from_string("blast"),
            window=2, seeds=5, collect_pressure=False,
        )[0]
        assert via_runner == direct


class TestThresholdSweep:
    def test_sweep_points(self):
        from repro.security.thresholds import threshold_sweep

        points = threshold_sweep([2, 4], seeds=5, acts=200)
        assert [p.window for p in points] == [2, 4]
        for p in points:
            assert p.max_pressure >= p.mean_pressure > 0.0
            assert p.mitigations > 0


class TestPreparedReplay:
    """prepare()/run_prepared() — the campaign engine's hot path — must
    be invisible: bit-identical to the one-shot run_pattern path."""

    def engine(self, cipher=None, collect=True):
        from repro.security.kernels import _BatchEngine

        return _BatchEngine(
            tracker_spec_from_strings("mint", 4),
            policy_spec_from_string("fractal"),
            4, ROWS, 2, None, cipher, collect,
        )

    def test_run_prepared_equals_run_pattern(self):
        pattern = build_pattern("round_robin", [70_000 + 10 * i
                                                for i in range(4)], 800)
        seeds = list(range(12))
        one_shot = self.engine().run_pattern(pattern, seeds, None)
        engine = self.engine()
        prep = engine.prepare(pattern)
        replayed = engine.run_prepared(prep, seeds)
        assert replayed == one_shot
        # Replays share the prepared state: disjoint seed batches glue
        # together into exactly the one-shot result.
        glued = engine.run_prepared(prep, seeds[:5]) + engine.run_prepared(
            prep, seeds[5:]
        )
        assert glued == one_shot

    def test_run_prepared_with_cipher(self):
        cipher = KCipher(ROWS, 11)
        pattern = build_pattern("double_sided", [70_000, 70_002], 600)
        engine = self.engine(cipher=cipher)
        prep = engine.prepare(pattern)
        assert engine.run_prepared(prep, [0, 1, 2]) == self.engine(
            cipher=cipher
        ).run_pattern(pattern, [0, 1, 2], None)

    def test_prepare_validates_rows(self):
        engine = self.engine()
        with pytest.raises(ValueError):
            engine.prepare([-1, 5])

    def test_chunked_replay_is_invisible(self):
        pattern = build_pattern("round_robin", [70_000, 70_010], 500)
        engine = self.engine()
        prep = engine.prepare(pattern)
        seeds = list(range(9))
        assert engine.run_prepared(prep, seeds, seed_chunk=2) == \
            engine.run_prepared(prep, seeds)


class TestCipherTableMemo:
    def test_hit_returns_same_object(self):
        from repro.security.kernels import cipher_table

        a = cipher_table(KCipher(1024, 5))
        b = cipher_table(KCipher(1024, 5))
        assert a is b

    def test_distinct_ciphers_distinct_tables(self):
        from repro.security.kernels import cipher_table

        a = cipher_table(KCipher(1024, 5))
        b = cipher_table(KCipher(1024, 6))
        assert a is not b
        assert not np.array_equal(a, b)

    def test_table_matches_uncached_remapper(self):
        from repro.security.kernels import CipherRowRemapper, cipher_table

        cipher = KCipher(2048, 9)
        np.testing.assert_array_equal(
            cipher_table(cipher), CipherRowRemapper(cipher).table()
        )
