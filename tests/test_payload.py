"""The attack-payload DSL: per-stage unit tests + the differential battery.

Four layers, mirroring the pipeline's promises:

* **Stages** — parse (line-accurate errors), resolve (strict binding),
  unroll (exact activation budgets, truncation semantics, guards), and
  compile (both replay forms) each behave per their contracts.
* **Legacy pins** — every generator in :mod:`repro.workloads.attacks` is
  pinned exactly equal to its DSL twin in the corpus, and
  :func:`repro.workloads.adversarial.hammer_trace` (now routed through
  the DSL) is pinned byte-identical to its historical construction.
* **Corpus** — the shipped manifest verifies clean, and every scenario
  replays *exactly* equally through the scalar Monte-Carlo oracle and
  the numpy batch kernels, across trackers; compiled traces replay
  bit-identically through both timing backends (same SimStats, same
  CommandLog).
* **Integration** — scenario identity (name, version, params) enters the
  security cache key; ``threshold_sweep`` accepts scenarios; the
  ``repro payload`` CLI honours its exit contract.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.cpu.system import build_mapping, simulate
from repro.mc.setup import MitigationSetup
from repro.payload import (
    CompiledPayload,
    PayloadError,
    compile_payload,
    compile_scenario,
    count_activations,
    load_scenario,
    normalize,
    parse,
    parse_params,
    resolve,
    scenario_names,
    scenario_source,
    unroll,
    verify_corpus,
)
from repro.payload.nodes import Instr, Num, format_program
from repro.security.kernels import (
    policy_spec_from_string,
    run_attack_batch,
    tracker_spec_from_strings,
)
from repro.sim.cmdlog import CommandLog
from repro.workloads.attacks import (
    double_sided,
    half_double,
    round_robin_attack,
    single_sided,
)


# ----------------------------------------------------------------------
# Stage 1: parse
# ----------------------------------------------------------------------
class TestParse:
    def test_simple_program_structure(self):
        program = parse("act 5\npre\nnop 3\nref\nrfm\nsync_ref\n")
        ops = [s.op for s in program.body]
        assert ops == ["act", "pre", "nop", "ref", "rfm", "sync_ref"]
        assert program.body[0].arg == Num(5)
        assert program.body[2].arg == Num(3)

    def test_loops_and_placeholders(self):
        program = parse(
            "for *:\n"
            "    act {base}\n"
            "    for d in {n}:\n"
            "        act {base}+2*d\n"
        )
        outer = program.body[0]
        assert outer.count is None
        inner = outer.body[1]
        assert inner.var == "d"
        assert program.params() == ("base", "n")

    def test_leading_comments_preserved(self):
        text = "# one\n# two\nact 1\n"
        program = parse(text)
        assert program.comments == ("one", "two")
        assert normalize(text) == text

    @pytest.mark.parametrize("bad,line", [
        ("hammer 5\n", 1),
        ("act\n", 1),
        ("pre 5\n", 1),
        ("act 1\nsync_ref 2\n", 2),
        ("for x in 3:\n    act y\n", 2),
        ("for 2:\n", 1),
        ("act (1\n", 1),
        ("act 1 )\n", 1),
        ("\tact 1\n", 1),
        ("act 1\n   act 2\n", 2),
        ("for x in 3:\n    for x in 2:\n        act x\n", 2),
    ])
    def test_errors_carry_the_offending_line(self, bad, line):
        with pytest.raises(PayloadError) as err:
            parse(bad)
        assert err.value.line == line
        assert f"line {line}:" in str(err.value)

    def test_unbound_identifier_suggests_placeholder(self):
        with pytest.raises(PayloadError, match=r"did you mean \{row\}"):
            parse("act row\n")

    def test_normalize_is_idempotent_on_the_corpus(self):
        for name in scenario_names():
            source = scenario_source(name)
            assert normalize(normalize(source)) == normalize(source)

    def test_parse_params_helper(self):
        assert parse_params(["a=1", "b = -2"]) == {"a": 1, "b": -2}
        with pytest.raises(PayloadError):
            parse_params(["a"])
        with pytest.raises(PayloadError):
            parse_params(["a=x"])


# ----------------------------------------------------------------------
# Stage 2: resolve
# ----------------------------------------------------------------------
class TestResolve:
    def test_binds_placeholders(self):
        program = resolve(parse("act {row}+1\n"), {"row": 9})
        assert program.body[0].arg.format() == "9+1"
        assert program.params() == ()

    def test_missing_parameter_names_offender_and_line(self):
        with pytest.raises(PayloadError) as err:
            resolve(parse("pre\nact {row}\n"), {})
        assert "row" in str(err.value)
        assert err.value.line == 2

    def test_unused_parameter_is_an_error(self):
        with pytest.raises(PayloadError, match="unused parameter"):
            resolve(parse("act {row}\n"), {"row": 1, "victim": 2})

    def test_non_integer_value_rejected(self):
        for bad in ("5", 5.0, True):
            with pytest.raises(PayloadError):
                resolve(parse("act {row}\n"), {"row": bad})


# ----------------------------------------------------------------------
# Stage 3: unroll
# ----------------------------------------------------------------------
class TestUnroll:
    def test_finite_program_expands_fully(self):
        program = parse("for i in 3:\n    act 10+i\n    pre\n")
        instrs = unroll(program, 100)
        assert [i.format() for i in instrs] == [
            "act 10", "pre", "act 11", "pre", "act 12", "pre",
        ]

    def test_budget_cuts_exactly_at_the_last_act(self):
        # An odd budget cuts the two-instruction loop body mid-iteration:
        # nothing after act #budget may leak into the expansion.
        program = parse("for *:\n    act 1\n    pre\n    nop 7\n")
        instrs = unroll(program, 3)
        assert sum(1 for i in instrs if i.op == "act") == 3
        assert instrs[-1].op == "act"

    def test_budget_zero_is_empty(self):
        assert unroll(parse("for *:\n    act 1\n"), 0) == []

    def test_negative_budget_rejected(self):
        with pytest.raises(PayloadError):
            unroll(parse("act 1\n"), -1)

    def test_unresolved_program_rejected(self):
        with pytest.raises(PayloadError, match="missing"):
            unroll(parse("act {row}\n"), 5)

    def test_unbounded_loop_without_acts_rejected(self):
        with pytest.raises(PayloadError, match="no activations"):
            unroll(parse("for *:\n    pre\n"), 5)

    @pytest.mark.parametrize("bad", [
        "act 1-2\n",                      # negative row
        "nop 1-5\n",                      # negative idle count
        "for 1-3:\n    act 1\n",          # negative trip count
    ])
    def test_negative_evaluations_rejected(self, bad):
        with pytest.raises(PayloadError):
            unroll(parse(bad), 5)

    def test_instruction_cap_guards_degenerate_payloads(self):
        program = parse("for *:\n    for 100000:\n        pre\n    act 1\n")
        with pytest.raises(PayloadError, match="instruction cap"):
            unroll(program, 2)

    def test_zero_trip_counted_loop_is_skipped(self):
        # Regression (found by the property fuzzer): a zero-trip counted
        # loop used to crash unbinding a variable it never bound.
        program = parse("for i in 0:\n    act i\nact 9\n")
        assert compile_payload(unroll(program, 10)).rows == [9]

    def test_count_activations_matches_unroll(self):
        finite = resolve(
            parse("for i in {n}:\n    act i\n    act i+100\n"), {"n": 5}
        )
        assert count_activations(finite) == 10
        assert count_activations(finite, 4) == 4
        assert len(unroll(finite, 4)) >= 4
        unbounded = parse("for *:\n    act 1\n")
        assert count_activations(unbounded, 7) == 7
        with pytest.raises(PayloadError, match="unbounded"):
            count_activations(unbounded)


# ----------------------------------------------------------------------
# Stage 4: compile (+ to_trace)
# ----------------------------------------------------------------------
class TestCompile:
    def test_rows_are_the_act_stream(self):
        compiled = compile_payload(
            unroll(parse("act 5\npre\nnop 2\nact 9\n"), 10), name="t"
        )
        assert compiled.rows == [5, 9]
        assert compiled.acts == 2
        assert compiled.op_counts() == {"act": 2, "pre": 1, "nop": 1}

    def test_rows_digest_is_the_sha256_of_the_joined_rows(self):
        compiled = CompiledPayload(name="x", instrs=(), rows=[1, 2, 3])
        assert compiled.rows_digest() == hashlib.sha256(
            b"1,2,3"
        ).hexdigest()

    def test_compile_rejects_unresolved_act(self):
        from repro.payload.nodes import Param

        with pytest.raises(PayloadError):
            compile_payload([Instr("act", Param("row"), 1)])

    def test_to_trace_layout(self, small_config):
        mapping = build_mapping("zen", small_config)
        compiled = compile_payload(
            unroll(parse("nop 3\nact 10\npre\nref\nact 20\nnop 5\n"), 10),
            name="layout",
        )
        trace = compiled.to_trace(mapping, ref_gap=700)
        assert len(trace.addrs) == 2
        assert trace.gaps == [3, 700]
        assert trace.tail_instructions == 5
        assert trace.writes == [False, False]
        from repro.mapping.base import LineLocation

        assert trace.addrs[0] == mapping.line_for(
            LineLocation(subchannel=0, bank=0, row=10, column=0)
        )


# ----------------------------------------------------------------------
# Legacy generators pinned equal to their DSL twins
# ----------------------------------------------------------------------
ODD_ACTS = 101  # odd on purpose: exercises mid-iteration truncation


class TestLegacyTwins:
    def test_round_robin_twin(self):
        rows = [70_000 + 10 * i for i in range(4)]
        compiled = compile_scenario(
            "abcd_k", params={"base": 70_000, "rows": 4, "stride": 10},
            acts=ODD_ACTS,
        )
        assert compiled.rows == round_robin_attack(rows, ODD_ACTS)

    def test_single_sided_twin(self):
        compiled = compile_scenario(
            "single_sided", params={"row": 1234}, acts=ODD_ACTS
        )
        assert compiled.rows == single_sided(1234, ODD_ACTS)

    def test_double_sided_twin(self):
        compiled = compile_scenario(
            "double_sided", params={"victim": 5000}, acts=ODD_ACTS
        )
        assert compiled.rows == double_sided(5000, ODD_ACTS)

    def test_half_double_twin(self):
        compiled = compile_scenario(
            "half_double", params={"far": 70_000, "decoys": 8},
            acts=ODD_ACTS,
        )
        assert compiled.rows == half_double(70_000, ODD_ACTS, decoys=8)

    @pytest.mark.parametrize("rows,requests,gap,bank", [
        ((1000, 1002), 7, 0, 0),
        ((1000, 1002, 1004), 10, 5, 3),
        ((42,), 4, 700, 1),
        ((1, 2), 0, 0, 0),
    ])
    def test_hammer_trace_byte_identical_to_legacy(
        self, small_config, rows, requests, gap, bank
    ):
        """The DSL-routed hammer_trace reproduces the historical layout:
        round-robin line addresses, a ``gap`` of idle instructions before
        every request, and no tail."""
        from repro.workloads.adversarial import hammer_trace, lines_for_rows

        mapping = build_mapping("zen", small_config)
        trace = hammer_trace(
            mapping, list(rows), requests, bank=bank, gap=gap
        )
        lines = lines_for_rows(mapping, 0, bank, rows)
        assert trace.addrs == [lines[i % len(rows)] for i in range(requests)]
        assert trace.gaps == [gap] * requests
        assert trace.tail_instructions == 0
        assert trace.writes == [False] * requests


# ----------------------------------------------------------------------
# Corpus integrity
# ----------------------------------------------------------------------
class TestCorpus:
    def test_shipped_corpus_verifies_clean(self):
        assert verify_corpus() == []

    def test_every_scenario_is_fully_versioned(self):
        names = scenario_names()
        assert len(names) >= 10
        for name in names:
            s = load_scenario(name)
            assert s.version.count(".") == 2, name
            assert s.description and s.provenance, name
            assert len(s.source_sha256) == 64, name
            assert len(s.rows_sha256) == 64, name
            assert s.default_acts > 0, name

    def test_unknown_scenario_and_parameter_rejected(self):
        with pytest.raises(PayloadError, match="unknown scenario"):
            load_scenario("nope")
        with pytest.raises(PayloadError, match="does not take"):
            compile_scenario("single_sided", params={"victim": 1})

    def test_drift_is_detected(self, monkeypatch):
        """A tampered digest surfaces as a verify problem, not silence."""
        import repro.payload.corpus as corpus

        doc = corpus.load_manifest()
        doc["scenarios"]["single_sided"]["rows_sha256"] = "0" * 64
        monkeypatch.setattr(corpus, "load_manifest", lambda: doc)
        problems = corpus.verify_corpus()
        assert any(
            "single_sided" in p and "shape drift" in p for p in problems
        )

    def test_compile_scenario_is_deterministic(self):
        a = compile_scenario("rfm_dos", acts=123)
        b = compile_scenario("rfm_dos", acts=123)
        assert a.rows == b.rows
        assert a.rows_digest() == b.rows_digest()


# ----------------------------------------------------------------------
# Differential matrix: corpus x trackers x scalar-vs-numpy
# ----------------------------------------------------------------------
DIFF_TRACKERS = ("mint", "graphene", "para")
DIFF_ACTS = 250
DIFF_SEEDS = 3


@pytest.mark.parametrize("tracker", DIFF_TRACKERS)
@pytest.mark.parametrize("name", sorted(scenario_names()))
def test_scenario_differential_scalar_vs_numpy(name, tracker):
    """Every corpus scenario replays exactly equally on both engines."""
    pattern = list(compile_scenario(name, acts=DIFF_ACTS).rows)
    assert len(pattern) == DIFF_ACTS
    window = 4
    kwargs = dict(
        window=window,
        seeds=DIFF_SEEDS,
        collect_pressure=True,
    )
    spec = tracker_spec_from_strings(tracker, window)
    policy = policy_spec_from_string("fractal")
    scalar = run_attack_batch(
        [pattern], spec, policy, backend="scalar", **kwargs
    )[0]
    vector = run_attack_batch(
        [pattern], spec, policy, backend="numpy", **kwargs
    )[0]
    assert len(scalar) == len(vector) == DIFF_SEEDS
    for s, v in zip(scalar, vector):
        assert v.max_pressure == s.max_pressure
        assert v.max_pressure_row == s.max_pressure_row
        assert v.activations == s.activations
        assert v.mitigations == s.mitigations
        assert v.victim_refreshes == s.victim_refreshes
        nonzero = {row: p for row, p in s.pressure.items() if p != 0.0}
        assert v.pressure == nonzero


# ----------------------------------------------------------------------
# Trace bit-identity: simulate(backend="batch") vs scalar
# ----------------------------------------------------------------------
#: Scenario + small-row parameter overrides that fit the small_config
#: geometry (4096 rows/bank); each is compiled to a timed trace and must
#: replay bit-identically on both timing backends.
TRACE_CASES = [
    ("single_sided", {"row": 1000}),
    ("double_sided", {"victim": 2000}),
    ("abcd_k", {"base": 512, "rows": 4, "stride": 10}),
    ("refresh_sync", {"victim": 300, "burst": 16, "quiet": 64}),
    ("rfm_dos", {"base": 100, "spread": 8}),
]

TRACE_SETUPS = [
    MitigationSetup("none"),
    MitigationSetup("autorfm", threshold=4, tracker="mint",
                    policy="fractal"),
]


@pytest.mark.parametrize("setup", TRACE_SETUPS,
                         ids=[s.mechanism for s in TRACE_SETUPS])
@pytest.mark.parametrize("name,params", TRACE_CASES,
                         ids=[n for n, _ in TRACE_CASES])
def test_compiled_trace_bit_identical_across_backends(
    small_config, name, params, setup
):
    mapping = build_mapping("zen", small_config)
    compiled = compile_scenario(name, params=params, acts=300)
    attacker = compiled.to_trace(mapping)
    traces = [attacker, attacker.sliced(0)]

    log_scalar = CommandLog()
    ref = simulate(
        traces, setup=setup, config=small_config, mapping="zen", seed=1,
        command_log=log_scalar, backend="scalar",
    )
    log_batch = CommandLog()
    got = simulate(
        traces, setup=setup, config=small_config, mapping="zen", seed=1,
        command_log=log_batch, backend="batch",
    )
    assert got.stats == ref.stats
    assert log_batch.records == log_scalar.records


# ----------------------------------------------------------------------
# Integration: cache key, threshold sweep, CLI
# ----------------------------------------------------------------------
class TestSecurityJobScenario:
    def test_version_is_autofilled_from_the_manifest(self):
        from repro.analysis.runner import SecurityJob

        job = SecurityJob(scenario="single_sided", acts=100)
        assert job.scenario_version == load_scenario("single_sided").version

    def test_wrong_version_assertion_rejected(self):
        from repro.analysis.runner import SecurityJob

        with pytest.raises(ValueError, match="version"):
            SecurityJob(scenario="single_sided", scenario_version="9.9.9")

    def test_undeclared_override_rejected(self):
        from repro.analysis.runner import SecurityJob

        with pytest.raises(ValueError, match="declares no parameter"):
            SecurityJob(
                scenario="single_sided", scenario_params={"victim": 1}
            )
        with pytest.raises(ValueError, match="require a scenario"):
            SecurityJob(scenario_params=(("row", 1),))

    def test_scenario_identity_enters_the_cache_key(self, monkeypatch):
        from repro.analysis.runner import SecurityJob

        base = SecurityJob(scenario="single_sided", acts=100)
        other_params = SecurityJob(
            scenario="single_sided", acts=100,
            scenario_params={"row": 9},
        )
        other_name = SecurityJob(scenario="double_sided", acts=100)
        keys = {base.key(), other_params.key(), other_name.key()}
        assert len(keys) == 3
        # A version bump alone must re-key (the same name+params answer
        # would otherwise come from entries computed against the old
        # payload).
        bumped = dataclasses.replace(base)
        object.__setattr__(bumped, "scenario_version", "2.0.0")
        assert bumped.key() != base.key()

    def test_scenario_less_jobs_keep_their_pre_corpus_hash(self):
        """The corpus fields must not invalidate existing cache entries."""
        from repro.analysis.runner import CACHE_SCHEMA_VERSION, SecurityJob

        job = SecurityJob(attack="double_sided", rows=(70_000,), acts=100)
        fields = dataclasses.asdict(job)
        for dropped in ("backend", "scenario", "scenario_version",
                        "scenario_params"):
            fields.pop(dropped)
        canonical = json.dumps(
            {"schema": CACHE_SCHEMA_VERSION, "kind": "security",
             "job": fields},
            sort_keys=True, separators=(",", ":"),
        )
        expected = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        assert job.key() == expected

    def test_runner_executes_and_caches_scenario_jobs(self, tmp_path):
        from repro.analysis.runner import ExperimentRunner, SecurityJob

        runner = ExperimentRunner(jobs=1, cache_dir=str(tmp_path))
        job = SecurityJob(
            scenario="double_sided", acts=200, seeds=2, window=4
        )
        first = runner.run_security(job)
        assert runner.cache_misses >= 1
        again = runner.run_security(job)
        assert runner.cache_hits >= 1
        assert [dataclasses.asdict(r) for r in again] == [
            dataclasses.asdict(r) for r in first
        ]
        # The cached replay equals a direct run over the compiled rows.
        direct = run_attack_batch(
            [list(compile_scenario("double_sided", acts=200).rows)],
            tracker_spec_from_strings("mint", 4),
            policy_spec_from_string("fractal"),
            window=4, seeds=2, collect_pressure=False,
        )[0]
        for got, want in zip(first, direct):
            assert got.max_pressure == want.max_pressure
            assert got.mitigations == want.mitigations


class TestThresholdSweepScenario:
    def test_sweep_accepts_scenarios(self):
        from repro.security.thresholds import threshold_sweep

        points = threshold_sweep(
            [4], seeds=2, acts=150, scenario="single_sided",
            scenario_params={"row": 9000},
        )
        (point,) = points
        assert point.window == 4 and point.acts == 150
        direct = run_attack_batch(
            [list(compile_scenario(
                "single_sided", params={"row": 9000}, acts=150
            ).rows)],
            tracker_spec_from_strings("mint", 4),
            policy_spec_from_string("fractal"),
            window=4, seeds=2, collect_pressure=False,
        )[0]
        assert point.max_pressure == max(r.max_pressure for r in direct)

    def test_params_without_scenario_rejected(self):
        from repro.security.thresholds import montecarlo_tolerated_threshold

        with pytest.raises(ValueError, match="requires a scenario"):
            montecarlo_tolerated_threshold(
                4, seeds=1, acts=10, scenario_params={"row": 1}
            )


class TestPayloadCli:
    def run_cli(self, *argv):
        from repro.cli import main

        return main(["payload", *argv])

    def test_list_names_every_scenario(self, capsys):
        assert self.run_cli("list") == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_show_prints_the_source(self, capsys):
        assert self.run_cli("show", "single_sided") == 0
        out = capsys.readouterr().out
        assert "act {row}" in out and "v1" in out

    def test_compile_prints_shape_and_digest(self, capsys):
        assert self.run_cli(
            "compile", "single_sided", "--param", "row=7", "--acts", "5"
        ) == 0
        out = capsys.readouterr().out
        digest = compile_scenario(
            "single_sided", params={"row": 7}, acts=5
        ).rows_digest()
        assert "5 activations" in out
        assert digest in out

    def test_verify_passes_on_the_shipped_corpus(self, capsys):
        assert self.run_cli("verify") == 0
        assert "corpus OK" in capsys.readouterr().out

    def test_unknown_scenario_exits_2(self, capsys):
        assert self.run_cli("show", "nope") == 2
        assert "payload error" in capsys.readouterr().err

    def test_run_replays_through_the_engine(self, capsys, tmp_path,
                                            monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_JOBS", "1")
        assert self.run_cli(
            "run", "single_sided", "--acts", "150", "--seeds", "2",
            "--param", "row=9000",
        ) == 0
        out = capsys.readouterr().out
        assert "worst pressure" in out and "2 seeds x 150 ACTs" in out
