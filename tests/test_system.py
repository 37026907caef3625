"""End-to-end tests of repro.simulate with the small configuration."""

import re

import pytest

import repro.cpu.system as system_module
from repro import MitigationSetup, simulate
from repro.cpu.system import build_mapping
from repro.mapping import RubixMapping, ZenMapping
from repro.sim.rng import RngStreams
from repro.workloads.synthetic import generate_trace


def make_traces(small_config, n=400, pattern="stream", seed=0):
    streams = RngStreams(seed)
    region = small_config.total_lines // small_config.num_cores
    return [
        generate_trace(
            pattern,
            n,
            mpki=30.0,
            region_start=core * region,
            region_lines=region,
            rng=streams.get(f"core/{core}"),
            revisit_probability=0.3,
        )
        for core in range(small_config.num_cores)
    ]


class TestSimulate:
    def test_baseline_runs_to_completion(self, small_config):
        traces = make_traces(small_config)
        result = simulate(traces, MitigationSetup("none"), small_config, "zen")
        assert result.stats.cycles > 0
        assert result.stats.total_memory_requests == sum(len(t) for t in traces)
        assert result.stats.total_activations > 0

    def test_deterministic_given_seed(self, small_config):
        traces = make_traces(small_config)
        setup = MitigationSetup("autorfm", threshold=4)
        a = simulate(traces, setup, small_config, "rubix", seed=5)
        b = simulate(traces, setup, small_config, "rubix", seed=5)
        assert a.stats.cycles == b.stats.cycles
        assert a.stats.total_activations == b.stats.total_activations
        assert a.stats.total_alerts == b.stats.total_alerts

    def test_every_mechanism_completes(self, small_config):
        traces = make_traces(small_config, n=300)
        for setup in (
            MitigationSetup("none"),
            MitigationSetup("rfm", threshold=4),
            MitigationSetup("autorfm", threshold=4, policy="fractal"),
            MitigationSetup("autorfm", threshold=4, policy="recursive"),
            MitigationSetup("prac", prac_trh_d=100),
        ):
            result = simulate(traces, setup, small_config, "zen")
            assert result.stats.cycles > 0, setup.describe()

    def test_rfm_slows_down_baseline(self, small_config):
        traces = make_traces(small_config, n=800)
        base = simulate(traces, MitigationSetup("none"), small_config, "zen")
        rfm = simulate(
            traces, MitigationSetup("rfm", threshold=4), small_config, "zen"
        )
        assert rfm.stats.total_rfm_commands > 0
        assert rfm.slowdown_vs(base) > 0.0

    def test_autorfm_cheaper_than_rfm(self, small_config):
        # The paper's headline: transparent RFM beats blocking RFM.
        traces = make_traces(small_config, n=800)
        base = simulate(traces, MitigationSetup("none"), small_config, "zen")
        rfm = simulate(
            traces, MitigationSetup("rfm", threshold=4), small_config, "zen"
        )
        auto = simulate(
            traces,
            MitigationSetup("autorfm", threshold=4),
            small_config,
            "rubix",
        )
        assert auto.slowdown_vs(base) < rfm.slowdown_vs(base)

    def test_alerts_only_in_autorfm(self, small_config):
        traces = make_traces(small_config, n=400)
        base = simulate(traces, MitigationSetup("none"), small_config, "zen")
        rfm = simulate(
            traces, MitigationSetup("rfm", threshold=4), small_config, "zen"
        )
        assert base.stats.total_alerts == 0
        assert rfm.stats.total_alerts == 0

    def test_mitigation_rate_tracks_threshold(self, small_config):
        traces = make_traces(small_config, n=800)
        setup = MitigationSetup("autorfm", threshold=4)
        result = simulate(traces, setup, small_config, "zen")
        acts = result.stats.total_activations
        mitigations = result.stats.total_mitigations
        # One mitigation per ~4 ACTs per bank (minus partial windows).
        assert mitigations <= acts / 4 + len(result.stats.banks)
        assert mitigations >= acts / 4 - len(result.stats.banks) * 2

    def test_rubix_reduces_row_hits(self, small_config):
        traces = make_traces(small_config, n=800)
        zen = simulate(traces, MitigationSetup("none"), small_config, "zen")
        rubix = simulate(traces, MitigationSetup("none"), small_config, "rubix")
        assert rubix.stats.row_hit_rate < zen.stats.row_hit_rate
        assert rubix.stats.total_activations > zen.stats.total_activations

    def test_wrong_trace_count_raises(self, small_config):
        traces = make_traces(small_config)[:-1]
        with pytest.raises(ValueError, match="one per core"):
            simulate(traces, MitigationSetup("none"), small_config)


class TestOutOfRangeTraces:
    """A trace address outside the mapping's domain fails up front.

    Each trace is decoded once at system construction, so a bad address
    raises the mapping's ``ValueError`` before the first event runs, no
    matter how late in the trace it sits. The batch backend hands such a
    lane to the scalar path, which raises the same error.
    """

    @pytest.fixture
    def engines(self, monkeypatch):
        built = []

        class RecordingEngine(system_module.Engine):
            def __init__(self):
                super().__init__()
                built.append(self)

        monkeypatch.setattr(system_module, "Engine", RecordingEngine)
        return built

    @pytest.mark.parametrize("backend", ["scalar", "batch"])
    @pytest.mark.parametrize("mapping", ["zen", "rubix"])
    @pytest.mark.parametrize("where", ["above", "negative"])
    def test_raises_before_first_event(
        self, small_config, engines, backend, mapping, where
    ):
        traces = make_traces(small_config, n=200)
        bad = small_config.total_lines if where == "above" else -3
        traces[1].addrs[150] = bad
        message = re.escape(
            f"line address {bad} outside [0, {small_config.total_lines})"
        )
        with pytest.raises(ValueError, match=message):
            simulate(
                traces, MitigationSetup("autorfm", threshold=4),
                small_config, mapping, backend=backend,
            )
        assert all(engine.events_processed == 0 for engine in engines)


class TestBuildMapping:
    def test_builds_zen(self, small_config):
        assert isinstance(build_mapping("zen", small_config), ZenMapping)

    def test_builds_rubix(self, small_config):
        assert isinstance(build_mapping("rubix", small_config), RubixMapping)

    def test_rubix_key_depends_on_seed(self, small_config):
        a = build_mapping("rubix", small_config, seed=1)
        b = build_mapping("rubix", small_config, seed=2)
        assert any(a.locate(i) != b.locate(i) for i in range(32))

    def test_unknown_mapping_raises(self, small_config):
        with pytest.raises(ValueError, match="unknown mapping"):
            build_mapping("open-page", small_config)
