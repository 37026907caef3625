"""Property tests for the observability layer (``repro.obs``).

Seeded-random, stdlib-only property tests (no Hypothesis dependency in the
tier-1 path) covering the algebraic contracts the rest of the system leans
on: histogram merge is associative and commutative, counters are
non-negative and label-separated, and the tracer's ring buffer evicts
oldest-first while preserving emission order.
"""

from __future__ import annotations

import io
import json
import random

import pytest

from repro.obs import (
    Histogram,
    MetricsRegistry,
    ObsConfig,
    Observability,
    SpanTracer,
    merge_histograms,
)
from repro.obs.trace import layout

EDGES = (1, 2, 4, 8, 16, 32)


def random_histogram(rng: random.Random, samples: int) -> Histogram:
    hist = Histogram(EDGES)
    for _ in range(samples):
        hist.observe(rng.randint(0, 64))
    return hist


class TestHistogramProperties:
    def test_merge_is_commutative(self):
        rng = random.Random(0xC0FFEE)
        for _ in range(50):
            a = random_histogram(rng, rng.randint(0, 40))
            b = random_histogram(rng, rng.randint(0, 40))
            assert merge_histograms(a, b) == merge_histograms(b, a)

    def test_merge_is_associative(self):
        rng = random.Random(0xBEEF)
        for _ in range(50):
            a = random_histogram(rng, rng.randint(0, 30))
            b = random_histogram(rng, rng.randint(0, 30))
            c = random_histogram(rng, rng.randint(0, 30))
            left = merge_histograms(merge_histograms(a, b), c)
            right = merge_histograms(a, merge_histograms(b, c))
            assert left == right

    def test_merge_identity_is_the_empty_histogram(self):
        rng = random.Random(7)
        for _ in range(20):
            a = random_histogram(rng, rng.randint(0, 30))
            assert merge_histograms(a, Histogram(EDGES)) == a

    def test_merge_conserves_count_and_sum(self):
        rng = random.Random(11)
        for _ in range(50):
            a = random_histogram(rng, rng.randint(0, 40))
            b = random_histogram(rng, rng.randint(0, 40))
            merged = merge_histograms(a, b)
            assert merged.count == a.count + b.count
            assert merged.sum == a.sum + b.sum
            assert sum(merged.counts) == merged.count

    def test_every_observation_lands_in_exactly_one_bucket(self):
        rng = random.Random(13)
        hist = Histogram(EDGES)
        for _ in range(500):
            value = rng.randint(-2, 64)
            before = sum(hist.counts)
            hist.observe(value)
            assert sum(hist.counts) == before + 1
        # Bucket boundaries: counts[i] holds values <= edges[i].
        boundary = Histogram(EDGES)
        for edge in EDGES:
            boundary.observe(edge)
        assert boundary.counts[: len(EDGES)] == [1] * len(EDGES)
        assert boundary.counts[-1] == 0

    def test_merge_rejects_mismatched_edges(self):
        with pytest.raises(ValueError, match="edges"):
            merge_histograms(Histogram((1, 2)), Histogram((1, 3)))

    def test_unsorted_or_duplicate_edges_rejected(self):
        with pytest.raises(ValueError, match="sorted"):
            Histogram((4, 2, 1))
        with pytest.raises(ValueError, match="distinct"):
            Histogram((1, 1, 2))


class TestCounterProperties:
    def test_counters_never_go_negative(self):
        registry = MetricsRegistry()
        counter = registry.counter("events")
        rng = random.Random(17)
        total = 0
        for _ in range(200):
            n = rng.randint(0, 10)
            counter.inc(n)
            total += n
            assert counter.value == total >= 0
        with pytest.raises(ValueError, match="count up"):
            counter.inc(-1)
        assert counter.value == total  # the rejected inc left no trace

    def test_labels_separate_series(self):
        registry = MetricsRegistry()
        rng = random.Random(19)
        expected = {}
        for _ in range(200):
            bank = rng.randint(0, 7)
            n = rng.randint(0, 5)
            registry.counter("mc.act", bank=bank).inc(n)
            expected[bank] = expected.get(bank, 0) + n
        for bank, total in expected.items():
            assert registry.counter("mc.act", bank=bank).value == total
        assert registry.sum_counters("mc.act") == sum(expected.values())

    def test_same_series_is_the_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("x", bank=1) is registry.counter("x", bank=1)
        assert registry.counter("x", bank=1) is not registry.counter(
            "x", bank=2
        )
        # Label order never matters.
        a = registry.counter("y", bank=1, subchannel=0)
        b = registry.counter("y", subchannel=0, bank=1)
        assert a is b

    def test_type_conflicts_raise_instead_of_shadowing(self):
        registry = MetricsRegistry()
        registry.counter("mixed")
        with pytest.raises(TypeError, match="already registered"):
            registry.gauge("mixed")
        registry.histogram("hist", (1, 2))
        with pytest.raises(ValueError, match="edges"):
            registry.histogram("hist", (1, 3))


class TestRegistryMerge:
    def test_registry_merge_is_label_aware_and_commutative(self):
        rng = random.Random(23)

        def shard(seed):
            reg = MetricsRegistry()
            local = random.Random(seed)
            for _ in range(100):
                reg.counter("acts", bank=local.randint(0, 3)).inc(
                    local.randint(0, 4)
                )
                reg.histogram("wait", EDGES).observe(local.randint(0, 40))
            return reg

        ab = shard(1)
        ab.merge(shard(2))
        ba = shard(2)
        ba.merge(shard(1))
        assert ab.snapshot() == ba.snapshot()

    def test_snapshot_round_trips_through_json(self):
        registry = MetricsRegistry()
        registry.counter("c", bank=0).inc(3)
        registry.gauge("g").set(7)
        registry.histogram("h", EDGES).observe(5)
        snapshot = registry.snapshot()
        assert json.loads(json.dumps(snapshot, sort_keys=True)) == snapshot
        assert snapshot["counters"] == {"c{bank=0}": 3}
        assert snapshot["gauges"] == {"g": 7}


class TestTracerRingBuffer:
    def test_eviction_keeps_newest_and_preserves_order(self):
        rng = random.Random(29)
        for _ in range(25):
            capacity = rng.randint(1, 50)
            emitted = rng.randint(0, 120)
            tracer = SpanTracer(capacity=capacity)
            for i in range(emitted):
                tracer.event(i * 3, "ACT", seq=i)
            kept = tracer.events()
            assert len(kept) == min(capacity, emitted)
            assert tracer.emitted == emitted
            assert tracer.dropped == max(0, emitted - capacity)
            # The retained window is exactly the newest events, in order.
            sequence = [e["seq"] for e in kept]
            assert sequence == list(range(max(0, emitted - capacity), emitted))
            times = [e["t"] for e in kept]
            assert times == sorted(times)

    def test_jsonl_lines_are_canonical_and_ordered(self):
        tracer = SpanTracer(capacity=8)
        tracer.event(5, "ACT", bank=1, row=42)
        tracer.span(6, 10, "SAUM", bank=1, region=3)
        lines = tracer.to_jsonl().splitlines()
        assert lines[0] == '{"bank":1,"kind":"ACT","row":42,"t":5}'
        assert lines[1] == '{"bank":1,"end":10,"kind":"SAUM","region":3,"t":6}'
        parsed = [json.loads(line) for line in lines]
        assert [p["t"] for p in parsed] == [5, 6]

    def test_streaming_flush_sees_evicted_events_too(self):
        stream = io.StringIO()
        tracer = SpanTracer(capacity=2, stream=stream)
        for i in range(5):
            tracer.event(i, "ACT", seq=i)
        streamed = stream.getvalue().splitlines()
        assert len(streamed) == 5  # the stream got everything...
        assert len(tracer.events()) == 2  # ...while memory stayed bounded
        assert [json.loads(s)["seq"] for s in streamed] == list(range(5))

    def test_tuple_and_json_records_render_like_json(self):
        """Int-only events take a precompiled template, the rest the json
        encoder; both render the canonical line, and events(), dump_state
        and restore_state round-trip them."""
        tracer = SpanTracer(capacity=16)
        tracer.event(1, "ACT", bank=2, row=3)
        tracer.event(2, "NOTE", label="a%d\"b", ratio=0.5)
        tracer.event(3, "FLAG", on=True, n=-7)
        tracer.span(4, 9, "100%", big=1 << 70)
        expected = [
            {"t": 1, "kind": "ACT", "bank": 2, "row": 3},
            {"t": 2, "kind": "NOTE", "label": 'a%d"b', "ratio": 0.5},
            {"t": 3, "kind": "FLAG", "on": True, "n": -7},
            {"t": 4, "kind": "100%", "end": 9, "big": 1 << 70},
        ]
        assert tracer.events() == expected
        assert tracer.to_jsonl() == "".join(
            json.dumps(e, sort_keys=True, separators=(",", ":")) + "\n"
            for e in expected
        )
        restored = SpanTracer(capacity=16)
        restored.restore_state(
            json.loads(json.dumps(tracer.dump_state()))
        )
        assert restored.to_jsonl() == tracer.to_jsonl()
        assert restored.emitted == tracer.emitted == 4

    def test_layout_fields_must_be_sorted(self):
        assert layout("ACT", "bank", "row", "t") == layout(
            "ACT", "bank", "row", "t"
        )
        for fields in (("row", "bank"), ("bank", "bank"), ("kind", "t")):
            with pytest.raises(ValueError, match="sorted"):
                layout("ACT", *fields)

    def test_backwards_span_rejected(self):
        tracer = SpanTracer()
        with pytest.raises(ValueError, match="before"):
            tracer.span(10, 5, "SAUM")


class TestDeterminismQuarantine:
    def test_metrics_and_trace_never_read_the_wall_clock(self):
        """The deterministic modules must not even import ``time``; the
        profiler is the single sanctioned wall-clock reader."""
        import repro.obs.metrics as metrics_mod
        import repro.obs.trace as trace_mod
        import inspect

        for module in (metrics_mod, trace_mod):
            source = inspect.getsource(module)
            assert "import time" not in source, module.__name__
            assert "perf_counter" not in source, module.__name__

    def test_disabled_observability_collects_nothing(self):
        obs = Observability(ObsConfig(metrics=False, trace=False))
        assert not obs.enabled
        assert obs.metrics is None and obs.tracer is None
        result = obs.result()
        assert result.metrics is None
        assert result.trace_jsonl is None

    def test_invalid_trace_capacity_rejected(self):
        with pytest.raises(ValueError, match="trace_capacity"):
            ObsConfig(trace_capacity=0)
