# Convenience targets for the AutoRFM reproduction.

.PHONY: install test lint lint-fast lint-baseline payload-verify bench bench-smoke bench-security bench-svc bench-campaign examples audit clean

install:
	pip install -e . || python setup.py develop

test:
	PYTHONPATH=src python -m pytest -x -q

lint:
	PYTHONPATH=src python -m repro lint src/repro
	@command -v ruff >/dev/null 2>&1 && ruff check src/repro || echo "ruff not installed; skipping"
	@command -v mypy >/dev/null 2>&1 && mypy src/repro/lint || echo "mypy not installed; skipping"

# Pre-commit speed path: only git-modified files, per-module passes only
# (the whole-program call-graph passes need the full tree and run in CI
# and `make lint`).
lint-fast:
	PYTHONPATH=src python -m repro lint --changed src/repro

lint-baseline:
	PYTHONPATH=src python -m repro lint --update-baseline src/repro

# Corpus integrity: every scenario file must match its pinned source and
# compiled-shape digests in corpus.json (see docs/payload_dsl.md).
payload-verify:
	PYTHONPATH=src python -m repro payload verify

bench:
	pytest benchmarks/ --benchmark-only

# Simulator throughput: events/sec and events per reference-loop event of
# the fixed smoke run, observability overhead, and the scalar-vs-batch
# timing backends over the lane fleet (writes them into BENCH_perf.json;
# see docs/observability.md and docs/sim_batch.md).
bench-smoke:
	PYTHONPATH=src python benchmarks/bench_perf_smoke.py

bench-security:
	PYTHONPATH=src python benchmarks/bench_security_smoke.py

# Sweep-service throughput: cold jobs/sec through the daemon's worker
# pool and warm cache-hit latency (writes svc_jobs_per_second and
# svc_hit_latency_ms into BENCH_perf.json; see docs/sweep_service.md).
bench-svc:
	PYTHONPATH=src python benchmarks/bench_svc_smoke.py

# Adaptive threshold-campaign engine: cells/sec over the smoke grid and
# seeds saved vs the fixed sweep (writes campaign_cells_per_second and
# campaign_seeds_saved_pct into BENCH_perf.json; see
# docs/threshold_campaign.md).
bench-campaign:
	PYTHONPATH=src python benchmarks/bench_campaign_smoke.py

examples:
	python examples/quickstart.py
	python examples/rowhammer_attack_analysis.py
	python examples/custom_tracker.py
	python examples/design_space_sweep.py
	python examples/full_cpu_path.py
	python examples/generate_report.py

audit:
	python -m repro audit

clean:
	rm -rf benchmarks/results report_out .pytest_cache .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
