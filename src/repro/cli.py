"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run``       — simulate one workload under a mitigation setup and print
  the headline metrics (slowdown vs the unmitigated Zen baseline, ALERT
  rate, mitigation counts, power).
* ``sweep``     — slowdown table across workloads x mechanisms.
* ``security``  — analytical tolerated thresholds (Appendix A/B) and an
  optional Monte-Carlo attack replay.
* ``campaign``  — adaptive empirical threshold search (SPRT + bisection)
  across {tracker x policy x scenario} cells, cross-checked against the
  analytical model.
* ``workloads`` — the Table V catalog.
* ``storage``   — Section VI-C storage overheads.
* ``serve``     — run the sweep-service daemon on a Unix socket.
* ``submit`` / ``status`` / ``result`` / ``cancel`` — thin clients for a
  running daemon; ``submit`` falls back to in-process execution when no
  daemon is listening.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

import numpy as np

from repro.analysis.runner import ExperimentRunner, Job
from repro.analysis.storage import storage_overheads
from repro.analysis.tables import render_table
from repro.cpu.system import simulate
from repro.jobs import JobSpec
from repro.mc.setup import MECHANISMS, POLICIES, TRACKERS, MitigationSetup
from repro.power.model import DramPowerModel
from repro.security.fractal_model import fm_safe_trhd
from repro.security.mint_model import mint_tolerated_trhd
from repro.sim.config import SystemConfig
from repro.workloads.catalog import WORKLOADS
from repro.workloads.rate import make_rate_traces


def _corpus_scenario_listing() -> str:
    """The corpus scenario names, for ``--help`` text.

    Falls back to a pointer at ``repro payload list`` if the corpus
    manifest is unreadable — a broken manifest must not take the whole
    CLI down with it.
    """
    try:
        from repro.payload import scenario_names

        return ", ".join(scenario_names())
    except Exception:
        return "see 'repro payload list'"


def _setup_from_args(args: argparse.Namespace) -> MitigationSetup:
    if args.mechanism == "none":
        return MitigationSetup("none")
    return MitigationSetup(
        mechanism=args.mechanism,
        threshold=args.threshold,
        tracker=args.tracker,
        policy=args.policy,
    )


def _runner_from_args(args: argparse.Namespace) -> ExperimentRunner:
    """Build the batch runner honouring ``--jobs`` (default: REPRO_JOBS)."""
    return ExperimentRunner(config=SystemConfig(), jobs=getattr(args, "jobs", None))


def _obs_config_from_args(args: argparse.Namespace):
    """An ObsConfig when ``--trace``/``--metrics-out`` ask for one."""
    trace = getattr(args, "trace", None)
    metrics_out = getattr(args, "metrics_out", None)
    if not trace and not metrics_out:
        return None
    from repro.obs import ObsConfig

    return ObsConfig(metrics=True, trace=bool(trace))


def _simulate_pair(workload: str, setup: MitigationSetup, args):
    runner = _runner_from_args(args)
    backend = getattr(args, "backend", "scalar")
    baseline, run = runner.run_many(
        [
            Job(workload, MitigationSetup("none"), "zen",
                args.requests, args.seed, backend=backend),
            Job(workload, setup, args.mapping, args.requests, args.seed,
                obs=_obs_config_from_args(args), backend=backend),
        ]
    )
    return runner, baseline, run


def _write_obs_outputs(args: argparse.Namespace, runner, baseline, run) -> None:
    """Handle ``--trace`` / ``--metrics-out`` for an observed run."""
    import json

    from repro.analysis.export import config_record, result_record

    if args.trace:
        with open(args.trace, "w") as handle:
            handle.write(run.obs.trace_jsonl or "")
        dropped = f" ({run.obs.trace_dropped} evicted)" if run.obs.trace_dropped else ""
        print(f"wrote {run.obs.trace_events - run.obs.trace_dropped} trace "
              f"events to {args.trace}{dropped}")
    if args.metrics_out:
        payload = {
            "record": result_record(
                run, args.workload, runner.config, baseline
            ),
            "metrics": run.obs.metrics,
            "profile": {
                "simulation": run.obs.profile,
                "runner": runner.profile_snapshot(),
            },
            "provenance": {
                "obs_schema": run.obs.schema,
                "config": config_record(runner.config),
            },
        }
        with open(args.metrics_out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote metrics to {args.metrics_out}")


def cmd_run(args: argparse.Namespace) -> int:
    """Simulate one workload and print the headline metrics."""
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    setup = _setup_from_args(args)
    runner, baseline, run = _simulate_pair(args.workload, setup, args)
    config = runner.config
    power = DramPowerModel(config).breakdown(run.stats)
    rows = [
        ["configuration", setup.describe() + f" on {args.mapping}"],
        ["slowdown vs Zen baseline", f"{run.slowdown_vs(baseline):.2%}"],
        ["ACT-PKI", f"{run.stats.act_pki:.1f}"],
        ["row-buffer hit rate", f"{run.stats.row_hit_rate:.1%}"],
        ["ALERTs per ACT", f"{run.stats.alerts_per_act:.3%}"],
        ["mitigations", run.stats.total_mitigations],
        ["RFM commands", run.stats.total_rfm_commands],
        ["DRAM power", f"{power.total_mw:.0f} mW"
         f" (mitigation {power.mitig_mw:.0f} mW)"],
    ]
    print(render_table(["metric", "value"], rows,
                       title=f"workload: {args.workload}"))
    if run.obs is not None:
        _write_obs_outputs(args, runner, baseline, run)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Print the RFM-vs-AutoRFM slowdown table across workloads."""
    names = args.workloads or list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"unknown workloads: {unknown}", file=sys.stderr)
        return 2
    setups = [
        ("RFM", MitigationSetup("rfm", threshold=args.threshold), "zen"),
        (
            "AutoRFM",
            MitigationSetup("autorfm", threshold=args.threshold,
                            policy=args.policy),
            "rubix",
        ),
    ]
    runner = _runner_from_args(args)
    matrix = runner.slowdown_matrix(
        names, setups, requests=args.requests, seed=args.seed,
        backend=getattr(args, "backend", "scalar"),
    )
    rows = [
        [name] + [f"{matrix[tag][name]:.1%}" for tag, _, _ in setups]
        for name in names
    ]
    headers = ["workload"] + [
        f"{tag}-{args.threshold}" for tag, _, _ in setups
    ]
    print(render_table(headers, rows, title="slowdown sweep"))
    return 0


def cmd_security(args: argparse.Namespace) -> int:
    """Print the analytical threshold models (optionally Monte Carlo)."""
    rows = [
        [
            w,
            mint_tolerated_trhd(w, recursive=True),
            mint_tolerated_trhd(w, recursive=False),
        ]
        for w in args.windows
    ]
    print(
        render_table(
            ["window", "TRH-D recursive", "TRH-D fractal"],
            rows,
            title="tolerated Rowhammer thresholds (Appendix A)",
        )
    )
    print(f"\nFractal Mitigation transitive-safety bound: TRH-D >= "
          f"{fm_safe_trhd()} (Appendix B)")
    if args.seeds:
        from repro.payload import PayloadError, parse_params
        from repro.security.thresholds import threshold_sweep

        acts = args.attack_acts or 20_000
        scenario = getattr(args, "scenario", None)
        try:
            scenario_params = parse_params(getattr(args, "param", None) or [])
            points = threshold_sweep(
                args.windows,
                seeds=args.seeds,
                acts=acts,
                tracker=args.tracker,
                policy=args.policy,
                backend=args.backend,
                scenario=scenario,
                scenario_params=scenario_params or None,
            )
        except PayloadError as exc:
            print(f"payload error: {exc}", file=sys.stderr)
            return 2
        sweep_rows = [
            [
                p.window,
                mint_tolerated_trhd(p.window, recursive=False),
                f"{p.max_pressure:.1f}",
                f"{p.mean_pressure:.1f}",
                p.mitigations,
            ]
            for p in points
        ]
        print()
        print(
            render_table(
                ["window", "analytic TRH-D", "worst pressure",
                 "mean pressure", "mitigations"],
                sweep_rows,
                title=(
                    f"empirical {scenario or '(ABCD)^K'} sweep: "
                    f"{args.tracker}/{args.policy}"
                    f", {args.seeds} seeds x {acts} ACTs"
                    f" [{args.backend}]"
                ),
            )
        )
    elif args.attack_acts:
        from repro.core.mitigation import FractalMitigation
        from repro.security.montecarlo import run_attack
        from repro.trackers.mint import MintTracker
        from repro.workloads.attacks import round_robin_attack

        window = args.windows[0]
        tracker = MintTracker(window=window, rng=np.random.default_rng(args.seed))
        policy = FractalMitigation(128 * 1024, np.random.default_rng(args.seed + 1))
        pattern = round_robin_attack(
            [10_000 + 10 * i for i in range(window)], args.attack_acts
        )
        result = run_attack(pattern, tracker, policy, window=window)
        print(
            f"\nMonte-Carlo (ABCD)^K attack, {args.attack_acts} ACTs: "
            f"max unmitigated pressure {result.max_pressure:.0f}, "
            f"{result.mitigations} mitigations"
        )
    return 0


def _campaign_jobs_from_args(args: argparse.Namespace) -> list:
    """The cell grid: every {tracker x policy x window x scenario}."""
    from repro.analysis.runner import CampaignJob
    from repro.payload import parse_params

    scenario_params = parse_params(getattr(args, "param", None) or [])
    jobs = []
    for tracker in args.trackers:
        for policy in args.policies:
            for window in args.windows:
                for scenario in (args.scenarios or [None]):
                    jobs.append(CampaignJob(
                        tracker=tracker,
                        policy=policy,
                        window=window,
                        acts=args.acts,
                        scenario=scenario,
                        scenario_params=(
                            tuple(sorted(scenario_params.items()))
                            if scenario and scenario_params else ()
                        ),
                        max_seeds=args.max_seeds,
                        alpha=args.alpha,
                        beta=args.beta,
                        p0=args.p0,
                        p1=args.p1,
                        backend=args.backend,
                    ))
    return jobs


def cmd_campaign(args: argparse.Namespace) -> int:
    """Run/report an adaptive threshold campaign, or show daemon status."""
    import json
    import time

    from repro.payload import PayloadError
    from repro.security.campaign import summarize_campaign

    if args.campaign_cmd == "status":
        from repro.svc import SweepClient

        try:
            with SweepClient(args.socket) as client:
                records = [
                    r for r in client.status() if r["kind"] == "campaign"
                ]
        except OSError:
            print("no daemon is listening; start one with `repro serve`",
                  file=sys.stderr)
            return 2
        rows = [
            [r["id"], r["state"], r["priority"], r["attempts"],
             "yes" if r["from_cache"] else "no", r["error"] or "-"]
            for r in records
        ]
        print(render_table(
            ["id", "state", "prio", "attempts", "cached", "error"],
            rows, title="campaign cells on the sweep service",
        ))
        return 0

    # run / report share one path: the content-addressed cache answers a
    # finished campaign instantly, so `report` is just a re-run that is
    # expected to hit (and resumes any cell a kill left mid-bisection).
    try:
        jobs = _campaign_jobs_from_args(args)
    except (PayloadError, ValueError) as exc:
        print(f"campaign error: {exc}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    from repro.svc import SweepClient, daemon_available

    if daemon_available(args.socket):
        with SweepClient(args.socket) as client:
            job_ids = client.submit(jobs, priority=args.priority)
            results = [
                client.result(job_id, wait=True)["result"]
                for job_id in job_ids
            ]
        mode = "daemon"
    else:
        runner = _runner_from_args(args)
        results = runner.run_campaign_many(jobs)
        mode = "in-process"
    elapsed = time.perf_counter() - start

    rows = []
    for job, record in zip(jobs, results):
        if job.tracker in ("mint", "mint-transitive"):
            analytic = mint_tolerated_trhd(
                job.window, recursive=(job.policy != "fractal")
            )
        else:
            analytic = "-"
        decided = sum(
            1 for p in record["probes"] if p["decided_by"] == "sprt"
        )
        rows.append([
            job.tracker,
            job.policy,
            job.window,
            job.scenario or "(ABCD)^K",
            record["tolerated_threshold"],
            analytic,
            len(record["probes"]),
            f"{decided}/{len(record['probes'])}",
            record["seeds_spent"],
            f"{record['seeds_saved_pct']:.1f}%",
        ])
    print(render_table(
        ["tracker", "policy", "W", "pattern", "empirical T",
         "analytic T", "probes", "sprt", "seeds", "saved"],
        rows,
        title=(
            f"threshold campaign [{mode}]: alpha={args.alpha} "
            f"beta={args.beta} p0={args.p0} p1={args.p1} "
            f"budget={args.max_seeds} seeds/probe"
        ),
    ))

    from repro.obs import MetricsRegistry

    registry = MetricsRegistry()
    summary = summarize_campaign(results, metrics=registry)
    print()
    for name, value in sorted(registry.snapshot()["counters"].items()):
        print(f"  {name}: {value}")
    print(f"  campaign.cells_per_second: "
          f"{summary['cells'] / elapsed:.2f} (wall, this invocation)")

    if args.json:
        with open(args.json, "w") as handle:
            json.dump(
                {"cells": results, "summary": summary},
                handle, indent=2, sort_keys=True,
            )
            handle.write("\n")
        print(f"\nwrote {args.json}")
    return 0


def cmd_audit(args: argparse.Namespace) -> int:
    """Run a deliberate hammer through the full simulator and audit it."""
    from repro.cpu.system import build_mapping
    from repro.security.audit import audit_hammer_pressure
    from repro.security.mint_model import mint_tolerated_trhd
    from repro.sim.cmdlog import CommandLog
    from repro.workloads.adversarial import hammer_trace

    config = SystemConfig()
    mapping = build_mapping(args.mapping, config, seed=args.seed)
    attacker = hammer_trace(
        mapping,
        [args.row, args.row + 2],
        num_requests=args.acts,
        gap=700,
    )
    victims = make_rate_traces(WORKLOADS["xz"], config, 1000, seed=args.seed)
    setup = _setup_from_args(args)
    log = CommandLog()
    simulate(
        [attacker] + victims[1:], setup, config, args.mapping,
        seed=args.seed, command_log=log,
    )
    audit = audit_hammer_pressure(log, config)
    timing_violations = log.verify(config)
    rows = [
        ["configuration", setup.describe()],
        ["attack", f"double-sided on rows {args.row}/{args.row + 2}, "
                   f"{args.acts} requests"],
        ["worst row pressure", f"{audit.max_pressure:.0f}"],
        ["victim refreshes", audit.victim_refreshes],
        ["timing violations", len(timing_violations)],
        ["MINT-4+FM operating point", mint_tolerated_trhd(4)],
    ]
    print(render_table(["metric", "value"], rows, title="hammer audit"))
    return 0 if not timing_violations else 1


def cmd_tradeoffs(args: argparse.Namespace) -> int:
    """Print the tracker storage-vs-threshold design space."""
    from repro.analysis.tradeoffs import tracker_tradeoffs

    points = tracker_tradeoffs(window=args.window)
    rows = [
        [p.name, f"{p.storage_bytes_per_bank:,.1f} B", p.tolerated_trhd,
         "deterministic" if p.deterministic else "probabilistic"]
        for p in sorted(points, key=lambda p: p.storage_bits_per_bank)
    ]
    print(
        render_table(
            ["tracker", "SRAM/bank", f"TRH-D @ window {args.window}", "kind"],
            rows,
            title="tracker design space",
        )
    )
    return 0


def cmd_workloads(_args: argparse.Namespace) -> int:
    """Print the Table V workload catalog."""
    rows = [
        [w.suite, w.name, w.paper_act_pki, w.paper_act_per_trefi, w.pattern]
        for w in WORKLOADS.values()
    ]
    print(
        render_table(
            ["suite", "workload", "ACT-PKI (paper)", "ACT/tREFI (paper)",
             "pattern"],
            rows,
            title="Table V workload catalog",
        )
    )
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    """Run the bench(es) regenerating a paper experiment by id."""
    import os
    import subprocess

    bench_dir = os.path.join(
        os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        "benchmarks",
    )
    if not os.path.isdir(bench_dir):
        print(
            "benchmarks/ not found next to the package; run from a source "
            "checkout",
            file=sys.stderr,
        )
        return 2
    available = sorted(
        f[len("bench_"):-len(".py")]
        for f in os.listdir(bench_dir)
        if f.startswith("bench_") and f.endswith(".py")
    )
    if args.experiment == "list" or args.experiment is None:
        print("available experiments:")
        for name in available:
            print(f"  {name}")
        return 0
    matches = [n for n in available if args.experiment in n]
    if not matches:
        print(f"no experiment matches {args.experiment!r}", file=sys.stderr)
        return 2
    files = [os.path.join(bench_dir, f"bench_{n}.py") for n in matches]
    command = [sys.executable, "-m", "pytest", *files, "--benchmark-only"]
    print("running:", " ".join(command))
    return subprocess.call(command)


def cmd_storage(_args: argparse.Namespace) -> int:
    """Print the Section VI-C storage overheads."""
    overheads = storage_overheads(SystemConfig())
    rows = [
        ["MC busy table", f"{overheads.mc_bytes_total} B"],
        ["DRAM SAUM register / bank", f"{overheads.dram_saum_bits_per_bank} bits"],
        ["DRAM tracker / bank", f"{overheads.dram_tracker_bits_per_bank} bits"],
        ["DRAM total / bank", f"{overheads.dram_bytes_per_bank:.3f} B"],
    ]
    print(render_table(["state", "size"], rows,
                       title="AutoRFM storage overheads (Section VI-C)"))
    return 0


def cmd_payload(args: argparse.Namespace) -> int:
    """Inspect, compile, replay, and verify the attack-payload corpus."""
    from repro.payload import (
        PayloadError,
        compile_scenario,
        load_scenario,
        normalize,
        parse_params,
        scenario_names,
        scenario_source,
        verify_corpus,
    )

    try:
        if args.payload_cmd == "list":
            rows = []
            for name in scenario_names():
                s = load_scenario(name)
                params = ", ".join(f"{k}={v}" for k, v in s.params) or "-"
                rows.append(
                    [name, s.version, s.default_acts, params, s.description]
                )
            print(render_table(
                ["scenario", "version", "acts", "params", "description"],
                rows, title="attack-payload corpus",
            ))
            return 0

        if args.payload_cmd == "show":
            s = load_scenario(args.name)
            source = scenario_source(args.name)
            print(f"# {s.name} v{s.version} — {s.description}")
            print(f"# provenance: {s.provenance}")
            print(f"# default_acts: {s.default_acts}")
            print()
            print(normalize(source) if args.normalize else source, end="")
            return 0

        if args.payload_cmd == "compile":
            compiled = compile_scenario(
                args.name, params=parse_params(args.param or []),
                acts=args.acts,
            )
            ops = ", ".join(
                f"{op}={n}" for op, n in sorted(compiled.op_counts().items())
            )
            print(f"{compiled.name}: {compiled.acts} activations ({ops})")
            print(f"rows_sha256: {compiled.rows_digest()}")
            if args.rows:
                print(" ".join(str(r) for r in compiled.rows))
            else:
                head = " ".join(str(r) for r in compiled.rows[:16])
                more = len(compiled.rows) - 16
                print(f"rows: {head}" + (f" … (+{more})" if more > 0 else ""))
            return 0

        if args.payload_cmd == "run":
            from repro.analysis.runner import ExperimentRunner, SecurityJob

            scenario = load_scenario(args.name)
            acts = args.acts if args.acts is not None else scenario.default_acts
            job = SecurityJob(
                acts=acts,
                window=args.window,
                tracker=args.tracker,
                policy=args.policy,
                seeds=args.seeds,
                scenario=args.name,
                scenario_params=tuple(
                    sorted(parse_params(args.param or []).items())
                ),
                backend=args.backend,
            )
            results = ExperimentRunner().run_security(job)
            pressures = [r.max_pressure for r in results]
            print(
                f"{args.name} v{scenario.version}: {args.seeds} seeds x "
                f"{acts} ACTs vs {args.tracker}/{args.policy} "
                f"(window {args.window}) [{args.backend}]"
            )
            print(
                f"worst pressure {max(pressures):.1f}, mean "
                f"{sum(pressures) / len(pressures):.1f}, "
                f"{sum(r.mitigations for r in results)} mitigations"
            )
            return 0

        # verify (optionally --update to re-pin the manifest digests)
        if args.update:
            from repro.payload.corpus import pin_manifest

            doc = pin_manifest()
            print(f"re-pinned {len(doc.get('scenarios', {}))} scenario "
                  "digest(s) in corpus.json")
            return 0
        problems = verify_corpus()
        if problems:
            for problem in problems:
                print(f"corpus: {problem}", file=sys.stderr)
            return 1
        print(f"corpus OK: {len(scenario_names())} scenario(s) verified")
        return 0
    except PayloadError as exc:
        print(f"payload error: {exc}", file=sys.stderr)
        return 2


def _git_changed_files(scope):
    """Modified/untracked ``.py`` files under ``scope`` paths, per git.

    Returns None when git is unavailable or this is not a checkout (the
    caller falls back to a full run). Both unstaged+staged changes against
    HEAD and untracked files count: --changed is a pre-commit convenience,
    and anything not yet committed is exactly what it should look at.
    """
    import subprocess

    files = []
    for cmd in (
        ["git", "diff", "--name-only", "HEAD", "--"],
        ["git", "ls-files", "--others", "--exclude-standard"],
    ):
        try:
            proc = subprocess.run(
                cmd, capture_output=True, text=True, check=True
            )
        except (OSError, subprocess.CalledProcessError):
            return None
        files.extend(line.strip() for line in proc.stdout.splitlines())
    roots = [os.path.normpath(p) for p in scope]
    out = []
    for name in files:
        if not name.endswith(".py") or not os.path.exists(name):
            continue
        norm = os.path.normpath(name)
        if any(
            norm == root or norm.startswith(root + os.sep) for root in roots
        ):
            out.append(name)
    return sorted(dict.fromkeys(out))


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the determinism/contract static-analysis suite."""
    from repro.lint import (
        ALL_PASSES,
        Baseline,
        BaselineError,
        load_baseline,
        render,
        run_lint,
        selected_rules,
    )

    if args.list_rules:
        for lint_pass in ALL_PASSES:
            for rule in lint_pass.rules:
                print(f"{rule.rule_id}  {rule.name:<22} {rule.summary}")
        return 0
    unknown = [
        token for token in args.rule or () if not selected_rules(None, [token])
    ]
    if unknown:
        print(f"lint: unknown rule(s) {', '.join(unknown)}; "
              "see `repro lint --list-rules`", file=sys.stderr)
        return 2
    if args.changed:
        scope = args.paths or ["src/repro"]
        paths = _git_changed_files(scope)
        if paths is None:
            print("lint --changed: not a git checkout (or git missing); "
                  "falling back to a full run", file=sys.stderr)
            paths = scope
        elif not paths:
            print("lint --changed: no modified .py files in scope; "
                  "nothing to do")
            return 0
    else:
        paths = args.paths or ["src/repro"]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        print(f"no such path(s): {missing}", file=sys.stderr)
        return 2
    try:
        baseline = load_baseline(args.baseline)
    except BaselineError as exc:
        print(f"baseline error: {exc}", file=sys.stderr)
        return 2
    result = run_lint(
        paths,
        baseline=baseline,
        rule_filter=args.rule or None,
        # The whole-program passes need the full tree to build a faithful
        # call graph; over a git-diff slice they would see a fragment and
        # either miss or invent findings, so --changed skips them (the
        # fast pre-commit mode; CI runs the full interprocedural set).
        project=not args.changed,
    )
    if args.update_baseline:
        keep = [f for f in result.findings if f.status != "suppressed"]
        updated = Baseline.from_findings(keep, previous=baseline)
        if baseline is not None:
            # A --rule, path-subset or --changed run rewrites only what it
            # checked; every other entry stays as it is.
            updated.entries.extend(baseline.unchecked(
                result.checked_paths, result.checked_rules
            ))
        updated.save(args.baseline)
        print(f"wrote {args.baseline} ({len(keep)} suppressed finding(s)); "
              "fill in every TODO justification before committing")
        return 0
    print(render(result, args.format, verbose=args.verbose))
    return 0 if result.ok else 1


def cmd_checkpoint(args: argparse.Namespace) -> int:
    """Simulate one workload with periodic checkpoints into a directory."""
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    from repro.workloads.rate import make_rate_traces as _make_traces

    config = SystemConfig()
    setup = _setup_from_args(args)
    traces = _make_traces(
        WORKLOADS[args.workload], config, requests=args.requests,
        seed=args.seed,
    )
    result = simulate(
        traces, setup, config, mapping=args.mapping, seed=args.seed,
        checkpoint_every=args.every, checkpoint_dir=args.dir,
    )
    from repro.analysis.storage import load_checkpoint_manifest

    manifest = load_checkpoint_manifest(args.dir)
    rows = [
        ["cycles", result.stats.cycles],
        ["checkpoints written", len(manifest["entries"])],
        ["directory", args.dir],
    ]
    for entry in manifest["entries"]:
        rows.append([f"  {entry['file']}",
                     f"cycle {entry['cycle']} ({entry['bytes']} B)"])
    print(render_table(["checkpoint run", "value"], rows,
                       title=f"workload: {args.workload}"))
    return 0


def cmd_resume(args: argparse.Namespace) -> int:
    """Restore the newest snapshot in a directory and run to completion."""
    from repro.ckpt import load_latest

    snapshot = load_latest(args.dir)
    if snapshot is None:
        print(f"no valid snapshot found in {args.dir}", file=sys.stderr)
        return 2
    from repro.ckpt import restore

    system = restore(snapshot)
    result = system.run()
    rows = [
        ["resumed from cycle", snapshot.cycle],
        ["final cycles", result.stats.cycles],
        ["mitigations", result.stats.total_mitigations],
        ["RFM commands", result.stats.total_rfm_commands],
        ["seed", result.seed],
        ["mapping", result.mapping],
    ]
    print(render_table(["resume", "value"], rows,
                       title=f"checkpoint: {args.dir}"))
    return 0


def _svc_job_from_args(args: argparse.Namespace, workload: str) -> Job:
    """The simulation job a ``submit`` invocation describes."""
    return Job(
        workload,
        _setup_from_args(args),
        args.mapping,
        args.requests,
        args.seed,
        segment_cycles=getattr(args, "segment_cycles", None),
        backend=getattr(args, "backend", "scalar"),
    )


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the sweep-service daemon in the foreground."""
    from repro.svc import SweepService

    service = SweepService(
        args.socket,
        workers=args.workers,
        requests=args.requests,
        cache_dir=args.cache_dir,
        cache_max_mb=args.cache_max_mb,
    )
    print(f"repro.svc listening on {service.socket_path} "
          f"({args.workers} worker(s)); Ctrl-C to stop")
    try:
        service.run()
    except KeyboardInterrupt:
        pass
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit jobs to the daemon (in-process fallback without one)."""
    from repro.analysis.runner import result_to_dict
    from repro.svc import SweepClient, daemon_available

    names = args.workloads or ["bwaves"]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"unknown workloads: {unknown}", file=sys.stderr)
        return 2
    jobs = [_svc_job_from_args(args, name) for name in names]

    if daemon_available(args.socket):
        with SweepClient(args.socket) as client:
            job_ids = client.submit(jobs, priority=args.priority)
            for name, job_id in zip(names, job_ids):
                print(f"submitted {job_id}  {name}")
            if not args.wait:
                return 0
            for name, job_id in zip(names, job_ids):
                response = client.result(job_id, wait=True)
                tag = "cache hit" if response["from_cache"] else "executed"
                print(f"{job_id} {name} ({tag}): "
                      f"{Job.summary(response['result'])}")
        return 0

    print("no daemon on the socket; executing in-process", file=sys.stderr)
    runner = _runner_from_args(args)
    results = runner.run_many(jobs)
    for name, result in zip(names, results):
        print(f"{name} (in-process): {Job.summary(result_to_dict(result))}")
    return 0


def cmd_status(args: argparse.Namespace) -> int:
    """Show the daemon's job table (or one job)."""
    from repro.svc import SweepClient

    try:
        with SweepClient(args.socket) as client:
            records = client.status(args.id)
    except OSError:
        print("no daemon is listening; start one with `repro serve`",
              file=sys.stderr)
        return 2
    rows = [
        [r["id"], r["kind"], r["state"], r["priority"], r["attempts"],
         "yes" if r["from_cache"] else "no", r["error"] or "-"]
        for r in records
    ]
    print(render_table(
        ["id", "kind", "state", "prio", "attempts", "cached", "error"],
        rows, title="sweep-service jobs",
    ))
    return 0


def cmd_result(args: argparse.Namespace) -> int:
    """Fetch one job's result from the daemon."""
    import json

    from repro.svc import ServiceError, SweepClient

    try:
        with SweepClient(args.socket) as client:
            response = client.result(
                args.id, wait=args.wait, timeout=args.timeout
            )
    except OSError:
        print("no daemon is listening; start one with `repro serve`",
              file=sys.stderr)
        return 2
    except ServiceError as exc:
        print(f"service error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(response["result"], indent=2, sort_keys=True))
        return 0
    summary = JobSpec.kinds[response["kind"]].summary(response["result"])
    tag = "cache hit" if response["from_cache"] else "executed"
    print(f"{args.id} ({tag}): {summary}")
    return 0


def cmd_cancel(args: argparse.Namespace) -> int:
    """Cancel a queued or running job on the daemon."""
    from repro.svc import ServiceError, SweepClient

    try:
        with SweepClient(args.socket) as client:
            state = client.cancel(args.id)
    except OSError:
        print("no daemon is listening; start one with `repro serve`",
              file=sys.stderr)
        return 2
    except ServiceError as exc:
        print(f"service error: {exc}", file=sys.stderr)
        return 1
    print(f"{args.id}: {state}")
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    """Inspect or prune the persistent result cache."""
    from repro.analysis.runner import (
        ResultCache,
        cache_size_limit_bytes,
        default_cache_dir,
    )

    if getattr(args, "daemon", False):
        from repro.svc import SweepClient

        try:
            with SweepClient(args.socket) as client:
                payload = client.cache_stats()
        except OSError:
            print("no daemon is listening; start one with `repro serve`",
                  file=sys.stderr)
            return 2
        stats = payload["cache"]
        rows = [
            ["directory", stats["directory"]],
            ["results", stats["results"]],
            ["total KiB", f"{stats['total_bytes'] / 1024:.1f}"],
            ["queue depth", payload["queue_depth"]],
            ["workers busy", f"{payload['workers']['busy']}"
                             f"/{payload['workers']['total']}"],
        ]
        metrics = payload["metrics"]
        for name, value in sorted(metrics.get("counters", {}).items()):
            rows.append([name, value])
        for name, value in sorted(metrics.get("gauges", {}).items()):
            rows.append([name, value])
        print(render_table(["cache (daemon)", "value"], rows,
                           title="sweep-service cache"))
        return 0

    cache = ResultCache(args.dir or default_cache_dir())
    if args.prune:
        if args.max_mb is not None:
            limit = int(args.max_mb * 1024 * 1024)
        else:
            limit = cache_size_limit_bytes()
        if limit is None:
            print("no limit given: pass --max-mb or set REPRO_CACHE_MAX_MB",
                  file=sys.stderr)
            return 2
        outcome = cache.prune(limit)
        print(f"pruned {outcome['removed']} files "
              f"({outcome['freed_bytes'] / 1024:.1f} KiB freed)")
    stats = cache.stats()
    rows = [
        ["directory", stats["directory"]],
        ["results", f"{stats['results']} "
                    f"({stats['result_bytes'] / 1024:.1f} KiB)"],
        ["segment snapshots", f"{stats['snapshots']} "
                              f"({stats['snapshot_bytes'] / 1024:.1f} KiB)"],
        ["total", f"{stats['total_bytes'] / 1024:.1f} KiB"],
    ]
    print(render_table(["cache", "value"], rows, title="result cache"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro", description="AutoRFM reproduction toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="simulate one workload")
    run.add_argument("--workload", default="bwaves")
    run.add_argument("--mechanism", choices=MECHANISMS, default="autorfm")
    run.add_argument("--threshold", type=int, default=4)
    run.add_argument("--tracker", choices=TRACKERS, default="mint")
    run.add_argument("--policy", choices=POLICIES, default="fractal")
    run.add_argument("--mapping", choices=("zen", "rubix"), default="rubix")
    run.add_argument("--requests", type=int, default=2500)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: REPRO_JOBS or all cores; 1 = serial)",
    )
    run.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a cycle-stamped JSONL event timeline (ACT/ALERT/SAUM/"
             "RFM/REF) of the mitigated run to PATH",
    )
    run.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write the observability metrics snapshot, profiling data, and "
             "flattened result record as JSON to PATH",
    )
    run.add_argument(
        "--backend", choices=("scalar", "batch"), default="scalar",
        help="timing backend: the scalar event loop or the fused batch "
             "kernel (bit-identical results; ineligible runs fall back to "
             "scalar automatically)",
    )
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="RFM vs AutoRFM across workloads")
    sweep.add_argument("--workloads", nargs="*", default=None)
    sweep.add_argument("--threshold", type=int, default=4)
    sweep.add_argument("--policy", choices=POLICIES, default="fractal")
    sweep.add_argument("--requests", type=int, default=2500)
    sweep.add_argument("--seed", type=int, default=1)
    sweep.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes (default: REPRO_JOBS or all cores; 1 = serial)",
    )
    sweep.add_argument(
        "--backend", choices=("scalar", "batch"), default="scalar",
        help="timing backend: the scalar event loop or the fused batch "
             "kernel (bit-identical results; ineligible runs fall back to "
             "scalar automatically)",
    )
    sweep.set_defaults(func=cmd_sweep)

    security = sub.add_parser("security", help="analytical threshold models")
    security.add_argument("--windows", type=int, nargs="*",
                          default=[4, 8, 16, 32])
    security.add_argument("--attack-acts", type=int, default=0)
    security.add_argument("--seed", type=int, default=1)
    security.add_argument(
        "--seeds", type=int, default=0,
        help="run the batched Monte-Carlo sweep across this many seeds",
    )
    security.add_argument(
        "--tracker", default="mint",
        choices=["mint", "mint-transitive", "graphene", "para"],
    )
    security.add_argument(
        "--policy", default="fractal", choices=["fractal", "blast"],
    )
    security.add_argument(
        "--backend", default="numpy", choices=["numpy", "scalar"],
    )
    security.add_argument(
        "--scenario", default=None, metavar="NAME",
        help="replay a corpus payload instead of the (ABCD)^K generator"
             f" (one of: {_corpus_scenario_listing()})",
    )
    security.add_argument(
        "--param", action="append", metavar="NAME=VALUE",
        help="scenario placeholder override (repeatable)",
    )
    security.set_defaults(func=cmd_security)

    campaign = sub.add_parser(
        "campaign",
        help="adaptive empirical threshold search (SPRT + bisection)",
    )
    campaign_sub = campaign.add_subparsers(dest="campaign_cmd", required=True)
    c_run = campaign_sub.add_parser(
        "run",
        help="search every {tracker x policy x window x scenario} cell",
    )
    c_report = campaign_sub.add_parser(
        "report",
        help="re-print a finished campaign's cross-check table (answers "
             "from the result cache; resumes any cell a kill interrupted)",
    )
    for c_parser in (c_run, c_report):
        c_parser.add_argument(
            "--trackers", nargs="*",
            default=["mint"],
            choices=["mint", "mint-transitive", "graphene", "para"],
        )
        c_parser.add_argument(
            "--policies", nargs="*", default=["fractal"],
            choices=["fractal", "blast"],
        )
        c_parser.add_argument("--windows", type=int, nargs="*", default=[4])
        c_parser.add_argument(
            "--scenarios", nargs="*", default=None, metavar="NAME",
            help="corpus payloads to probe (default: the window-optimal "
                 f"(ABCD)^K generator; available: {_corpus_scenario_listing()})",
        )
        c_parser.add_argument(
            "--param", action="append", metavar="NAME=VALUE",
            help="scenario placeholder override (repeatable, applies to "
                 "every scenario cell)",
        )
        c_parser.add_argument("--acts", type=int, default=6_000)
        c_parser.add_argument(
            "--max-seeds", type=int, default=400,
            help="per-probe seed budget (the fixed-sweep cost one probe "
                 "would pay; the SPRT usually stops far earlier)",
        )
        c_parser.add_argument(
            "--alpha", type=float, default=1e-3,
            help="bound on calling a safe threshold unsafe",
        )
        c_parser.add_argument(
            "--beta", type=float, default=1e-3,
            help="bound on calling an unsafe threshold safe",
        )
        c_parser.add_argument(
            "--p0", type=float, default=0.01,
            help="exceedance probability read as safe",
        )
        c_parser.add_argument(
            "--p1", type=float, default=0.10,
            help="exceedance probability read as unsafe",
        )
        c_parser.add_argument(
            "--backend", default="numpy", choices=["numpy", "scalar"],
        )
        c_parser.add_argument(
            "--priority", type=int, default=0,
            help="daemon queue priority (higher dispatches first)",
        )
        c_parser.add_argument(
            "--socket", default=None,
            help="daemon socket (default: REPRO_SVC_SOCKET); without a "
                 "live daemon the cells execute in-process",
        )
        c_parser.add_argument(
            "--jobs", type=int, default=None,
            help="worker processes for the in-process path",
        )
        c_parser.add_argument(
            "--json", metavar="PATH", default=None,
            help="also write the full per-cell records as JSON to PATH",
        )
    c_status = campaign_sub.add_parser(
        "status", help="list campaign cells on the sweep service"
    )
    c_status.add_argument("--socket", default=None)
    for c_parser in (c_run, c_report, c_status):
        c_parser.set_defaults(func=cmd_campaign)

    audit = sub.add_parser(
        "audit", help="hammer the simulator and audit row pressure"
    )
    audit.add_argument("--mechanism", choices=MECHANISMS, default="autorfm")
    audit.add_argument("--threshold", type=int, default=4)
    audit.add_argument("--tracker", choices=TRACKERS, default="mint")
    audit.add_argument("--policy", choices=POLICIES, default="fractal")
    audit.add_argument("--mapping", choices=("zen", "rubix"), default="rubix")
    audit.add_argument("--row", type=int, default=70_000)
    audit.add_argument("--acts", type=int, default=4000)
    audit.add_argument("--seed", type=int, default=1)
    audit.set_defaults(func=cmd_audit)

    tradeoffs = sub.add_parser(
        "tradeoffs", help="tracker storage-vs-threshold design space"
    )
    tradeoffs.add_argument("--window", type=int, default=4)
    tradeoffs.set_defaults(func=cmd_tradeoffs)

    workloads = sub.add_parser("workloads", help="list the Table V catalog")
    workloads.set_defaults(func=cmd_workloads)

    storage = sub.add_parser("storage", help="Section VI-C storage overheads")
    storage.set_defaults(func=cmd_storage)

    payload = sub.add_parser(
        "payload", help="the attack-payload DSL corpus (list/show/compile/run/verify)"
    )
    payload_sub = payload.add_subparsers(dest="payload_cmd", required=True)

    p_list = payload_sub.add_parser("list", help="list corpus scenarios")

    p_show = payload_sub.add_parser("show", help="print a scenario's source")
    p_show.add_argument("name")
    p_show.add_argument(
        "--normalize", action="store_true",
        help="print the canonical formatting (format∘parse) instead of "
             "the file bytes",
    )

    p_compile = payload_sub.add_parser(
        "compile", help="compile a scenario and print its shape"
    )
    p_compile.add_argument("name")
    p_compile.add_argument(
        "--param", action="append", metavar="NAME=VALUE",
        help="placeholder override (repeatable)",
    )
    p_compile.add_argument(
        "--acts", type=int, default=None,
        help="activation budget (default: the manifest's default_acts)",
    )
    p_compile.add_argument(
        "--rows", action="store_true",
        help="dump the full compiled row sequence",
    )

    p_run = payload_sub.add_parser(
        "run", help="replay a scenario through the Monte-Carlo engine"
    )
    p_run.add_argument("name")
    p_run.add_argument(
        "--param", action="append", metavar="NAME=VALUE",
        help="placeholder override (repeatable)",
    )
    p_run.add_argument("--acts", type=int, default=None)
    p_run.add_argument("--window", type=int, default=4)
    p_run.add_argument(
        "--tracker", default="mint",
        choices=["mint", "mint-transitive", "graphene", "para"],
    )
    p_run.add_argument(
        "--policy", default="fractal", choices=["fractal", "blast"],
    )
    p_run.add_argument("--seeds", type=int, default=50)
    p_run.add_argument(
        "--backend", default="numpy", choices=["numpy", "scalar"],
    )

    p_verify = payload_sub.add_parser(
        "verify", help="check every manifest digest against the corpus"
    )
    p_verify.add_argument(
        "--update", action="store_true",
        help="re-pin the manifest digests (maintainer action: review the "
             "diff and bump versions before committing)",
    )

    for sub_parser in (p_list, p_show, p_compile, p_run, p_verify):
        sub_parser.set_defaults(func=cmd_payload)

    reproduce = sub.add_parser(
        "reproduce", help="run the bench for a paper experiment (or 'list')"
    )
    reproduce.add_argument("experiment", nargs="?", default="list")
    reproduce.set_defaults(func=cmd_reproduce)

    lint = sub.add_parser(
        "lint", help="determinism & contract static analysis"
    )
    lint.add_argument(
        "paths", nargs="*", default=None,
        help="files/directories to lint (default: src/repro)",
    )
    lint.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="report format (default: text)",
    )
    lint.add_argument(
        "--baseline", default="lint-baseline.json",
        help="suppression baseline file (default: lint-baseline.json; "
             "a missing file just means no baseline)",
    )
    lint.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline to cover every current finding "
             "(preserving existing justifications), then exit 0",
    )
    lint.add_argument(
        "--rule", action="append", metavar="RULE",
        help="only report this rule (id or name; repeatable)",
    )
    lint.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    lint.add_argument(
        "--verbose", action="store_true",
        help="also show pragma-suppressed findings and justifications",
    )
    lint.add_argument(
        "--changed", action="store_true",
        help="lint only git-modified/untracked .py files in scope and "
             "skip the whole-program passes (fast pre-commit mode; CI "
             "always runs the full tree)",
    )
    lint.set_defaults(func=cmd_lint)

    checkpoint = sub.add_parser(
        "checkpoint", help="simulate with periodic snapshots to a directory"
    )
    checkpoint.add_argument("--workload", default="bwaves")
    checkpoint.add_argument("--mechanism", choices=MECHANISMS, default="autorfm")
    checkpoint.add_argument("--threshold", type=int, default=4)
    checkpoint.add_argument("--tracker", choices=TRACKERS, default="mint")
    checkpoint.add_argument("--policy", choices=POLICIES, default="fractal")
    checkpoint.add_argument("--mapping", choices=("zen", "rubix"),
                            default="rubix")
    checkpoint.add_argument("--requests", type=int, default=2500)
    checkpoint.add_argument("--seed", type=int, default=1)
    checkpoint.add_argument(
        "--every", type=int, default=100_000,
        help="cycles between snapshots (default 100000)",
    )
    checkpoint.add_argument(
        "--dir", required=True,
        help="directory for snapshots and their manifest",
    )
    checkpoint.set_defaults(func=cmd_checkpoint)

    resume = sub.add_parser(
        "resume", help="restore the newest snapshot and run to completion"
    )
    resume.add_argument(
        "--dir", required=True, help="checkpoint directory to resume from"
    )
    resume.set_defaults(func=cmd_resume)

    cache = sub.add_parser(
        "cache", help="inspect or prune the persistent result cache"
    )
    cache.add_argument(
        "--dir", default=None,
        help="cache directory (default: REPRO_CACHE_DIR or the repo cache)",
    )
    cache.add_argument(
        "--stats", action="store_true",
        help="print occupancy (the default action)",
    )
    cache.add_argument(
        "--prune", action="store_true",
        help="evict least-recently-used entries down to the size budget",
    )
    cache.add_argument(
        "--max-mb", type=float, default=None,
        help="size budget in MiB for --prune (default: REPRO_CACHE_MAX_MB)",
    )
    cache.add_argument(
        "--daemon", action="store_true",
        help="query a running sweep-service daemon instead of reading the "
             "cache directory (adds service metrics and queue state)",
    )
    cache.add_argument(
        "--socket", default=None,
        help="daemon socket for --daemon (default: REPRO_SVC_SOCKET)",
    )
    cache.set_defaults(func=cmd_cache)

    serve = sub.add_parser(
        "serve", help="run the sweep-service daemon on a Unix socket"
    )
    serve.add_argument(
        "--socket", default=None,
        help="Unix socket path (default: REPRO_SVC_SOCKET or a per-user "
             "/tmp path)",
    )
    serve.add_argument(
        "--workers", type=int, default=2,
        help="concurrent worker processes (default 2)",
    )
    serve.add_argument(
        "--requests", type=int, default=None,
        help="default request slice for jobs that leave it unset",
    )
    serve.add_argument(
        "--cache-dir", default=None,
        help="shared result-cache directory (default: REPRO_CACHE_DIR)",
    )
    serve.add_argument(
        "--cache-max-mb", type=float, default=None,
        help="prune the shared cache to this budget after completions "
             "(default: REPRO_CACHE_MAX_MB)",
    )
    serve.set_defaults(func=cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit simulation jobs to the sweep service"
    )
    submit.add_argument("--workloads", nargs="*", default=None)
    submit.add_argument("--mechanism", choices=MECHANISMS, default="autorfm")
    submit.add_argument("--threshold", type=int, default=4)
    submit.add_argument("--tracker", choices=TRACKERS, default="mint")
    submit.add_argument("--policy", choices=POLICIES, default="fractal")
    submit.add_argument("--mapping", choices=("zen", "rubix"),
                        default="rubix")
    submit.add_argument("--requests", type=int, default=2500)
    submit.add_argument("--seed", type=int, default=1)
    submit.add_argument(
        "--segment-cycles", type=int, default=None,
        help="snapshot segment length in cycles (enables crash resume)",
    )
    submit.add_argument(
        "--backend", choices=("scalar", "batch"), default="scalar",
    )
    submit.add_argument(
        "--priority", type=int, default=0,
        help="queue priority (higher dispatches first; FIFO within a "
             "priority)",
    )
    submit.add_argument(
        "--wait", action="store_true",
        help="block until every submitted job finishes and print results",
    )
    submit.add_argument(
        "--socket", default=None,
        help="daemon socket (default: REPRO_SVC_SOCKET); without a live "
             "daemon the jobs execute in-process",
    )
    submit.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for the in-process fallback",
    )
    submit.set_defaults(func=cmd_submit)

    status = sub.add_parser(
        "status", help="list the sweep service's jobs"
    )
    status.add_argument("id", nargs="?", default=None,
                        help="one job id (default: all jobs)")
    status.add_argument("--socket", default=None)
    status.set_defaults(func=cmd_status)

    result = sub.add_parser(
        "result", help="fetch one job's result from the sweep service"
    )
    result.add_argument("id")
    result.add_argument(
        "--wait", action="store_true",
        help="block until the job finishes",
    )
    result.add_argument(
        "--timeout", type=float, default=None,
        help="give up after this many seconds of --wait",
    )
    result.add_argument(
        "--json", action="store_true",
        help="print the raw result payload as JSON",
    )
    result.add_argument("--socket", default=None)
    result.set_defaults(func=cmd_result)

    cancel = sub.add_parser(
        "cancel", help="cancel a queued or running sweep-service job"
    )
    cancel.add_argument("id")
    cancel.add_argument("--socket", default=None)
    cancel.set_defaults(func=cmd_cancel)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
