"""Correctness checks on the benchmark's outputs.

Every check compares a program output with a property of the model or an
independent computation (the traces themselves, the other backend, the
fixed-seed oracle, an in-process run), never with a stored copy. Each
returns a list of error strings; an empty list means the check passed.
``test_checks.py`` feeds every check a corrupted output and requires it
to fail.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Mapping, Sequence

#: Bank counters the observability registry mirrors per bank.
OBS_BANK_COUNTERS = {
    "mc.act": "activations",
    "mc.alert": "alerts",
    "mc.rfm": "rfm_commands",
    "mc.ref": "refreshes",
}

#: Totals the registry keeps for the mitigation layer.
OBS_TOTAL_COUNTERS = {
    "core.mitigations": "mitigations",
    "core.victim_refreshes": "victim_refreshes",
}


# ----------------------------------------------------------------------
# timing-sweep
# ----------------------------------------------------------------------
def check_conservation(label: str, stats, traces) -> List[str]:
    """Every request of every trace completes exactly once."""
    errors = []
    lengths = [len(t) for t in traces]
    for core, (cs, n) in enumerate(zip(stats.cores, lengths)):
        if cs.memory_requests != n:
            errors.append(
                f"{label}: core {core} completed {cs.memory_requests} "
                f"requests, its trace has {n}"
            )
    total = sum(lengths)
    accesses = stats.total_activations + stats.total_row_hits
    served = sum(b.reads + b.writes for b in stats.banks)
    if not accesses == served == total:
        errors.append(
            f"{label}: ACTs+row hits={accesses}, reads+writes={served}, "
            f"trace requests={total}"
        )
    writes = sum(sum(t.writes) for t in traces)
    if sum(b.writes for b in stats.banks) != writes:
        errors.append(f"{label}: bank writes differ from the {writes} "
                      f"trace writes")
    instructions = sum(t.total_instructions for t in traces)
    if stats.total_instructions != instructions:
        errors.append(
            f"{label}: retired {stats.total_instructions} instructions, "
            f"traces hold {instructions}"
        )
    return errors


#: Largest share of FM victim refreshes a run may lose to bank edges.
FM_EDGE_LOSS = 0.01


def check_autorfm_banks(label: str, stats, window: int,
                        fractal: bool) -> List[str]:
    """AutoRFM-W mitigates exactly every W-th ACT of a bank; no request
    sees more than one ALERT.

    FM refreshes two victim pairs per mitigation (d=1 and a random d>=2),
    but drops a victim that falls outside the bank, so near a bank edge a
    mitigation refreshes two or three rows. Hence 2m <= refreshes <= 4m
    per bank, and the run-wide shortfall from 4m stays below
    ``FM_EDGE_LOSS``: only aggressors within 18 rows of an edge lose one.
    """
    errors = []
    for i, b in enumerate(stats.banks):
        if b.mitigations != b.activations // window:
            errors.append(
                f"{label}: bank {i} has {b.mitigations} mitigations for "
                f"{b.activations} ACTs at W={window}"
            )
        if fractal and not (2 * b.mitigations <= b.victim_refreshes
                            <= 4 * b.mitigations):
            errors.append(
                f"{label}: bank {i} refreshed {b.victim_refreshes} victims "
                f"for {b.mitigations} FM mitigations"
            )
    if fractal:
        full = 4 * stats.total_mitigations
        lost = full - stats.total_victim_refreshes
        if lost > FM_EDGE_LOSS * full:
            errors.append(f"{label}: FM refreshed {lost} fewer victims than "
                          f"the {full} of four per mitigation")
    if stats.max_request_alerts > 1:
        errors.append(
            f"{label}: a request saw {stats.max_request_alerts} ALERTs "
            f"(single-retry guarantee is 1)"
        )
    return errors


def check_unmitigated(label: str, stats) -> List[str]:
    """A baseline run issues no ALERT, mitigation or RFM."""
    found = {
        "alerts": stats.total_alerts,
        "mitigations": stats.total_mitigations,
        "rfm_commands": stats.total_rfm_commands,
    }
    return [f"{label}: unmitigated run has {n} {name}"
            for name, n in found.items() if n]


def _counter_series(counters: Mapping[str, int], name: str) -> Dict[str, int]:
    prefix = name + "{"
    return {k: v for k, v in counters.items()
            if k == name or k.startswith(prefix)}


def check_observed(label: str, observed, plain) -> List[str]:
    """Observed run: registry counters equal SimStats per bank, and the
    stats equal the plain run's."""
    errors = []
    if observed.obs is None or observed.obs.metrics is None:
        return [f"{label}: observed run carries no metrics"]
    counters = observed.obs.metrics["counters"]
    stats = observed.stats
    for name, field in OBS_BANK_COUNTERS.items():
        series = _counter_series(counters, name)
        for i, b in enumerate(stats.banks):
            got = series.get(f"{name}{{bank={i}}}", 0)
            if got != getattr(b, field):
                errors.append(f"{label}: {name} bank {i} = {got}, "
                              f"SimStats {field} = {getattr(b, field)}")
    for name, field in OBS_TOTAL_COUNTERS.items():
        got = sum(_counter_series(counters, name).values())
        want = sum(getattr(b, field) for b in stats.banks)
        if got != want:
            errors.append(f"{label}: {name} = {got}, SimStats = {want}")
    if stats != plain.stats:
        errors.append(f"{label}: observed stats differ from the plain run")
    return errors


def check_backends(labels: Sequence[str], batch: Sequence,
                   scalar: Sequence) -> List[str]:
    """``simulate_batch`` returns the scalar engine's stats, job by job."""
    if len(batch) != len(scalar):
        return [f"batch returned {len(batch)} results for "
                f"{len(scalar)} jobs"]
    return [f"{label}: batch stats differ from scalar"
            for label, b, s in zip(labels, batch, scalar)
            if b.stats != s.stats]


def check_paper_shape(rows: Mapping[str, Mapping[str, float]],
                      alerts: Mapping[str, Mapping[str, float]],
                      workloads: Sequence[str], zen: str, rubix: str,
                      rfm: str) -> List[str]:
    """Fig. 8/11 ordering: on every workload Rubix has a lower ALERT/ACT
    than Zen and AutoRFM-4/Rubix a lower slowdown than blocking RFM-4; over
    the slice Rubix has the lower mean slowdown, the statistic Fig. 8
    reports.

    Zen against Rubix slowdown is compared on the mean only: on the
    random-access ConnComp the per-workload gap (about 2 points) is within
    the seed-to-seed noise of a 2,000-request slice, and reverses on 2 of
    24 seeds although ALERT/ACT stays lower on every one.
    """
    errors = []
    for w in workloads:
        if not alerts[rubix][w] < alerts[zen][w]:
            errors.append(f"{w}: {rubix} ALERT/ACT {alerts[rubix][w]:.5f} "
                          f"not below {zen} {alerts[zen][w]:.5f}")
        if not rows[rubix][w] < rows[rfm][w]:
            errors.append(f"{w}: {rubix} slowdown {rows[rubix][w]:.4f} not "
                          f"below {rfm} {rows[rfm][w]:.4f}")
    mean = {label: sum(rows[label][w] for w in workloads) / len(workloads)
            for label in (zen, rubix)}
    if not mean[rubix] < mean[zen]:
        errors.append(f"{rubix} mean slowdown {mean[rubix]:.4f} not below "
                      f"{zen} {mean[zen]:.4f}")
    return errors


def check_same_outputs(what: str, first, later: Sequence) -> List[str]:
    """Every repeat of the same work reproduces the first one exactly."""
    return [f"{what}: repeat {i + 2} differs from the first"
            for i, out in enumerate(later) if out != first]


# ----------------------------------------------------------------------
# security-sweep
# ----------------------------------------------------------------------
def check_batch(label: str, results, seeds: int, acts: int, window: int,
                tracker: str) -> List[str]:
    """Every seed replays the whole pattern; MINT mitigates every W-th ACT."""
    errors = []
    if len(results) != seeds:
        errors.append(f"{label}: {len(results)} results for {seeds} seeds")
    for seed, r in enumerate(results):
        if r.activations != acts:
            errors.append(f"{label}: seed {seed} replayed {r.activations} "
                          f"of {acts} ACTs")
        if tracker == "mint" and r.mitigations != acts // window:
            errors.append(f"{label}: seed {seed} MINT mitigated "
                          f"{r.mitigations} times, expected {acts // window}")
    return errors


def attack_summary(r) -> list:
    """Every per-seed statistic the runner keeps for an attack replay."""
    return [r.max_pressure, r.max_pressure_row, r.activations,
            r.mitigations, r.victim_refreshes]


def check_scalar_prefix(label: str, numpy_results, scalar_results) -> List[str]:
    """The scalar oracle reproduces the numpy batch on a prefix of seeds."""
    errors = []
    for seed, s in enumerate(scalar_results):
        if seed >= len(numpy_results):
            errors.append(f"{label}: numpy batch lacks seed {seed}")
        elif attack_summary(numpy_results[seed]) != attack_summary(s):
            errors.append(f"{label}: seed {seed} numpy "
                          f"{attack_summary(numpy_results[seed])} != "
                          f"scalar {attack_summary(s)}")
    return errors


def check_campaign_cell(label: str, record: dict, oracle: dict) -> List[str]:
    """The SPRT search lands on the oracle's threshold, and every probe
    verdict is the one the bisection's answer implies."""
    errors = []
    found = record["tolerated_threshold"]
    if found != oracle["tolerated_threshold"]:
        errors.append(f"{label}: campaign threshold {found}, fixed-seed "
                      f"oracle {oracle['tolerated_threshold']}")
    for probe in record["probes"]:
        want = "safe" if probe["threshold"] >= found else "unsafe"
        if probe["verdict"] != want:
            errors.append(f"{label}: probe at {probe['threshold']} said "
                          f"{probe['verdict']}, threshold {found} implies "
                          f"{want}")
    return errors


def check_mint_policies(fractal: dict, blast: dict) -> List[str]:
    """MINT+FM tolerates at least as low a threshold as MINT+blast."""
    fm, bl = fractal["tolerated_threshold"], blast["tolerated_threshold"]
    if fm > bl:
        return [f"MINT FM threshold {fm} above blast-radius {bl}"]
    return []


# ----------------------------------------------------------------------
# service-sweep
# ----------------------------------------------------------------------
def check_cold_results(labels: Sequence[str], daemon: Sequence[dict],
                       in_process: Sequence[dict]) -> List[str]:
    """Each daemon result equals the in-process run of the same job."""
    if len(daemon) != len(in_process):
        return [f"daemon returned {len(daemon)} results for "
                f"{len(in_process)} jobs"]
    return [f"{label}: daemon result differs from the in-process run"
            for label, d, p in zip(labels, daemon, in_process) if d != p]


def check_warm(responses: Sequence[dict]) -> List[str]:
    """Every resubmission is answered from the shared cache."""
    return [f"warm request {i} was not answered from the cache"
            for i, r in enumerate(responses) if not r.get("from_cache")]


def check_daemon_counters(counters: Mapping[str, int], cold: int,
                          warm: int) -> List[str]:
    """The daemon counted exactly the client's cold misses and warm hits."""
    errors = []
    if counters.get("svc.cache_misses", 0) != cold:
        errors.append(f"daemon counted {counters.get('svc.cache_misses', 0)}"
                      f" misses for {cold} cold jobs")
    if counters.get("svc.cache_hits", 0) != warm:
        errors.append(f"daemon counted {counters.get('svc.cache_hits', 0)} "
                      f"hits for {warm} warm requests")
    return errors


def check_no_children(pids: Sequence[int]) -> List[str]:
    """No process the workload started is still running."""
    return [f"process {pid} still running after the workload" for pid in pids]


def digest(outputs) -> str:
    """Stable hash of JSON-able outputs, to compare rounds without keeping
    every round in memory."""
    canonical = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()
