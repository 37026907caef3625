"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload timing-sweep --seed 1 --seconds 20 --trace 0

Run from the repository root. Set-up (imports, the run directory, the
sweep daemon) is timed from process start up to the first timed call.
The workload then repeats whole rounds of its fixed work, each from a
cold result cache, as many as fit in ``--seconds``, and reports the
median over the rounds. The outputs are checked after the timed rounds;
the last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace
1`` runs one untraced round, then a serial in-process pass that times the
calls into each layer, and reports the per-layer metrics (0 for a layer
the workload never calls). Every run leaves its full record, per-round
values included, in ``perfbench/out/<workload>-s<seed>-t<trace>-<pid>.json``.
"""

from common import SetupClock

SETUP_CLOCK = SetupClock()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

from checks import check_same_outputs  # noqa: E402
from common import OUT_DIR, median, peak_rss_mb, write_json  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("timing-sweep", "security-sweep", "service-sweep")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _declared_metrics(trace: int) -> dict:
    """``{name: unit}`` of the metrics BENCHMARK.json declares for a mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def _load(workload: str):
    """Import the workload module once the source tree is on the path."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.exit(f"perfbench: no source tree at {src}; run from a checkout")
    sys.path.insert(0, src)
    import importlib

    return importlib.import_module(workload.replace("-", "_"))


def main(argv=None) -> int:
    args = _parse(argv)
    declared = _declared_metrics(args.trace)
    module = _load(args.workload)
    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    run_dir = os.path.join(OUT_DIR, run_id)
    os.makedirs(run_dir, exist_ok=True)
    ctx = module.prepare(args.seed, run_dir)

    SETUP_CLOCK.first_timed_call()
    start = time.perf_counter()
    first = module.run_round(ctx, 0)
    # Peak RSS of set-up and one round of the fixed work: read after a
    # time-dependent number of rounds it would depend on machine speed.
    rss = peak_rss_mb()
    per_round = [module.round_metrics(first)]
    digests = [module.digest(first)]
    # Later rounds keep only their timings and an output digest, so memory
    # does not grow with the number of rounds.
    while not args.trace:
        elapsed = time.perf_counter() - start
        # Start another whole round only if it should end in time.
        if elapsed * (len(per_round) + 1) / len(per_round) > args.seconds:
            break
        out = module.run_round(ctx, len(per_round))
        per_round.append(module.round_metrics(out))
        digests.append(module.digest(out))
        del out
    errors = module.stop(ctx)

    traced = None
    if args.trace:
        start = time.perf_counter()
        traced = module.traced(ctx, first)
        traced["metrics"]["trace.pass_s"] = time.perf_counter() - start
        errors += traced["errors"]
    errors += module.check(ctx, first, traced)
    errors += check_same_outputs(args.workload, digests[0], digests[1:])

    if traced is not None:
        metrics = traced["metrics"]
    else:
        metrics = {name: median(r[name] for r in per_round)
                   for name in per_round[0]}
        metrics.update(setup_s=SETUP_CLOCK.setup_s,
                       peak_rss_mb=max(rss.values()))
        missing = sorted(set(declared) - set(metrics))
        if missing:
            raise RuntimeError(f"workload did not measure {missing}")
    result = {
        "correct": not errors,
        "attempted": len(per_round) * module.ops_per_round(),
        "failed": 0,
        "metrics": {name: {"value": metrics.get(name, 0), "unit": unit}
                    for name, unit in declared.items()},
    }

    if not args.trace:
        for name, unit in declared.items():
            alias = module.NAMES.get(name, name)
            print(f"{alias:32s} {metrics[name]:14.6g} {unit:6s} ({name})")
    for line in module.report(ctx, first):
        print(line)
    for error in errors:
        print(f"CHECK FAILED: {error}")
    if not args.trace:  # a traced run keeps its profile
        shutil.rmtree(run_dir, ignore_errors=True)
    write_json(os.path.join(OUT_DIR, run_id + ".json"), dict(
        result, workload=args.workload, seed=args.seed, trace=args.trace,
        errors=errors, measured=metrics, counts=module.counts(first),
        peak_rss_first_round=rss, peak_rss_end=peak_rss_mb(),
        rounds=per_round))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
