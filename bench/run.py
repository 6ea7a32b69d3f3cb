"""distlaw benchmark: run one workload, check every output, print metrics.

    python3 bench/run.py --workload laws --seed 1 --seconds 30 --trace 0

Workloads: laws, series, normalize, ncat (see NOTES.md).  Load is a
closed loop, one caller in one thread.  Each pass runs in a fresh
process, as a user's check or normalisation does, so no cache survives
from one pass to the next.

``--trace 0`` runs passes for ``--seconds`` (at least one pass; no
pass is started that should end later) and reports the end-to-end
metrics: median set-up time, mean pass time (time to verdict),
percentiles over the workload's calls of each call's mean latency,
and median peak RSS.  Every process also times a fixed reference
workload (reference.py); times are divided by the run's mean
reference time and multiplied by a fixed nominal one, so a slowdown
of the whole shared machine cancels out.  The summary lines also give
the times unscaled.  ``--trace 1`` runs one untraced and one traced pass and
reports the per-layer metrics; the traced pass writes its spans to
``bench/out/``.

Summary lines go to stdout; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
status is 0 when every output was right, 1 otherwise, and 2 when the
distlaw sources are missing.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("laws", "series", "normalize", "ncat")
SETUP_SAMPLES = {"full": 15, "smoke": 3}
WORKER_TIMEOUT_S = 150

UNITS = {"setup_s": "s", "verdict_s": "s", "call_p50_ms": "ms", "call_p95_ms": "ms",
         "peak_rss_mb": "MB"}
LAYER_TOTALS = ("terms.self_s", "monads.self_s", "laws.transform_self_s", "checks.self_s",
                "series.self_s", "expr.parse_self_s", "normalize.self_s", "algebras.self_s",
                "globular.self_s", "bench.self_s")


class WorkerFailed(Exception):
    pass


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", default="full", choices=("full", "smoke"),
                        help="smoke: small bounds, for the benchmark's own tests")
    return parser.parse_args(argv)


def worker(args, *flags):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, *flags]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker timed out after {WORKER_TIMEOUT_S} s: {cmd}") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"worker exited with {proc.returncode}: {cmd}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, q):
    """Inclusive-method percentile, ``q`` in (0, 100)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(args):
    passes, setup_runs = [], []
    start = time.monotonic()
    longest = 0.0
    # start another pass only if it should end within --seconds; the set-up
    # runs are spread over the passes, so both sample the same machine
    while not passes or time.monotonic() - start + longest <= args.seconds:
        began = time.monotonic()
        passes.append(worker(args, *([] if passes else ["--defects"])))
        longest = max(longest, time.monotonic() - began)
        expected_passes = max(1, int(args.seconds // longest))
        for _ in range(min(-(-SETUP_SAMPLES[args.size] // expected_passes),
                           SETUP_SAMPLES[args.size] - len(setup_runs))):
            setup_runs.append(worker(args, "--setup-only"))
    while len(setup_runs) < SETUP_SAMPLES[args.size]:
        setup_runs.append(worker(args, "--setup-only"))
    # a pass spans many seconds of the machine's changing speed and a
    # reference run a fraction of one: compare their means, not medians
    scale = reference.NOMINAL_S / statistics.fmean(
        p["reference_s"] for p in passes + setup_runs)
    # every pass makes the same calls in the same order: take each call's
    # mean over the passes, then percentiles over the calls
    calls = [statistics.fmean(p["calls"][i] for p in passes)
             for i in range(len(passes[0]["calls"]))]
    raw = {
        "setup_s": statistics.median(p["setup_s"] for p in setup_runs),
        "verdict_s": statistics.fmean(p["verdict_s"] for p in passes),
        "call_p50_ms": 1000 * statistics.median(calls),
        "call_p95_ms": 1000 * percentile(calls, 95),
    }
    metrics = {name: value * scale for name, value in raw.items()}
    metrics["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in passes)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    beyond = sum(1 for t in calls if 1000 * t > raw["call_p95_ms"])
    notes = [f"workload {args.workload} seed {args.seed} size {args.size}: "
             f"{len(passes)} passes of {len(passes[0]['calls'])} calls, one caller",
             f"setup_s median of {len(setup_runs)} set-ups",
             f"call latency over {len(calls)} calls (each the mean of {len(passes)} passes), "
             f"{beyond} beyond p95",
             f"failed_share {failed / attempted:.6g} ratio ({failed} of {attempted} failed)",
             f"machine speed: times scaled by {scale:.4g} (reference {reference.NOMINAL_S} s "
             f"/ mean of {len(passes + setup_runs)} reference runs); unscaled: "
             + ", ".join(f"{name} {value:.6g}" for name, value in raw.items())]
    notes += passes[0]["defects"]
    problems = [msg for p in passes for msg in p["problems"]]
    return metrics, UNITS, attempted, failed, notes, problems


def per_layer(args):
    plain = worker(args)
    traced = worker(args, "--traced")
    metrics = dict(traced["layers"])
    metrics["trace.verdict_s"] = traced["verdict_s"]
    metrics["trace.overhead_s"] = traced["verdict_s"] - plain["verdict_s"]
    problems = plain["problems"] + traced["problems"]
    if metrics["checks.instances"] != plain["checked_total"]:
        problems.append(f"traced checks.instances {metrics['checks.instances']} != "
                        f"untraced total_checked() sum {plain['checked_total']}")
    layer_sum = sum(metrics[name] for name in LAYER_TOTALS)
    if abs(layer_sum - traced["verdict_s"]) > 1e-6 * max(1.0, traced["verdict_s"]):
        problems.append(f"layer self times sum to {layer_sum}, traced pass took "
                        f"{traced['verdict_s']}")
    units = {name: ("s" if name.endswith("_s") else
                    "ratio" if name.endswith("_ratio") else "count") for name in metrics}
    notes = [f"workload {args.workload} seed {args.seed} size {args.size}: "
             f"one untraced and one traced pass of {plain['attempted']} calls",
             f"untraced verdict_s {plain['verdict_s']:.6g} s; layer self times sum to "
             f"{layer_sum:.6g} s"]
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    return metrics, units, attempted, failed, notes, problems


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "distlaw" / "__init__.py").is_file():
        print(f"distlaw sources not found under {SRC}", file=sys.stderr)
        return 2
    try:
        metrics, units, attempted, failed, notes, problems = (
            per_layer(args) if args.trace else end_to_end(args))
    except WorkerFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    for line in notes:
        print(line)
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    for msg in problems:
        print(f"WRONG {msg}", file=sys.stderr)
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
