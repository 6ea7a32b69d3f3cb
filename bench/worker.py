"""One pass of one workload, in a fresh process; prints one JSON line.

run.py starts this; by hand:

    python3 bench/worker.py --workload laws --seed 1 [--size smoke]
                            [--traced] [--setup-only] [--defects]

Set-up is ``import distlaw`` (which builds the ring and rig theories)
plus input generation.  The pass runs every call of the workload once,
timing each; outputs are checked after the pass, outside the timing.
With ``--traced`` the pass runs under the span tracer, which is
installed before distlaw is imported.  Last, every process times the
machine-speed reference (reference.py), after the pass's peak RSS has
been read.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPANS_DIR = HERE / "out"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("laws", "series", "normalize", "ncat"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=("full", "smoke"))
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--defects", action="store_true",
                        help="after the pass, probe the known defects")
    return parser.parse_args(argv)


def timed_pass(ops, tracer):
    """Run every call once; returns ([(output, error, seconds)], pass seconds)."""
    clock = time.perf_counter
    calls = [op.call for op in ops]
    if tracer is not None:
        calls = [tracer.wrap(call, "bench.op", record=True) for call in calls]

    def loop():
        outputs = []
        for call in calls:
            start = clock()
            try:
                out, err = call(), None
            except Exception as exc:  # a raising call is a counted failure
                out, err = None, f"{type(exc).__name__}: {exc}"
            outputs.append((out, err, clock() - start))
        return outputs

    if tracer is not None:
        return tracer.run(loop)
    start = clock()
    outputs = loop()
    return outputs, clock() - start


def check_outputs(ops, outputs):
    failed, checked, problems = 0, 0, []
    for op, (out, err, _) in zip(ops, outputs):
        if err is None:
            try:
                err = op.check(out)
            except Exception as exc:  # a checker crash means the output is malformed
                err = f"check raised {type(exc).__name__}: {exc}"
        if err:
            failed += 1
            problems.append(f"{op.label}: {err}")
        elif hasattr(out, "total_checked"):
            checked += out.total_checked()
    return failed, checked, problems


def run_probes(probes):
    """Known defects: report whether each still shows; a wrong output fails."""
    lines, problems = [], []
    for probe in probes:
        try:
            out = probe.call()
        except RecursionError:
            lines.append(f"known_defect {probe.label}: RecursionError (still present)")
            continue
        except Exception as exc:  # the defect changed shape; report it, not a wrong output
            lines.append(f"known_defect {probe.label}: now raises {type(exc).__name__}: {exc}")
            continue
        err = probe.check(out)
        if err:
            problems.append(f"{probe.label}: {err}")
        lines.append(f"known_defect {probe.label}: "
                     + (f"WRONG OUTPUT: {err}" if err else "fixed, output verified"))
    return lines, problems


def main(argv=None):
    args = parse_args(argv)
    start = time.perf_counter()
    tracer = None
    if args.traced:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    sys.path.insert(0, str(SRC))
    import distlaw
    if Path(distlaw.__file__).resolve().parent != (SRC / "distlaw").resolve():
        sys.exit(f"distlaw was imported from {distlaw.__file__}, not from {SRC}")
    import workloads
    workload = workloads.build(args.workload, args.seed, args.size)
    result = {"setup_s": time.perf_counter() - start}
    if not args.setup_only:
        outputs, seconds = timed_pass(workload.ops, tracer)
        # the pass's high-water mark, before checking and the reference add their own
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            result["layers"] = spans.layer_metrics(tracer)
            SPANS_DIR.mkdir(exist_ok=True)
            path = SPANS_DIR / f"{args.workload}-seed{args.seed}-{args.size}.spans.json"
            path.write_text(json.dumps({"fields": ["name", "start", "end", "parent"],
                                        "spans": tracer.spans}))
        failed, checked, problems = check_outputs(workload.ops, outputs)
        result.update(verdict_s=seconds, calls=[t for _, _, t in outputs],
                      attempted=len(outputs), failed=failed, checked_total=checked,
                      problems=problems, defects=[])
        if args.defects:
            lines, wrong = run_probes(workload.probes)
            result["defects"] = lines
            result["problems"] += wrong
            result["attempted"] += len(wrong)
            result["failed"] += len(wrong)
    result["reference_s"] = reference.measure()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
