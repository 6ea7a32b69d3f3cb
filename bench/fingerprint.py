"""Exact-count fingerprint of every workload, for claims made in counts.

    python3 bench/fingerprint.py            # compare with bench/fingerprints.json
    python3 bench/fingerprint.py --write    # record the current counts

Runs the traced pass of each workload twice (seed 1, full size), checks
that the counts repeat exactly, and compares them with the recorded
ones.  Exit status 1 when the counts do not repeat or differ from the
record.  A change that moves a count on purpose (hash-consing moves
``terms.constructed``) re-records it and says so.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RECORD = HERE / "fingerprints.json"
WORKLOADS = ("laws", "series", "normalize", "ncat")
COUNTS = ("checks.instances", "monads.enumerated", "terms.constructed", "globular.cells_out")
SEED = 1


def traced_counts(workload):
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "--workload", workload,
                           "--seed", str(SEED), "--traced"],
                          capture_output=True, text=True, timeout=170, check=True)
    layers = json.loads(proc.stdout.strip().splitlines()[-1])["layers"]
    return {name: layers[name] for name in COUNTS}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    current, ok = {}, True
    for workload in WORKLOADS:
        first, second = traced_counts(workload), traced_counts(workload)
        if first != second:
            print(f"{workload}: counts do not repeat: {first} then {second}")
            ok = False
        current[workload] = first
        print(workload, json.dumps(first))
    if args.write:
        RECORD.write_text(json.dumps({"seed": SEED, "size": "full", "counts": current},
                                     indent=2) + "\n")
    else:
        recorded = json.loads(RECORD.read_text())["counts"]
        for workload in WORKLOADS:
            for name in COUNTS:
                if recorded[workload][name] != current[workload][name]:
                    print(f"{workload} {name}: recorded {recorded[workload][name]}, "
                          f"now {current[workload][name]}")
                    ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
