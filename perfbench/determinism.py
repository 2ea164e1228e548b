#!/usr/bin/env python3
"""Determinism check: two traced runs with the same seed must agree on every
non-timing field of the jobs both completed, and a run with another seed
must complete and pass the verification gate.

    python3 perfbench/determinism.py --seed 0 --other-seed 1 --seconds 20

Runs are separate processes; their records go under perfbench/out/.
Exits 1 when any workload fails either check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from suite import run_workload  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FIELDS = (
    "instance", "alg", "strategy", "error", "status", "cost", "labels",
    "sat.calls", "sat.conflicts", "sat.propagations", "maxsat.cores", "maxsat.blocks",
    "graphs.nodes", "graphs.edges", "graphs.q",
)


def traced_run(workload, seed, seconds, out):
    result, _ = run_workload(workload, seed, seconds, 1, out)
    with open(os.path.join(out, f"trace-{workload}-seed{seed}.json")) as fh:
        return result, json.load(fh)["jobs"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--other-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                    help="repeatable; default: every workload")
    args = ap.parse_args(argv)
    out = os.path.join(HERE, "out", "determinism")
    ok = True
    for name in args.workload or sorted(WORKLOADS):
        (_, a), (_, b) = (
            traced_run(name, args.seed, args.seconds, os.path.join(out, run))
            for run in ("a", "b")
        )
        n = min(len(a), len(b))
        diffs = [
            (i, f) for i in range(n) for f in FIELDS if a[i].get(f) != b[i].get(f)
        ]
        same = n > 0 and not diffs
        print(f"determinism: {name} seed {args.seed}: {n} jobs in both runs, "
              f"non-timing fields {'identical' if same else 'DIFFER'}")
        for i, f in diffs[:10]:
            print(f"  job {i} {f}: {a[i].get(f)!r} != {b[i].get(f)!r}")
        other, jobs = traced_run(name, args.other_seed, args.seconds, os.path.join(out, "c"))
        passed = other["correct"] and other["failed"] == 0
        print(f"determinism: {name} seed {args.other_seed}: {len(jobs)} jobs, "
              f"verification gate {'passed' if passed else 'FAILED'}")
        ok &= same and passed
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
