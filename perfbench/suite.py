#!/usr/bin/env python3
"""Run every workload, each in a fresh process, and print its report and
metrics by name and unit.

    python3 perfbench/suite.py --seed 0 --seconds 30 --trace 0

A fresh process per workload keeps peak_rss_mb to one workload. Exits 1
when any run is not correct.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402


def run_workload(workload, seed, seconds, trace, out=None):
    """Run run.py in a child process; returns (result object, report lines)."""
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if out is not None:
        cmd += ["--out", out]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    results = {}
    for name in WORKLOADS:
        result, report = run_workload(name, args.seed, args.seconds, args.trace)
        print("\n".join(report) + "\n")
        results[name] = result
    ok = True
    for name, r in results.items():
        ok &= r["correct"]
        print(f"{name}: correct={r['correct']} attempted={r['attempted']} failed={r['failed']}")
        for metric, m in r["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
