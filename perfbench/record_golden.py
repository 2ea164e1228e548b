#!/usr/bin/env python3
"""Record the golden verdicts of the default seed's corpora into golden.json.

    python3 perfbench/record_golden.py

Every instance of every workload's corpus is solved by two algorithms
(CROSS_CHECK) and both results pass the verification gate; a verdict is
recorded only when the two agree, otherwise the script exits 1 and writes
nothing.
"""

from __future__ import annotations

import json
import sys

import run
from verify import Gate, verdict
from workloads import WORKLOADS

SEED = 0
CROSS_CHECK = (("oll", "none"), ("msu3", "user"))


def main() -> int:
    mods = run.import_partmax()
    golden = {"seed": SEED, "cross_checked_by": [list(p) for p in CROSS_CHECK], "workloads": {}}
    for wl in WORKLOADS.values():
        verdicts = {}
        for inst in run.make_corpus(mods, wl, SEED):
            ref = run.draw(mods, wl, SEED, inst.index)
            gate = Gate()
            got = set()
            for k, (alg, strategy) in enumerate(CROSS_CHECK):
                rec = run.run_job(mods, k, inst, alg, strategy, budget=None)
                gate.job(rec, ref)
                got.add(verdict(rec))
            if gate.failed_jobs or len(got) != 1:
                print(f"{wl.name} {inst.name}: no agreed verdict {sorted(map(str, got))}")
                print("\n".join(gate.report()))
                return 1
            verdicts[inst.name] = got.pop()
        golden["workloads"][wl.name] = verdicts
        print(f"{wl.name}: {len(verdicts)} verdicts")
    with open(run.GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
