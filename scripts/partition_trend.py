#!/usr/bin/env python3
"""Compare one algorithm with and without a partitioning strategy on a
generated seating corpus: solved counts and total time under a timeout.

Example:
    python3 scripts/partition_trend.py --count 100 --timeout 60
"""

import argparse
import sys
import time

from partmax.cli import check_ranges, env_seed
from partmax.cnf import PartitionedInstance
from partmax.encoders import SchemeChoice, SeatingGenConfig, encode_seating, gen_seating
from partmax.maxsat import Status, solve_instance


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alg", default="wbo", choices=["msu3", "oll", "wbo"])
    ap.add_argument("--count", type=int, default=100)
    ap.add_argument("--timeout", type=float, default=60.0)
    ap.add_argument("--seed", type=int, default=None, help="default: $UPMAX_SEED or 8000")
    ap.add_argument("--min-persons", type=int, default=10)
    ap.add_argument("--max-persons", type=int, default=14)
    ap.add_argument("--tables", type=int, default=3)
    args = ap.parse_args(argv)
    check_ranges(ap, args)
    if args.seed is None:
        args.seed = env_seed(ap, 8000)

    cfg = SeatingGenConfig(
        min_persons=args.min_persons, max_persons=args.max_persons,
        min_tables=args.tables, max_tables=args.tables,
        min_tag_universe=4, max_tag_universe=5,
        min_tags_per_person=1, max_tags_per_person=2,
    )
    solved = {"table-partitions": 0, "no partitions": 0}
    spent = {"table-partitions": 0.0, "no partitions": 0.0}
    t0 = time.monotonic()
    for i in range(args.count):
        prob = gen_seating(cfg, seed=args.seed + i)
        user = encode_seating(prob, SchemeChoice.SEAT_TABLES)
        runs = {
            "table-partitions": user,
            "no partitions": PartitionedInstance.single_block(user.base),
        }
        for label, pinst in runs.items():
            res = solve_instance(pinst, args.alg, budget=args.timeout)
            solved[label] += res.status == Status.OPTIMUM
            spent[label] += res.stats.time_s
    print(f"{args.alg} on {args.count} seating instances, {args.timeout:.0f}s timeout:")
    for label in ("table-partitions", "no partitions"):
        print(f"  {label:17s} solved {solved[label]:4d}  total {spent[label]:7.1f}s")
    trend = solved["table-partitions"] >= solved["no partitions"]
    print(f"  trend (partitioned >= unpartitioned): {'holds' if trend else 'fails'}")
    print(f"  wall time {time.monotonic() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
