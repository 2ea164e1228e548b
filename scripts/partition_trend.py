#!/usr/bin/env python3
"""Compare one algorithm with and without a partitioning strategy on a
generated seating corpus: solved counts and total time under a timeout.
The corpus goes to a temporary directory and runs through the bench harness.

Example:
    python3 scripts/partition_trend.py --count 100 --timeout 60
"""

import argparse
import sys
import tempfile
import time

from partmax import bench
from partmax.cli import check_ranges, env_seed
from partmax.encoders import SchemeChoice, SeatingGenConfig, generate_corpus

LABELS = {"user": "table-partitions", "none": "no partitions"}


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
    t0 = time.monotonic()
    with tempfile.TemporaryDirectory() as corpus_dir:
        paths = generate_corpus("seating", cfg, args.count, SchemeChoice.SEAT_TABLES, args.seed, corpus_dir)
        records = bench.run_benchmark(paths, [args.alg], list(LABELS), timeout=args.timeout, seed=args.seed)
    solved = bench.solved_counts(records)
    print(f"{args.alg} on {args.count} seating instances, {args.timeout:.0f}s timeout:")
    for strategy, label in LABELS.items():
        spent = sum(r.time_s for r in records if r.strategy == strategy)
        print(f"  {label:17s} solved {solved[args.alg, strategy]:4d}  total {spent:7.1f}s")
    trend = solved[args.alg, "user"] >= solved[args.alg, "none"]
    print(f"  trend (partitioned >= unpartitioned): {'holds' if trend else 'fails'}")
    print(f"  wall time {time.monotonic() - t0:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
