#!/usr/bin/env python3
"""Desk-scale benchmark: generate random corpora for both problem families,
run the full algorithm x strategy matrix, and write solved-count tables plus
cactus/scatter data under the output directory.

Example:
    python3 scripts/desk_bench.py --out-dir /tmp/deskbench --count 30 \
        --timeout 10 --jobs 4
"""

import argparse
import os
import sys

from partmax import bench
from partmax.cli import check_ranges, env_seed
from partmax.encoders import (
    MscGenConfig,
    SchemeChoice,
    SeatingGenConfig,
    generate_corpus,
)


def run_family(name, cfg, scheme, args):
    corpus_dir = os.path.join(args.out_dir, f"{name}_corpus")
    paths = generate_corpus(name, cfg, args.count, scheme, args.seed, corpus_dir)
    print(f"[{name}] generated {len(paths)} instances in {corpus_dir}")
    records = bench.run_benchmark(
        paths,
        bench.ALGS,
        bench.DEFAULT_STRATEGIES,
        timeout=args.timeout,
        jobs=args.jobs,
        seed=args.seed,
        mem_limit_mb=args.mem_limit_mb,
    )
    table = bench.write_reports(
        records,
        bench.ALGS,
        bench.DEFAULT_STRATEGIES,
        os.path.join(args.out_dir, name),
        [(("wbo", "user"), ("wbo", "none"))],
    )
    print(f"[{name}] solved-count table (timeout {args.timeout}s):")
    print(table)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--count", type=int, default=30, help="instances per problem family")
    ap.add_argument("--timeout", type=float, default=10.0)
    ap.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    ap.add_argument("--seed", type=int, default=None, help="default: $UPMAX_SEED or 0")
    ap.add_argument("--mem-limit-mb", type=int, default=None)
    args = ap.parse_args(argv)
    check_ranges(ap, args)
    if args.seed is None:
        args.seed = env_seed(ap)

    msc_cfg = MscGenConfig(
        min_vertices=8, max_vertices=16, min_density=0.2, max_density=0.5,
        min_colors=3, max_colors=5,
    )
    seat_cfg = SeatingGenConfig(
        min_persons=8, max_persons=14, min_tables=2, max_tables=3,
        min_tag_universe=3, max_tag_universe=5,
        min_tags_per_person=1, max_tags_per_person=2,
    )
    run_family("msc", msc_cfg, SchemeChoice.MSC_VERTEX, args)
    run_family("seating", seat_cfg, SchemeChoice.SEAT_TABLES, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
