"""Command-line interface.

Subcommands: solve (wcnf/pwcnf -> solution), partition (wcnf -> pwcnf via an
automatic strategy), encode (problem parameters -> pwcnf), gen (random
corpus + manifest), bench (matrix run -> CSV/summary/cactus/scatter).

The seed defaults to the UPMAX_SEED environment variable, then 0; a value
that is not an integer is a usage error, as are --timeout below 0 and
--jobs, --mem-limit-mb or --count below 1.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import fields

from . import bench as bench_mod
from .encoders import (
    MscGenConfig,
    MscProblem,
    SeatingGenConfig,
    SeatingProblem,
    SchemeChoice,
    encode_msc,
    encode_seating,
    generate_corpus,
)
from .formats import ParseError, detect_and_parse, write_pwcnf, write_solution
from .maxsat import solve_instance


def env_seed(parser: argparse.ArgumentParser, default: int = 0) -> int:
    """$UPMAX_SEED as an int, or default when unset; exits 2 through
    parser.error when the variable is not an integer."""
    raw = os.environ.get("UPMAX_SEED")
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        parser.error(f"UPMAX_SEED must be an integer, got {raw!r}")


def check_ranges(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Exit 2 through parser.error when --timeout is below 0, or --jobs,
    --mem-limit-mb or --count below 1; options that args lacks or left
    unset are not checked."""
    for name, low in (("timeout", 0), ("jobs", 1), ("mem_limit_mb", 1), ("count", 1)):
        value = vars(args).get(name)
        if value is not None and not value >= low:  # NaN fails too
            parser.error(f"--{name.replace('_', '-')} must be >= {low}, got {value}")


def _add_seed(parser) -> None:
    parser.add_argument(
        "--seed", type=int, default=None, help="random seed (default: $UPMAX_SEED or 0)"
    )


def _file_error(path: str, exc: Exception) -> int:
    """Print `error: <path>: <reason>`; returns exit code 1."""
    reason = getattr(exc, "strerror", None) or exc
    print(f"error: {path}: {reason}", file=sys.stderr)
    return 1


def _load(args, times: dict):
    """Read args.file and partition it per args.strategy. Returns
    (instance, 0), or (None, exit code) once the error is printed: 1 for an
    unreadable or malformed file, 2 for an unusable strategy. The wall
    seconds of read and parse, then of partitioning, go to
    times["parse_s"] and times["partition_s"]."""
    try:
        t0 = time.perf_counter()
        with open(args.file, "rb") as fh:
            kind, parsed = detect_and_parse(fh.read())
        t1 = time.perf_counter()
        pinst = bench_mod.apply_strategy(kind, parsed, args.strategy, seed=args.seed)
        times.update(parse_s=t1 - t0, partition_s=time.perf_counter() - t1)
        return pinst, 0
    except (OSError, ParseError) as exc:
        return None, _file_error(args.file, exc)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, 2


def _write_out(text: str, out: str | None) -> int:
    if out is None or out == "-":
        sys.stdout.write(text)
        return 0
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        return _file_error(out, exc)
    return 0


def cmd_solve(args) -> int:
    times = {}
    pinst, code = _load(args, times)
    if pinst is None:
        return code
    res = solve_instance(pinst, args.alg, budget=args.timeout)
    print(f"c partitions: {pinst.n_part}")
    print(f"c sat_calls: {res.stats.sat_calls}")
    print(f"c cores: {res.stats.cores}")
    print(f"c parse_s: {times['parse_s']:.3f}")
    print(f"c partition_s: {times['partition_s']:.3f}")
    print(f"c time_s: {res.stats.time_s:.3f}")
    sys.stdout.write(write_solution(res))
    return 0


def cmd_partition(args) -> int:
    pinst, code = _load(args, {})
    if pinst is None:
        return code
    return _write_out(write_pwcnf(pinst), args.output)


def _parse_edges(spec: str):
    edges = set()
    if spec.strip():
        for part in spec.replace(";", ",").split(","):
            a, _, b = part.strip().partition("-")
            u, v = int(a), int(b)
            edges.add((min(u, v), max(u, v)))
    return frozenset(edges)


def _parse_persons(spec: str):
    persons = []
    for chunk in spec.split("|"):
        tags = frozenset(t for t in chunk.replace(",", " ").split() if t)
        persons.append(tags)
    return tuple(persons)


def cmd_encode(args) -> int:
    try:
        if args.problem == "msc":
            prob = MscProblem(
                n_vertices=args.vertices,
                edges=_parse_edges(args.edges),
                n_colors=args.colors,
            )
            pinst = encode_msc(prob, SchemeChoice(args.scheme))
        else:
            persons = _parse_persons(args.persons)
            universe = tuple(sorted(set().union(*persons))) if persons else ()
            prob = SeatingProblem(
                person_tags=persons,
                n_tables=args.tables,
                min_per_table=args.min_per_table,
                max_per_table=args.max_per_table,
                tags=universe,
            )
            pinst = encode_seating(prob, SchemeChoice(args.scheme))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return _write_out(write_pwcnf(pinst), args.output)


def cmd_gen(args) -> int:
    try:
        scheme = SchemeChoice(args.scheme)
        # each generator option is stored under its config field's name;
        # fields without an option keep their defaults
        config = MscGenConfig if args.problem == "msc" else SeatingGenConfig
        cfg = config(**{f.name: vars(args)[f.name] for f in fields(config) if f.name in vars(args)})
        paths = generate_corpus(args.problem, cfg, args.count, scheme, args.seed, args.out_dir)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(paths)} instances to {args.out_dir}")
    return 0


def cmd_bench(args) -> int:
    algs = [a.strip() for a in args.algs.split(",") if a.strip()]
    strategies = [s.strip() for s in args.strategies.split(",") if s.strip()]
    for flag, names in (("--algs", algs), ("--strategies", strategies)):
        twice = sorted({x for x in names if names.count(x) > 1})
        if twice:
            print(f"error: {flag} lists {', '.join(twice)} more than once", file=sys.stderr)
            return 2
    for a in algs:
        if a not in bench_mod.ALGS:
            print(f"error: unknown algorithm {a!r}", file=sys.stderr)
            return 2
    for s in strategies:
        try:
            bench_mod.parse_strategy(s)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    configs = {(a, s) for a in algs for s in strategies}
    scatters = []
    for spec in args.scatter or []:
        try:
            a, b = spec.split("/")
            cfg_a = tuple(a.split(":", 1))
            cfg_b = tuple(b.split(":", 1))
            if len(cfg_a) != 2 or len(cfg_b) != 2:
                raise ValueError
        except ValueError:
            print(f"error: bad scatter spec {spec!r}; use alg:strategy/alg:strategy", file=sys.stderr)
            return 2
        for cfg in (cfg_a, cfg_b):
            if cfg not in configs:
                print(f"error: scatter side {':'.join(cfg)!r} is not in --algs x --strategies", file=sys.stderr)
                return 2
        scatters.append((cfg_a, cfg_b))
    try:
        names = os.listdir(args.corpus)
    except OSError as exc:
        _file_error(args.corpus, exc)
        return 2
    corpus = sorted(os.path.join(args.corpus, f) for f in names if f.endswith((".wcnf", ".pwcnf")))
    if not corpus:
        print(f"error: no .wcnf/.pwcnf files in {args.corpus}", file=sys.stderr)
        return 2
    records = bench_mod.run_benchmark(
        corpus,
        algs,
        strategies,
        timeout=args.timeout,
        jobs=args.jobs,
        seed=args.seed,
        mem_limit_mb=args.mem_limit_mb,
    )
    summary = bench_mod.write_reports(records, algs, strategies, args.out_dir, scatters)
    sys.stdout.write(summary)
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="partmax", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("solve", help="solve a wcnf/pwcnf file")
    ps.add_argument("file")
    ps.add_argument("--alg", choices=bench_mod.ALGS, default="oll")
    ps.add_argument(
        "--strategy",
        default="none",
        help="none | user | vig | cvig | res | random:<k> (default none)",
    )
    ps.add_argument("--timeout", type=float, default=None, help="wall-clock budget in seconds")
    _add_seed(ps)
    ps.set_defaults(func=cmd_solve)

    pp = sub.add_parser("partition", help="emit a pwcnf with automatically derived partitions")
    pp.add_argument("file")
    pp.add_argument(
        "--strategy", required=True, help="none | user | vig | cvig | res | random:<k>"
    )
    pp.add_argument("-o", "--output", default=None)
    _add_seed(pp)
    pp.set_defaults(func=cmd_partition)

    pe = sub.add_parser("encode", help="encode a problem description as pwcnf")
    pe_sub = pe.add_subparsers(dest="problem", required=True)
    pem = pe_sub.add_parser("msc", help="minimum-sum graph coloring")
    pem.add_argument("--vertices", type=int, required=True)
    pem.add_argument("--edges", default="", help='e.g. "1-2,1-3,2-3,3-4"')
    pem.add_argument("--colors", type=int, required=True)
    pem.add_argument("--scheme", choices=["none", "vertex", "color"], default="none")
    pem.add_argument("-o", "--output", default=None)
    pem.set_defaults(func=cmd_encode)
    pes = pe_sub.add_parser("seating", help="table seating with tags")
    pes.add_argument("--persons", required=True, help='e.g. "A,B|C|B|C,A|A"')
    pes.add_argument("--tables", type=int, required=True)
    pes.add_argument("--min-per-table", type=int, required=True)
    pes.add_argument("--max-per-table", type=int, required=True)
    pes.add_argument("--scheme", choices=["none", "tags", "tables"], default="none")
    pes.add_argument("-o", "--output", default=None)
    pes.set_defaults(func=cmd_encode)

    pg = sub.add_parser("gen", help="generate a random pwcnf corpus with a manifest")
    pg_sub = pg.add_subparsers(dest="problem", required=True)
    pgm = pg_sub.add_parser("msc")
    pgm.add_argument("--count", type=int, default=10)
    pgm.add_argument("--out-dir", required=True)
    pgm.add_argument("--scheme", choices=["none", "vertex", "color"], default="vertex")
    pgm.add_argument("--min-vertices", type=int, default=MscGenConfig.min_vertices)
    pgm.add_argument("--max-vertices", type=int, default=MscGenConfig.max_vertices)
    pgm.add_argument("--min-density", type=float, default=MscGenConfig.min_density)
    pgm.add_argument("--max-density", type=float, default=MscGenConfig.max_density)
    pgm.add_argument("--min-colors", type=int, default=MscGenConfig.min_colors)
    pgm.add_argument("--max-colors", type=int, default=MscGenConfig.max_colors)
    _add_seed(pgm)
    pgm.set_defaults(func=cmd_gen)
    pgs = pg_sub.add_parser("seating")
    pgs.add_argument("--count", type=int, default=10)
    pgs.add_argument("--out-dir", required=True)
    pgs.add_argument("--scheme", choices=["none", "tags", "tables"], default="tables")
    pgs.add_argument("--min-persons", type=int, default=SeatingGenConfig.min_persons)
    pgs.add_argument("--max-persons", type=int, default=SeatingGenConfig.max_persons)
    pgs.add_argument("--min-tables", type=int, default=SeatingGenConfig.min_tables)
    pgs.add_argument("--max-tables", type=int, default=SeatingGenConfig.max_tables)
    pgs.add_argument("--min-tags", type=int, dest="min_tag_universe", metavar="MIN_TAGS",
                     default=SeatingGenConfig.min_tag_universe)
    pgs.add_argument("--max-tags", type=int, dest="max_tag_universe", metavar="MAX_TAGS",
                     default=SeatingGenConfig.max_tag_universe)
    _add_seed(pgs)
    pgs.set_defaults(func=cmd_gen)

    pb = sub.add_parser("bench", help="run an algorithm x strategy matrix over a corpus")
    pb.add_argument("--corpus", required=True)
    pb.add_argument("--algs", default=",".join(bench_mod.ALGS))
    pb.add_argument("--strategies", default=",".join(bench_mod.DEFAULT_STRATEGIES))
    pb.add_argument("--timeout", type=float, default=60.0)
    pb.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    pb.add_argument("--out-dir", required=True)
    pb.add_argument("--mem-limit-mb", type=int, default=None)
    pb.add_argument(
        "--scatter",
        action="append",
        help="emit per-instance time pairs, e.g. wbo:none/wbo:user (repeatable)",
    )
    _add_seed(pb)
    pb.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if "seed" in vars(args) and args.seed is None:
        args.seed = env_seed(parser)
    check_ranges(parser, args)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
