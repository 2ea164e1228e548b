"""Experiment harness: load and partition wcnf/pwcnf files, run an
algorithm x strategy matrix over a corpus of them in worker processes,
collect per-run records, and emit CSV results, solved-count summary
tables, cactus data and scatter data.

Timeouts are enforced inside the solver (wall clock); the optional memory
limit is best-effort via RLIMIT_AS in each worker.
"""

from __future__ import annotations

import csv
import multiprocessing
import os
import sys
import time
import traceback
import warnings
from dataclasses import dataclass

from .cnf import PartitionedInstance
from .formats import detect_and_parse
from .graphs import partition_by_graph, random_partition
from .maxsat import AlgorithmKind, Status, solve_instance

CSV_COLUMNS = ["instance", "alg", "strategy", "status", "cost", "time_s", "sat_calls", "cores"]

STRATEGIES = ("none", "user", "vig", "cvig", "res", "random")

# the matrix `partmax bench` and scripts/desk_bench.py run by default
ALGS = [a.value for a in AlgorithmKind]
DEFAULT_STRATEGIES = ["none", "user", "vig", "cvig", "res", "random:16"]


@dataclass
class RunRecord:
    instance: str
    alg: str
    strategy: str
    status: str
    cost: int | None
    time_s: float
    sat_calls: int
    cores: int


def parse_strategy(spec: str):
    """Split "random:16" style strategy specs into (name, k); a bare
    "random" means 16 blocks, and no other strategy takes an argument."""
    name, colon, arg = spec.partition(":")
    if name not in STRATEGIES or (colon and name != "random"):
        raise ValueError(f"unknown strategy {spec!r}")
    if name != "random":
        return name, None
    if not colon:
        return name, 16
    if not arg.isdigit() or int(arg) < 1:
        raise ValueError(f"random partition count must be an integer >= 1, got {arg!r}")
    return name, int(arg)


def apply_strategy(kind: str, parsed, strategy: str, seed: int = 0) -> PartitionedInstance:
    """Turn a parsed wcnf/pwcnf instance into the PartitionedInstance the
    requested strategy dictates. `user` requires pwcnf input."""
    name, k = parse_strategy(strategy)
    base = parsed.base if isinstance(parsed, PartitionedInstance) else parsed
    if name == "user":
        if kind != "pwcnf" or not isinstance(parsed, PartitionedInstance):
            raise ValueError("strategy 'user' requires pwcnf input with partition labels")
        return parsed
    if name == "none":
        return PartitionedInstance.single_block(base)
    if name == "random":
        return random_partition(base, k, seed=seed)
    return partition_by_graph(base, name, seed=seed)


def load_file(path: str, strategy: str, seed: int = 0) -> PartitionedInstance:
    """Read and parse one wcnf/pwcnf file and partition it per strategy.
    Raises OSError, ParseError, or ValueError for an unusable strategy."""
    with open(path, "rb") as fh:
        kind, parsed = detect_and_parse(fh.read())
    return apply_strategy(kind, parsed, strategy, seed=seed)


def solve_file(path: str, alg: str, strategy: str, timeout: float | None, seed: int = 0):
    """Parse, partition per strategy, and solve one file. Returns the
    SolveResult and the partition count used."""
    pinst = load_file(path, strategy, seed)
    res = solve_instance(pinst, AlgorithmKind(alg), budget=timeout)
    return res, pinst.n_part


def _set_mem_limit(mem_limit_mb):
    if mem_limit_mb is None:
        return
    try:
        import resource

        limit = int(mem_limit_mb) * 1024 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    except (ImportError, ValueError, OSError):
        pass


def _bench_worker(task):
    path, alg, strategy, timeout, seed = task
    name = os.path.basename(path)
    start = time.monotonic()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res, _ = solve_file(path, alg, strategy, timeout, seed)
        return RunRecord(
            instance=name,
            alg=alg,
            strategy=strategy,
            status=res.status.value,
            cost=res.cost,
            time_s=round(res.stats.time_s, 6),
            sat_calls=res.stats.sat_calls,
            cores=res.stats.cores,
        )
    except MemoryError:
        return RunRecord(name, alg, strategy, "oom", None, time.monotonic() - start, 0, 0)
    except Exception:
        traceback.print_exc()
        return RunRecord(name, alg, strategy, "error", None, time.monotonic() - start, 0, 0)


def run_benchmark(
    corpus,
    algs,
    strategies,
    timeout: float | None = None,
    jobs: int = 1,
    seed: int = 0,
    mem_limit_mb: int | None = None,
):
    """One RunRecord per (instance, algorithm, strategy), each run in one of
    `jobs` worker processes; per-run crashes, and runs lost with a worker
    process that died, are recorded as status=error and the harness
    continues."""
    tasks = [
        (str(path), alg, strategy, timeout, seed)
        for path in sorted(corpus)
        for alg in algs
        for strategy in strategies
    ]
    if not tasks:
        return []
    # imported here, so that importing the package for the solve path does
    # not load the process pool machinery (about 1 MB of RSS)
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    # every run is in a worker, so that the memory limit applies at any job
    # count and never to the caller's own process
    ctx = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(
        max(jobs, 1), mp_context=ctx, initializer=_set_mem_limit, initargs=(mem_limit_mb,)
    ) as pool:
        futures = [pool.submit(_bench_worker, task) for task in tasks]
    records = []
    for (path, alg, strategy, _, _), fut in zip(tasks, futures):
        try:
            records.append(fut.result())
        except BrokenProcessPool as exc:  # a dead worker fails every run not yet done
            print(f"error: {path} {alg} {strategy}: {exc}", file=sys.stderr)
            records.append(RunRecord(os.path.basename(path), alg, strategy, "error", None, 0.0, 0, 0))
    records.sort(key=lambda r: (r.instance, r.alg, r.strategy))
    return records


def write_csv(records, fh) -> None:
    rows = (
        [r.instance, r.alg, r.strategy, r.status, "" if r.cost is None else r.cost,
         f"{r.time_s:.6f}", r.sat_calls, r.cores]
        for r in records
    )
    write_rows_csv(rows, CSV_COLUMNS, fh)


def solved_counts(records) -> dict:
    """(alg, strategy) -> number of runs that reached a proven optimum."""
    out: dict = {}
    for r in records:
        key = (r.alg, r.strategy)
        out.setdefault(key, 0)
        if r.status == Status.OPTIMUM.value:
            out[key] += 1
    return out


def summary_table(records, algs, strategies) -> str:
    """Solved-instance counts, one row per algorithm, one column per strategy."""
    counts = solved_counts(records)
    width = max([8] + [len(s) + 2 for s in strategies])
    header = "alg".ljust(8) + "".join(s.rjust(width) for s in strategies)
    lines = [header]
    for alg in algs:
        row = alg.ljust(8)
        for s in strategies:
            row += str(counts.get((alg, s), 0)).rjust(width)
        lines.append(row)
    return "\n".join(lines) + "\n"


def cactus_rows(records):
    """Per configuration: solve times of solved instances, sorted ascending,
    with a 1-based rank. Rows: (alg, strategy, rank, time_s)."""
    by_cfg: dict = {}
    for r in records:
        if r.status == Status.OPTIMUM.value:
            by_cfg.setdefault((r.alg, r.strategy), []).append(r.time_s)
    rows = []
    for (alg, strategy) in sorted(by_cfg):
        for rank, t in enumerate(sorted(by_cfg[(alg, strategy)]), start=1):
            rows.append((alg, strategy, rank, t))
    return rows


def scatter_rows(records, cfg_a, cfg_b):
    """Per-instance time pairs for two (alg, strategy) configurations,
    aligned by instance id. Rows: (instance, time_a, status_a, time_b, status_b)."""
    a_map = {r.instance: r for r in records if (r.alg, r.strategy) == tuple(cfg_a)}
    b_map = {r.instance: r for r in records if (r.alg, r.strategy) == tuple(cfg_b)}
    rows = []
    for name in sorted(set(a_map) & set(b_map)):
        ra, rb = a_map[name], b_map[name]
        rows.append((name, ra.time_s, ra.status, rb.time_s, rb.status))
    return rows


def write_rows_csv(rows, header, fh) -> None:
    w = csv.writer(fh)
    w.writerow(header)
    for row in rows:
        w.writerow(row)


def write_reports(records, algs, strategies, out_dir, scatters) -> str:
    """Write results.csv, summary.txt, cactus.csv and one scatter CSV per
    ((alg, strategy), (alg, strategy)) pair in scatters under out_dir.
    Returns the summary table."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "results.csv"), "w", newline="") as fh:
        write_csv(records, fh)
    summary = summary_table(records, algs, strategies)
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write(summary)
    with open(os.path.join(out_dir, "cactus.csv"), "w", newline="") as fh:
        write_rows_csv(cactus_rows(records), ["alg", "strategy", "rank", "time_s"], fh)
    for cfg_a, cfg_b in scatters:
        name = f"scatter_{cfg_a[0]}-{cfg_a[1]}_vs_{cfg_b[0]}-{cfg_b[1]}.csv".replace(":", "-")
        with open(os.path.join(out_dir, name), "w", newline="") as fh:
            write_rows_csv(
                scatter_rows(records, cfg_a, cfg_b),
                ["instance", "time_a", "status_a", "time_b", "status_b"],
                fh,
            )
    return summary
