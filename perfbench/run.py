#!/usr/bin/env python3
"""End-to-end benchmark of partmax: pwcnf bytes -> parse -> partition ->
solve -> solution text, through the package's public API.

    python3 perfbench/run.py --workload seating-trend --seed 0 --seconds 30 --trace 0

One workload runs as a closed loop with a single client and no threads:
the next job starts when the previous one has finished. The loop takes
instances in corpus order and runs every (algorithm, strategy) pair of the
workload on each. With --trace 0 it is split into WORKERS slices, each run
by a fresh worker process after the previous one has exited, so only one
process does work at any time. Each worker first sets up (import, corpus
generation, encoding, write_pwcnf), then runs its slice of --seconds and
stops at the first instance boundary after it; the next worker continues
with the next instance. The last worker stops only after a whole round of
the workload's strata, so every run solves the same mix of instance sizes.
setup_s is the median of the workers' set-up times and peak_rss_mb the
median of their peak RSS, so that a single memory-hungry job does not
decide the figure. Every job's output is verified afterwards in the parent
process (see verify.py).

With --trace 1 the run instead reports per-layer metrics: it runs the loop
untraced for a third of --seconds, then runs the same instances with the
layer boundaries wrapped (see tracer.py), then untraced once more, and
writes the spans and per-job records to --out.

Progress and the verification report go to standard output; the last line
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import types
from collections import Counter
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, HERE)

from tracer import Tracer  # noqa: E402
from verify import Gate  # noqa: E402
from workloads import SEED_STRIDE, WORKLOADS  # noqa: E402

MODULES = ("formats", "graphs", "cards", "sat", "maxsat", "encoders", "bench")
WORKERS = 7  # fresh processes that run the untraced loop one after another
WORKER_TIMEOUT_S = 120
TAIL_BEYOND = 10  # jobs that should lie beyond the tail percentile
GOLDEN = os.path.join(HERE, "golden.json")


@dataclass
class Instance:
    name: str
    index: int  # position in the corpus; draw() rebuilds it from this
    text: bytes


def import_partmax():
    """Import the package afresh from this checkout's src/ directory."""
    for name in [n for n in sys.modules if n == "partmax" or n.startswith("partmax.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    pkg = importlib.import_module("partmax")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise ImportError(f"partmax was imported from {pkg.__file__}, not from {SRC}")
    return types.SimpleNamespace(**{m: importlib.import_module(f"partmax.{m}") for m in MODULES})


def draw(mods, wl, seed, index):
    """The encoder's PartitionedInstance for one instance of a seed's corpus."""
    enc = mods.encoders
    if wl.family == "msc":
        config, gen, encode = enc.MscGenConfig, enc.gen_msc, enc.encode_msc
    else:
        config, gen, encode = enc.SeatingGenConfig, enc.gen_seating, enc.encode_seating
    cfg = config(**wl.gen, **wl.strata[index % len(wl.strata)])
    return encode(gen(cfg, seed * SEED_STRIDE + index), enc.SchemeChoice(wl.scheme))


def make_corpus(mods, wl, seed) -> list:
    """The seed's corpus as pwcnf bytes. Only the bytes are kept, so that
    peak_rss_mb reflects the jobs rather than the benchmark's own data."""
    return [
        Instance(
            f"{wl.family}-{seed * SEED_STRIDE + i}", i,
            mods.formats.write_pwcnf(draw(mods, wl, seed, i)).encode(),
        )
        for i in range(wl.corpus_size)
    ]


def run_job(mods, job, inst, alg, strategy, budget) -> dict:
    rec = {"job": job, "instance": inst.name, "index": inst.index, "alg": alg,
           "strategy": strategy, "error": None}
    rec["start"] = time.perf_counter()
    try:
        kind, parsed = mods.formats.detect_and_parse(inst.text)
        pinst = mods.bench.apply_strategy(kind, parsed, strategy)
        res = mods.maxsat.solve_instance(pinst, alg, budget=budget)
        text = mods.formats.write_solution(res)
    except Exception as exc:  # a failed job is counted, the loop goes on
        rec["end"] = time.perf_counter()
        rec["error"] = f"{type(exc).__name__}: {exc}"
        return rec
    rec["end"] = time.perf_counter()
    rec.update(
        status=res.status.value, cost=res.cost, model=res.model, text=text,
        labels=",".join(str(s.part) for s in pinst.base.soft),
    )
    return rec


def closed_loop(mods, corpus, wl, seconds=None, n_instances=None, tracer=None, start=0,
                align=1):
    """Run whole instances, from corpus position `start` on, until `seconds`
    have passed or `n_instances` ran. A time-bounded loop stops only where
    the next corpus position is a multiple of `align`. Returns the job
    records and the loop's wall time."""
    records = []
    t_start = time.perf_counter()
    i = 0
    while True:
        inst = corpus[(start + i) % len(corpus)]
        for alg, strategy in wl.matrix:
            if tracer:
                tracer.job = len(records)
            records.append(run_job(mods, len(records), inst, alg, strategy, wl.job_budget_s))
            if tracer:
                tracer.job = None
        i += 1
        if n_instances is not None and i >= n_instances:
            break
        if (seconds is not None and time.perf_counter() - t_start >= seconds
                and (start + i) % align == 0):
            break
    return records, time.perf_counter() - t_start


def verify_records(mods, wl, seed, records) -> Gate:
    """Check every job against a freshly drawn reference instance, one
    instance at a time, then check agreement and the golden verdicts."""
    gate = Gate()
    by_instance: dict = {}
    for rec in records:
        by_instance.setdefault(rec["index"], []).append(rec)
    for index, recs in by_instance.items():
        ref = draw(mods, wl, seed, index)
        for rec in recs:
            gate.job(rec, ref)
    gate.agreement(records)
    verdicts = Counter(r.get("status", "error") for r in records)
    print("verdicts: " + ", ".join(f"{n} {v}" for v, n in sorted(verdicts.items())))
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    if seed == golden["seed"]:
        n = gate.golden(records, golden["workloads"][wl.name])
        print(f"golden: {n} of {len(records)} jobs have a recorded verdict for seed {seed}")
    else:
        print(f"golden: verdicts are recorded for seed {golden['seed']} only")
    for line in gate.report():
        print(line)
    return gate


def describe_corpus(records, corpus, wall):
    sizes = {inst.name: len(inst.text) for inst in corpus}
    names = {r["instance"] for r in records}
    kib = sum(sizes[n] for n in names) / 1024
    print(
        f"ran {len(records)} jobs on {len(names)} instances "
        f"({kib:.0f} KiB of pwcnf, {kib / max(len(names), 1):.1f} KiB each) "
        f"in {wall:.2f} s: closed loop, 1 client"
    )


def end_to_end(records, gate, wl, wall) -> dict:
    n = len(records)
    lat = sorted(r["end"] - r["start"] for r in records)
    failed = len(gate.failed_jobs)
    # nearest-rank percentile, fixed per workload so that a faster or slower
    # program is compared at the same percentile
    rank = math.ceil(wl.tail_pct / 100 * n)
    tail = lat[rank - 1]
    print(f"job_tail_s is p{wl.tail_pct:g}: {n - rank} of {n} job latencies lie beyond it"
          + ("" if n - rank >= TAIL_BEYOND else f" (fewer than {TAIL_BEYOND})"))
    print(f"fail_ratio = {failed / n:.4f} ({failed} of {n} jobs without a verified verdict)")
    return {
        "jobs_per_s": ((n - failed) / wall, "1/s"),
        "job_p50_s": (statistics.median(lat), "s"),
        "job_tail_s": (tail, "s"),
        "verified_ratio": ((n - failed) / n, "ratio"),
    }


def span_self_check(tracer, metrics, wl) -> bool:
    fired = {s[0].split(".", 1)[0] for s in tracer.spans if s[4] is not None}
    ok = True
    for layer in wl.exercises:
        good = layer in fired
        ok &= good
        print(f"span self-check: {layer} spans fire on {wl.name}: {'ok' if good else 'FAILED'}")
    for layer in wl.bypasses:
        nonzero = [k for k, (v, _) in metrics.items() if k.startswith(layer + ".") and v != 0]
        good = layer not in fired and not nonzero
        ok &= good
        print(f"span self-check: {layer} spans read zero on {wl.name}: "
              f"{'ok' if good else 'FAILED ' + ','.join(nonzero)}")
    good = metrics["encoders.gen_s"][0] > 0
    ok &= good
    print(f"span self-check: encoders spans fire in set-up: {'ok' if good else 'FAILED'}")
    print(f"span coverage: top-level job spans cover {100 * metrics['trace.coverage'][0]:.1f}% "
          f"of the traced loop's wall time")
    return ok


def per_layer(args, wl):
    mods = import_partmax()
    tracer = Tracer(mods)
    tracer.install()
    corpus = make_corpus(mods, wl, args.seed)
    tracer.uninstall()
    # untraced, traced, untraced over the same instances; the overhead is
    # measured against the mean of the two untraced passes
    plain, before = closed_loop(mods, corpus, wl, seconds=args.seconds / 3,
                                align=len(wl.strata))
    n_instances = len(plain) // len(wl.matrix)
    tracer.install()
    try:
        records, wall = closed_loop(mods, corpus, wl, n_instances=n_instances, tracer=tracer)
    finally:
        tracer.uninstall()
    _, after = closed_loop(mods, corpus, wl, n_instances=n_instances)
    plain_wall = (before + after) / 2
    print(f"untraced passes: {len(plain)} jobs in {before:.2f} s and {after:.2f} s")
    describe_corpus(records, corpus, wall)
    gate = verify_records(mods, wl, args.seed, records)
    metrics = tracer.layer_metrics(wall)
    metrics["trace.overhead_s"] = (wall - plain_wall, "s")
    checked = span_self_check(tracer, metrics, wl)
    print("self time by layer: " + ", ".join(
        f"{layer} {t:.3f} s" for layer, t in sorted(tracer.self_times().items())))
    os.makedirs(args.out, exist_ok=True)
    jobs = []
    for rec in records:
        row = {k: v for k, v in rec.items() if k not in ("model", "text", "start", "end")}
        row["latency_s"] = rec["end"] - rec["start"]
        row.update(tracer.job_counts(rec["job"]))
        jobs.append(row)
    path = os.path.join(args.out, f"trace-{wl.name}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": wl.name, "seed": args.seed, "jobs": jobs,
                   "spans": tracer.dump()}, fh)
    print(f"wrote {len(tracer.spans)} spans and {len(jobs)} job records to {path}")
    return gate, records, metrics, checked


def worker(args, wl):
    """One slice of the untraced loop, in a fresh process: set up, run the
    loop from corpus position --worker-start for --seconds, and print the
    set-up time, loop wall time, peak RSS and job records as one JSON line."""
    t0 = time.perf_counter()
    mods = import_partmax()
    corpus = make_corpus(mods, wl, args.seed)
    setup = time.perf_counter() - t0
    records, wall = closed_loop(mods, corpus, wl, seconds=args.seconds, start=args.worker_start,
                                align=args.worker_align)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"setup": setup, "wall": wall, "peak_rss_mb": rss, "records": records}))
    return 0


def run_worker(args, wl, start, seconds, align) -> dict:
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", wl.name,
        "--seed", str(args.seed), "--seconds", repr(seconds), "--worker-start", str(start),
        "--worker-align", str(align),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def untraced(args, wl):
    setups, peaks, records = [], [], []
    start, wall = 0, 0.0
    for k in range(WORKERS):
        # each slice gets an equal share of the time the earlier slices left;
        # the last one ends on a whole round of the workload's strata, so that
        # every run solves the same mix of instance sizes
        last = k == WORKERS - 1
        out = run_worker(args, wl, start, max(args.seconds - wall, 0.0) / (WORKERS - k),
                         len(wl.strata) if last else 1)
        for rec in out["records"]:
            rec["job"] = len(records)
            records.append(rec)
        setups.append(out["setup"])
        peaks.append(out["peak_rss_mb"])
        wall += out["wall"]
        start += len(out["records"]) // len(wl.matrix)
    print("setup_s samples: " + " ".join(f"{s:.4f}" for s in setups))
    print("worker peak RSS (MB): " + " ".join(f"{p:.1f}" for p in peaks))
    mods = import_partmax()
    describe_corpus(records, make_corpus(mods, wl, args.seed), wall)
    gate = verify_records(mods, wl, args.seed, records)
    metrics = end_to_end(records, gate, wl, wall)
    metrics["peak_rss_mb"] = (statistics.median(peaks), "MB")
    metrics["setup_s"] = (statistics.median(setups), "s")
    return gate, records, metrics, True


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=os.path.join(HERE, "out"),
                    help="directory for the traced run's spans and job records")
    ap.add_argument("--worker-start", type=int, default=None, help=argparse.SUPPRESS)
    ap.add_argument("--worker-align", type=int, default=1, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not os.path.isdir(os.path.join(SRC, "partmax")):
        print(f"error: no partmax package under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    if args.worker_start is not None:
        return worker(args, wl)
    print(f"workload {wl.name}, seed {args.seed}: {wl.why}")
    gate, records, metrics, checked = (per_layer if args.trace else untraced)(args, wl)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    failed = len(gate.failed_jobs)
    result = {
        "correct": failed == 0 and checked,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
