"""Spans and counters recorded around the public boundaries of each layer.

The tracer patches names from the outside and restores them on uninstall;
nothing in the package changes. Functions are wrapped in the module that
defines them, because callers inside that module look them up there at
call time. Methods are wrapped on their classes, because maxsat imports
Solver, Totalizer and GenTotalizer by name, so patching a module attribute
would miss those calls.

A span is [name, start, end, parent index, job id]. The layer of a span is
the part of its name before the first dot. Spans stay in memory and are
written out once, when the benchmark ends.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

SAT_COUNTERS = ("conflicts", "decisions", "propagations", "restarts")

RATIOS = ("graphs.q", "maxsat.core_yield", "trace.coverage")


def unit_of(metric: str) -> str:
    if metric == "formats.parse_mb_per_s":
        return "MB/s"
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s") or "_s." in metric:
        return "s"
    return "ratio" if metric in RATIOS else "count"


class Tracer:
    def __init__(self, mods):
        self.mods = mods
        self.spans: list = []
        self.stack: list = []
        self.job = None
        # job id -> counter name -> value; job None is set-up
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self.q_values: dict = defaultdict(list)  # job id -> modularity per detection
        self.merge_marks: dict = defaultdict(list)  # job id -> select_partitions times
        self._patches: list = []

    # ----------------------------------------------------------- wrapping

    def _count(self, key, n=1):
        self.counts[self.job][key] += n

    def _span(self, name, fn, before=None, after=None):
        """Wrap fn in a span; before(*args) returns a context for after(ctx, out)."""
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ctx = before(*args, **kwargs) if before else None
            rec = [name, clock(), None, stack[-1] if stack else None, self.job]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after:
                after(ctx, out)
            return out

        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        m = self.mods
        fmt, graphs, cards, sat, maxsat, enc = (
            m.formats, m.graphs, m.cards, m.sat, m.maxsat, m.encoders
        )

        # formats
        def parse_before(text):
            self._count("formats.parse_bytes", len(text))

        self._patch(fmt, "detect_and_parse",
                    self._span("formats.parse", fmt.detect_and_parse, parse_before))
        self._patch(fmt, "write_solution", self._span("formats.write", fmt.write_solution))

        # graphs
        def graph_after(_, g):
            self._count("graphs.nodes", len(g.adj))
            self._count("graphs.edges", sum(len(nbrs) for nbrs in g.adj.values()) // 2)

        for kind in ("vig", "cvig", "res"):
            fn = getattr(graphs, f"build_{kind}")
            self._patch(graphs, f"build_{kind}",
                        self._span(f"graphs.build.{kind}", fn, after=graph_after))

        def detect_after(_, ca):
            self._count("graphs.phases", len(ca.phase_q))
            self.q_values[self.job].append(ca.q)

        self._patch(graphs, "detect_communities",
                    self._span("graphs.detect", graphs.detect_communities, after=detect_after))
        self._patch(graphs, "modularity", self._span("graphs.modularity", graphs.modularity))
        self._patch(graphs, "derive_partitions",
                    self._span("graphs.derive", graphs.derive_partitions))

        # cards: auxiliary variables are read off the allocator the encoding draws from
        def tot_before(tot, inputs, alloc, emit):
            return alloc, alloc.top

        def gen_before(gt, *_):
            return gt.alloc, gt.alloc.top

        def aux_after(ctx, _):
            alloc, top0 = ctx
            self._count("cards.aux_vars", alloc.top - top0)

        self._patch(cards.Totalizer, "__init__",
                    self._span("cards.totalizer", cards.Totalizer.__init__, tot_before, aux_after))
        for meth in ("add_inputs", "merge_from"):
            fn = getattr(cards.GenTotalizer, meth)
            self._patch(cards.GenTotalizer, meth,
                        self._span(f"cards.gentotalizer.{meth}", fn, gen_before, aux_after))

        # sat: counters are differences of Solver.stats across each call
        def solve_before(solver, *_):
            return solver, {k: solver.stats[k] for k in SAT_COUNTERS}

        def solve_after(ctx, _):
            solver, before = ctx
            self._count("sat.calls")
            for k in SAT_COUNTERS:
                self._count(f"sat.{k}", solver.stats[k] - before[k])

        self._patch(sat.Solver, "solve",
                    self._span("sat.solve", sat.Solver.solve, solve_before, solve_after))
        add_clause = sat.Solver.add_clause
        spans, stack = self.spans, self.stack

        @functools.wraps(add_clause)
        def counted_add_clause(solver, lits):
            self._count("sat.clauses_added")
            if stack and spans[stack[-1]][0].startswith("cards."):
                self._count("cards.clauses")
            return add_clause(solver, lits)

        self._patch(sat.Solver, "add_clause", counted_add_clause)

        # maxsat: select_partitions runs once per merge, after the block solves
        def solved(_, res):
            self._count("maxsat.blocks", res.stats.n_partitions)
            self._count("maxsat.cores", res.stats.cores)

        self._patch(maxsat, "solve_instance",
                    self._span("maxsat.solve", maxsat.solve_instance, after=solved))
        select = maxsat.select_partitions

        @functools.wraps(select)
        def marked_select(sizes):
            self.merge_marks[self.job].append(time.perf_counter())
            return select(sizes)

        self._patch(maxsat, "select_partitions", marked_select)

        # encoders (set-up only)
        for fn_name in ("gen_msc", "gen_seating", "encode_msc", "encode_seating"):
            self._patch(enc, fn_name, self._span("encoders.gen", getattr(enc, fn_name)))

    def uninstall(self):
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    # ------------------------------------------------------------ results

    def job_counts(self, job) -> dict:
        """Non-timing fields of one job, for the determinism check."""
        c = self.counts[job]
        out = {k: c[k] for k in (
            "sat.calls", "sat.conflicts", "sat.propagations",
            "maxsat.cores", "maxsat.blocks", "graphs.nodes", "graphs.edges",
        )}
        out["graphs.q"] = self.q_values[job]
        return out

    def self_times(self) -> dict:
        """Layer -> time in its job spans minus the time of their child spans."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _, t0, t1, parent, _ in spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        out = defaultdict(float)
        for i, (name, t0, t1, _, job) in enumerate(spans):
            if job is not None:
                out[name.split(".", 1)[0]] += (t1 - t0) - child_time[i]
        return dict(out)

    def layer_metrics(self, wall_s: float) -> dict:
        """Per-layer metrics over the job spans (job id set), plus the
        encoders' set-up spans. wall_s is the traced loop's wall time."""
        spans = self.spans

        def layer(i):
            return spans[i][0].split(".", 1)[0]

        def total(pred, outermost=True):
            """Summed duration of matching spans; outermost skips a span
            nested in another span of its own layer."""
            s = 0.0
            for i, (name, t0, t1, parent, job) in enumerate(spans):
                if not pred(name, job):
                    continue
                if outermost and parent is not None and layer(parent) == layer(i):
                    continue
                s += t1 - t0
            return s

        def named(prefix):
            return lambda name, job: job is not None and name.startswith(prefix)

        counts = defaultdict(int)
        for job, c in self.counts.items():
            if job is not None:
                for k, v in c.items():
                    counts[k] += v
        qs = [q for job, vals in self.q_values.items() if job is not None for q in vals]

        # maxsat.block_s runs from solve start to the first merge; merge_s after it
        block_s = merge_s = 0.0
        for name, t0, t1, _, job in spans:
            if name == "maxsat.solve" and job is not None:
                marks = [t for t in self.merge_marks[job] if t0 <= t <= t1]
                split = marks[0] if marks else t1
                block_s += split - t0
                merge_s += t1 - split
        merges = sum(len(v) for job, v in self.merge_marks.items() if job is not None)

        parse_s = total(named("formats.parse"))
        sat_s = total(named("sat."))
        covered = sum(
            t1 - t0 for _, t0, t1, parent, job in spans if job is not None and parent is None
        )

        def per_s(n, s):
            return n / s if s > 0 else 0.0

        m = {
            "formats.parse_s": parse_s,
            "formats.parse_mb_per_s": per_s(counts["formats.parse_bytes"] / 1e6, parse_s),
            "formats.write_s": total(named("formats.write")),
            "graphs.build_s.vig": total(named("graphs.build.vig")),
            "graphs.build_s.cvig": total(named("graphs.build.cvig")),
            "graphs.build_s.res": total(named("graphs.build.res")),
            "graphs.detect_s": total(named("graphs.detect")),
            "graphs.modularity_s": total(named("graphs.modularity"), outermost=False),
            "graphs.derive_s": total(named("graphs.derive")),
            "graphs.nodes": counts["graphs.nodes"],
            "graphs.edges": counts["graphs.edges"],
            "graphs.phases": counts["graphs.phases"],
            "graphs.q": sum(qs) / len(qs) if qs else 0.0,
            "cards.build_s": total(named("cards.")),
            "cards.clauses": counts["cards.clauses"],
            "cards.aux_vars": counts["cards.aux_vars"],
            "sat.solve_s": sat_s,
            "sat.calls": counts["sat.calls"],
            "sat.conflicts": counts["sat.conflicts"],
            "sat.decisions": counts["sat.decisions"],
            "sat.propagations": counts["sat.propagations"],
            "sat.restarts": counts["sat.restarts"],
            "sat.props_per_s": per_s(counts["sat.propagations"], sat_s),
            "sat.conflicts_per_s": per_s(counts["sat.conflicts"], sat_s),
            "sat.clauses_added": counts["sat.clauses_added"],
            "maxsat.self_s": self.self_times().get("maxsat", 0.0),
            "maxsat.block_s": block_s,
            "maxsat.merge_s": merge_s,
            "maxsat.blocks": counts["maxsat.blocks"],
            "maxsat.merges": merges,
            "maxsat.cores": counts["maxsat.cores"],
            "maxsat.core_yield": per_s(counts["maxsat.cores"], counts["sat.calls"]),
            "encoders.gen_s": total(lambda name, job: job is None and name == "encoders.gen"),
            "trace.coverage": per_s(covered, wall_s),
        }
        return {k: (v, unit_of(k)) for k, v in m.items()}

    def dump(self) -> list:
        return [
            {"name": n, "start": t0, "end": t1, "parent": p, "job": j}
            for n, t0, t1, p, j in self.spans
        ]
