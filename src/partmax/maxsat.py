"""MaxSAT algorithms and the partition-merge driver.

Four algorithms over one shared incremental SAT solver per run:

- lsu: linear search on a decreasing upper bound (not partition-aware);
- msu3: core-guided with a single weighted counting structure whose input
  set grows with each core;
- oll: core-guided with one counting structure per core and weight-aware
  assumption bookkeeping;
- wbo: core-guided with per-core clause copies, weight splitting and
  at-most-one constraints over the fresh relaxation variables.

The three core-guided algorithms share one driver, the partition-merge
loop: it solves each soft-clause block independently, then repeatedly
merges the two smallest blocks and re-solves the union starting from the
sum of the parts' proven bounds. Solving without partitions is the same
loop over a single block. Soft clauses enter the solver once, guarded;
cores are reported over the guard literals, so all carried state
(relaxation variables, counting structures, bounds) survives merges.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum

from .cards import GenTotalizer, Totalizer, encode_at_most_k
from .cnf import MaxSatInstance, PartitionedInstance, VarAllocator, lit_is_true
from .sat import Solver, SolverTimeout


class AlgorithmKind(str, Enum):
    LSU = "lsu"
    MSU3 = "msu3"
    OLL = "oll"
    WBO = "wbo"


class Status(str, Enum):
    OPTIMUM = "optimum"
    TIMEOUT = "timeout"
    HARD_UNSAT = "hard-unsat"


@dataclass
class SolveStats:
    sat_calls: int = 0
    cores: int = 0
    time_s: float = 0.0
    n_partitions: int = 1
    partition_costs: list = field(default_factory=list)  # (labels tuple, cost)
    bound_trace: list = field(default_factory=list)


@dataclass
class SolveResult:
    status: Status
    cost: int | None
    model: list | None
    lower_bound: int
    stats: SolveStats


class _Run:
    """Shared solver session: hard clauses plus one guarded copy of every
    soft clause; tracks the best model seen across all SAT calls."""

    def __init__(self, inst: MaxSatInstance, budget: float | None = None):
        inst.validate()
        self.inst = inst
        deadline = None if budget is None else time.monotonic() + budget
        self.solver = Solver(deadline=deadline)
        self.alloc = VarAllocator(inst.n_vars)
        self.solver.reserve(inst.n_vars)
        for cl in inst.hard:
            self.solver.add_clause(cl)
        self.guards = []
        for s in inst.soft:
            g = self.alloc.fresh()
            self.solver.reserve(g)
            self.solver.add_clause(tuple(s.lits) + (g,))
            self.guards.append(g)
        self.stats = SolveStats()
        self.best_cost: int | None = None
        self.best_model = None

    def emit(self, cl) -> None:
        self.solver.reserve(self.alloc.top)
        self.solver.add_clause(cl)

    def sat(self, assumps):
        out = self.solver.solve(assumps)
        self.stats.sat_calls += 1
        if out.sat:
            model = out.model[: self.inst.n_vars + 1]
            cost = self.inst.cost_of(model)
            if self.best_cost is None or cost < self.best_cost:
                self.best_cost, self.best_model = cost, model
        return out

    def block_cost(self, model, soft_ids) -> int:
        return sum(
            self.inst.soft[i].weight
            for i in soft_ids
            if not any(lit_is_true(model, lit) for lit in self.inst.soft[i].lits)
        )


def _check_block_optimum(run: _Run, soft_ids, model, lb: int) -> None:
    got = run.block_cost(model, soft_ids)
    if got != lb:
        raise RuntimeError(f"internal error: block cost {got} != proven bound {lb}")


# --------------------------------------------------------------------- msu3


@dataclass
class _Msu3State:
    soft_ids: list
    unrelaxed: list
    tot: GenTotalizer
    lb: int = 0


class _Msu3Engine:
    """One growing weighted counting structure; the bound rises with each core."""

    def __init__(self, run: _Run):
        self.run = run

    def new_state(self, soft_ids) -> _Msu3State:
        return _Msu3State(
            soft_ids=list(soft_ids),
            unrelaxed=sorted(soft_ids),
            tot=GenTotalizer(self.run.alloc, self.run.emit),
        )

    def merge(self, a: _Msu3State, b: _Msu3State) -> _Msu3State:
        a.tot.merge_from(b.tot)
        return _Msu3State(
            soft_ids=a.soft_ids + b.soft_ids,
            unrelaxed=sorted(a.unrelaxed + b.unrelaxed),
            tot=a.tot,
            lb=a.lb + b.lb,
        )

    def solve_block(self, st: _Msu3State):
        run = self.run
        soft = run.inst.soft
        while True:
            bound_lits = st.tot.bound_assumptions(st.lb)
            assumps = [-run.guards[i] for i in st.unrelaxed] + list(bound_lits)
            out = run.sat(assumps)
            if out.sat:
                _check_block_optimum(run, st.soft_ids, out.model, st.lb)
                return st.lb, out.model[: run.inst.n_vars + 1]
            core = out.core
            if not core:
                raise RuntimeError("unexpected empty core after a satisfiable hard check")
            run.stats.cores += 1
            core_guards = sorted(i for i in st.unrelaxed if -run.guards[i] in core)
            bound_hit = any(l in core for l in bound_lits)
            if core_guards:
                minw = min(soft[i].weight for i in core_guards)
                if bound_hit:
                    nxt = st.tot.next_weight_above(st.lb)
                    delta = min(minw, nxt - st.lb)
                else:
                    delta = minw
            else:
                nxt = st.tot.next_weight_above(st.lb)
                delta = nxt - st.lb
            st.tot.add_inputs([(run.guards[i], soft[i].weight) for i in core_guards])
            gone = set(core_guards)
            st.unrelaxed = [i for i in st.unrelaxed if i not in gone]
            st.lb += delta
            run.stats.bound_trace.append(st.lb)


# ---------------------------------------------------------------------- oll


@dataclass
class _OllState:
    soft_ids: list
    pool: dict  # assumption literal -> residual weight
    meta: dict  # assumption literal -> ("soft", id) | ("card", Totalizer, j)
    lb: int = 0


class _OllEngine:
    """One counting structure per core; obligations carry residual weights,
    ladder assumptions pay for each additional violation within a core."""

    def __init__(self, run: _Run):
        self.run = run

    def new_state(self, soft_ids) -> _OllState:
        pool, meta = {}, {}
        for i in sorted(soft_ids):
            lit = -self.run.guards[i]
            pool[lit] = self.run.inst.soft[i].weight
            meta[lit] = ("soft", i)
        return _OllState(soft_ids=list(soft_ids), pool=pool, meta=meta)

    def merge(self, a: _OllState, b: _OllState) -> _OllState:
        return _OllState(
            soft_ids=a.soft_ids + b.soft_ids,
            pool={**a.pool, **b.pool},
            meta={**a.meta, **b.meta},
            lb=a.lb + b.lb,
        )

    def solve_block(self, st: _OllState):
        run = self.run
        while True:
            out = run.sat(sorted(st.pool))
            if out.sat:
                _check_block_optimum(run, st.soft_ids, out.model, st.lb)
                return st.lb, out.model[: run.inst.n_vars + 1]
            core = sorted(out.core)
            if not core:
                raise RuntimeError("unexpected empty core after a satisfiable hard check")
            run.stats.cores += 1
            w_star = min(st.pool[l] for l in core)
            st.lb += w_star
            run.stats.bound_trace.append(st.lb)
            if len(core) == 1 and st.meta[core[0]][0] == "soft":
                # permanently violated soft: harden the entailment and drop it
                run.emit((-core[0],))
                del st.pool[core[0]]
                del st.meta[core[0]]
                continue
            rels = []
            for l in core:
                kind = st.meta[l]
                st.pool[l] -= w_star
                if st.pool[l] == 0:
                    del st.pool[l]
                    del st.meta[l]
                if kind[0] == "card":
                    t, j = kind[1], kind[2]
                    if j + 1 <= t.size:
                        nxt = -t.output(j + 1)
                        if nxt in st.pool:
                            st.pool[nxt] += w_star
                        else:
                            st.pool[nxt] = w_star
                            st.meta[nxt] = ("card", t, j + 1)
                rels.append(-l)
            if len(rels) > 1:
                t = Totalizer(rels, run.alloc, run.emit)
                lit = -t.output(2)
                if lit in st.pool:
                    st.pool[lit] += w_star
                else:
                    st.pool[lit] = w_star
                    st.meta[lit] = ("card", t, 2)


# ---------------------------------------------------------------------- wbo


@dataclass
class _WboState:
    soft_ids: list
    pool: dict  # assumption literal -> (clause lits, residual weight)
    lb: int = 0


class _WboEngine:
    """Per-core weight splitting with fresh relaxation variables and an
    at-most-one constraint over them (sequential-counter encoding)."""

    def __init__(self, run: _Run):
        self.run = run

    def new_state(self, soft_ids) -> _WboState:
        pool = {}
        for i in sorted(soft_ids):
            pool[-self.run.guards[i]] = (tuple(self.run.inst.soft[i].lits), self.run.inst.soft[i].weight)
        return _WboState(soft_ids=list(soft_ids), pool=pool)

    def merge(self, a: _WboState, b: _WboState) -> _WboState:
        return _WboState(
            soft_ids=a.soft_ids + b.soft_ids,
            pool={**a.pool, **b.pool},
            lb=a.lb + b.lb,
        )

    def solve_block(self, st: _WboState):
        run = self.run
        while True:
            out = run.sat(sorted(st.pool))
            if out.sat:
                _check_block_optimum(run, st.soft_ids, out.model, st.lb)
                return st.lb, out.model[: run.inst.n_vars + 1]
            core = sorted(out.core)
            if not core:
                raise RuntimeError("unexpected empty core after a satisfiable hard check")
            run.stats.cores += 1
            w_star = min(st.pool[l][1] for l in core)
            if len(core) == 1:
                # the clause is violated in every model: pay its full weight
                lits, w = st.pool.pop(core[0])
                st.lb += w
                run.stats.bound_trace.append(st.lb)
                continue
            st.lb += w_star
            run.stats.bound_trace.append(st.lb)
            relax = []
            for l in core:
                lits, w = st.pool[l]
                r = run.alloc.fresh()
                b = run.alloc.fresh()
                run.emit(lits + (r, b))
                st.pool[-b] = (lits + (r,), w_star)
                if w == w_star:
                    del st.pool[l]
                else:
                    st.pool[l] = (lits, w - w_star)
                relax.append(r)
            for cl in encode_at_most_k(relax, 1, run.alloc):
                run.emit(cl)


_ENGINES = {
    AlgorithmKind.MSU3: _Msu3Engine,
    AlgorithmKind.OLL: _OllEngine,
    AlgorithmKind.WBO: _WboEngine,
}


# ------------------------------------------------------------------ drivers


def _result(run: _Run, status: Status, cost, model, lb: int, t0: float) -> SolveResult:
    run.stats.time_s = time.monotonic() - t0
    return SolveResult(status=status, cost=cost, model=model, lower_bound=lb, stats=run.stats)


def _timeout_result(run: _Run, lb: int, t0: float) -> SolveResult:
    return _result(run, Status.TIMEOUT, run.best_cost, run.best_model, lb, t0)


def solve_lsu(inst: MaxSatInstance, budget: float | None = None) -> SolveResult:
    """Linear search: relax all softs, tighten the weighted upper bound
    until UNSAT; the last model is optimal."""
    t0 = time.monotonic()
    run = _Run(inst, budget)
    try:
        out = run.sat(())
        if not out.sat:
            return _result(run, Status.HARD_UNSAT, None, None, 0, t0)
        run.stats.bound_trace.append(run.best_cost)
        if run.best_cost == 0:
            return _result(run, Status.OPTIMUM, 0, run.best_model, 0, t0)
        tot = GenTotalizer(run.alloc, run.emit, cap=run.best_cost)
        tot.add_inputs(
            [(run.guards[i], s.weight) for i, s in enumerate(inst.soft)]
        )
        forbidden = set()
        while True:
            for w, lit in sorted(tot.outs.items()):
                if w > run.best_cost - 1 and w not in forbidden:
                    run.emit((-lit,))
                    forbidden.add(w)
            out = run.sat(())
            if not out.sat:
                return _result(
                    run, Status.OPTIMUM, run.best_cost, run.best_model, run.best_cost, t0
                )
            run.stats.bound_trace.append(run.best_cost)
            if run.best_cost == 0:
                return _result(run, Status.OPTIMUM, 0, run.best_model, 0, t0)
    except SolverTimeout:
        return _timeout_result(run, 0, t0)


def solve_msu3(inst: MaxSatInstance, budget: float | None = None) -> SolveResult:
    return solve_partitioned(PartitionedInstance.single_block(inst), AlgorithmKind.MSU3, budget)


def solve_oll(inst: MaxSatInstance, budget: float | None = None) -> SolveResult:
    return solve_partitioned(PartitionedInstance.single_block(inst), AlgorithmKind.OLL, budget)


def solve_wbo(inst: MaxSatInstance, budget: float | None = None) -> SolveResult:
    return solve_partitioned(PartitionedInstance.single_block(inst), AlgorithmKind.WBO, budget)


def select_partitions(sizes) -> tuple:
    """Pick the two blocks with the fewest soft clauses from (label, size)
    pairs; ties break toward the lowest label. Returns their labels."""
    if len(sizes) < 2:
        raise ValueError("need at least two partitions to select from")
    ordered = sorted(sizes, key=lambda ls: (ls[1], ls[0]))
    pair = sorted([ordered[0][0], ordered[1][0]])
    return pair[0], pair[1]


def solve_partitioned(
    pinst: PartitionedInstance,
    alg: AlgorithmKind | str,
    budget: float | None = None,
) -> SolveResult:
    """Partition-merge driver: solve every block, then repeatedly merge the
    two smallest blocks and re-solve with carried state until one remains.

    A single block is the unpartitioned algorithm. An instance without soft
    clauses is solved as one empty block. The driver requires a core-guided
    algorithm; lsu is bound-driven and is rejected.
    """
    alg = AlgorithmKind(alg)
    if alg == AlgorithmKind.LSU:
        raise ValueError("lsu is not core-driven; partitioning does not apply")
    pinst.validate()
    inst = pinst.base
    t0 = time.monotonic()
    run = _Run(inst, budget)
    engine = _ENGINES[alg](run)
    blocks = pinst.blocks() or {1: []}
    run.stats.n_partitions = len(blocks)
    parts: dict = {}
    try:
        if not run.sat(()).sat:
            return _result(run, Status.HARD_UNSAT, None, None, 0, t0)
        for label, ids in blocks.items():
            st = engine.new_state(ids)
            parts[label] = (st, (label,))
            cost, model = engine.solve_block(st)
            run.stats.partition_costs.append(((label,), cost))
        while len(parts) > 1:
            sizes = [(label, len(st.soft_ids)) for label, (st, _) in parts.items()]
            la, lb_ = select_partitions(sizes)
            (sa, names_a) = parts.pop(la)
            (sb, names_b) = parts.pop(lb_)
            merged = engine.merge(sa, sb)
            names = tuple(sorted(names_a + names_b))
            parts[min(la, lb_)] = (merged, names)
            cost, model = engine.solve_block(merged)
            run.stats.partition_costs.append((names, cost))
        return _result(run, Status.OPTIMUM, cost, model, cost, t0)
    except SolverTimeout:
        return _timeout_result(run, sum(st.lb for st, _ in parts.values()), t0)


def solve_instance(
    pinst: PartitionedInstance,
    alg: AlgorithmKind | str,
    budget: float | None = None,
) -> SolveResult:
    """Dispatch: lsu always solves the whole instance (labels ignored);
    core-guided algorithms go through the partition driver."""
    alg = AlgorithmKind(alg)
    if alg == AlgorithmKind.LSU:
        res = solve_lsu(pinst.base, budget)
        res.stats.n_partitions = len(pinst.blocks()) or 1
        return res
    return solve_partitioned(pinst, alg, budget)
