"""MaxSAT algorithms and the partition-merge driver, behind one entry point:
`solve_instance(pinst, alg, budget)`.

lsu is a linear search on a decreasing upper bound over the whole instance.
msu3, oll and wbo are core-guided and share one driver: it solves every
soft-clause block, then repeatedly merges the two smallest blocks and
re-solves the union from the sum of the parts' proven bounds; solving
without partitions is one block. One SAT loop, `_solve_block`, serves every
block of every core-guided algorithm; an engine supplies only what differs:
``new_state(soft_ids)`` and ``merge(a, b)`` build its carried state,
``assumptions(state, lb)`` gives the literals to assume at bound lb, and
``relax(state, core, lb)`` relaxes a core and returns the bound increase.

- msu3: one weighted counting structure whose inputs grow with each core;
- oll: one counting structure per core, weight-aware assumptions;
- wbo: per-core clause copies, weight splitting and an at-most-one
  constraint over the fresh relaxation variables.

Soft clauses enter the solver once, guarded; cores are reported over the
guard literals, so all carried state survives merges.
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
    """bound_trace holds upper bounds for lsu, one per better model; for the
    core-guided algorithms, one instance-wide lower bound per core: the sum
    of the proven bounds of all blocks, which ends at the cost."""

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
    """Shared solver session over a validated instance: hard clauses plus
    one guarded copy of every soft clause; tracks the best model seen
    across all SAT calls."""

    def __init__(self, inst: MaxSatInstance, budget: float | None = None):
        self.inst = inst
        deadline = None if budget is None else time.monotonic() + budget
        self.solver = Solver(deadline=deadline)
        n_guarded = inst.n_vars + len(inst.soft)
        self.alloc = VarAllocator(n_guarded)
        self.solver.reserve(n_guarded)
        for cl in inst.hard:
            self.solver.add_clause(cl)
        self.guards = range(inst.n_vars + 1, n_guarded + 1)  # guard of soft i
        for s, g in zip(inst.soft, self.guards):
            self.solver.add_clause(tuple(s.lits) + (g,))
        self.stats = SolveStats()
        self.best_cost: int | None = None
        self.best_model = None
        self.lb = 0  # sum of the proven bounds of all blocks

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


@dataclass
class _Block:
    """A block of soft clauses: their ids, the engine's carried state and
    the block's proven lower bound."""

    soft_ids: list
    state: object
    lb: int = 0


def _solve_block(run: _Run, engine, blk: _Block):
    """The core-guided loop: relax cores and raise the bound until the
    engine's assumptions are satisfiable. Returns the block's (cost, model)."""
    while True:
        out = run.sat(engine.assumptions(blk.state, blk.lb))
        if out.sat:
            model = out.model[: run.inst.n_vars + 1]
            got = run.block_cost(model, blk.soft_ids)
            if got != blk.lb:
                raise RuntimeError(f"internal error: block cost {got} != proven bound {blk.lb}")
            return blk.lb, model
        if not out.core:
            raise RuntimeError("unexpected empty core after a satisfiable hard check")
        run.stats.cores += 1
        delta = engine.relax(blk.state, out.core, blk.lb)
        blk.lb += delta
        run.lb += delta
        run.stats.bound_trace.append(run.lb)


# --------------------------------------------------------------------- msu3


class _Msu3Engine:
    """State: (sorted unrelaxed soft ids, GenTotalizer over the relaxed
    ones). A core moves its softs into the totalizer and raises the bound by
    their least weight, or to the next reachable sum if that is nearer."""

    def __init__(self, run: _Run):
        self.run = run

    def new_state(self, soft_ids):
        return sorted(soft_ids), GenTotalizer(self.run.alloc, self.run.emit)

    def merge(self, a, b):
        (unrelaxed_a, tot), (unrelaxed_b, tot_b) = a, b
        tot.merge_from(tot_b)
        return sorted(unrelaxed_a + unrelaxed_b), tot

    def assumptions(self, state, lb):
        unrelaxed, tot = state
        return [-self.run.guards[i] for i in unrelaxed] + list(tot.bound_assumptions(lb))

    def relax(self, state, core, lb) -> int:
        unrelaxed, tot = state
        run = self.run
        soft = run.inst.soft
        core_guards = sorted(i for i in unrelaxed if -run.guards[i] in core)
        # the core is a nonempty subset of the assumptions: guards of
        # unrelaxed softs, then the totalizer's bound literals
        steps = [soft[i].weight for i in core_guards]
        if len(core) > len(core_guards):
            steps.append(tot.next_weight_above(lb) - lb)
        delta = min(steps)
        tot.add_inputs([(run.guards[i], soft[i].weight) for i in core_guards])
        gone = set(core_guards)
        unrelaxed[:] = [i for i in unrelaxed if i not in gone]
        return delta


# ---------------------------------------------------------------------- oll


class _OllEngine:
    """State: (pool, cards), assumption literal -> residual weight, and
    totalizer output literal -> (Totalizer, j); a pool literal outside cards
    is a soft guard. A core costs its least weight; ladder assumptions pay
    for each additional violation within a core."""

    def __init__(self, run: _Run):
        self.run = run

    def new_state(self, soft_ids):
        pool = {}
        for i in sorted(soft_ids):
            pool[-self.run.guards[i]] = self.run.inst.soft[i].weight
        return pool, {}

    def merge(self, a, b):
        (pool_a, cards_a), (pool_b, cards_b) = a, b
        return {**pool_a, **pool_b}, {**cards_a, **cards_b}

    def assumptions(self, state, lb):
        pool, _ = state
        return sorted(pool)

    def relax(self, state, core, lb) -> int:
        pool, cards = state
        run = self.run
        core = sorted(core)
        w_star = min(pool[l] for l in core)
        if len(core) == 1 and core[0] not in cards:
            # permanently violated soft: harden the entailment and drop it
            run.emit((-core[0],))
            del pool[core[0]]
            return w_star
        rels = []
        for l in core:
            pool[l] -= w_star
            if pool[l] == 0:
                del pool[l]
            if l in cards:
                t, j = cards[l]
                if j + 1 in t.outs:
                    nxt = -t.outs[j + 1]
                    pool[nxt] = pool.get(nxt, 0) + w_star
                    cards[nxt] = (t, j + 1)
            rels.append(-l)
        if len(rels) > 1:
            t = Totalizer(rels, run.alloc, run.emit)
            lit = -t.outs[2]
            pool[lit] = pool.get(lit, 0) + w_star
            cards[lit] = (t, 2)
        return w_star


# ---------------------------------------------------------------------- wbo


class _WboEngine:
    """State: assumption literal -> (clause lits, residual weight). A core
    costs its least weight w*, split off into relaxable clause copies."""

    def __init__(self, run: _Run):
        self.run = run

    def new_state(self, soft_ids):
        pool = {}
        for i in sorted(soft_ids):
            pool[-self.run.guards[i]] = (tuple(self.run.inst.soft[i].lits), self.run.inst.soft[i].weight)
        return pool

    def merge(self, a, b):
        return {**a, **b}

    def assumptions(self, pool, lb):
        return sorted(pool)

    def relax(self, pool, core, lb) -> int:
        run = self.run
        core = sorted(core)
        w_star = min(pool[l][1] for l in core)
        if len(core) == 1:
            # the clause is violated in every model: pay its full weight
            del pool[core[0]]
            return w_star
        relax = []
        for l in core:
            lits, w = pool[l]
            r = run.alloc.fresh()
            b = run.alloc.fresh()
            run.emit(lits + (r, b))
            pool[-b] = (lits + (r,), w_star)
            if w == w_star:
                del pool[l]
            else:
                pool[l] = (lits, w - w_star)
            relax.append(r)
        for cl in encode_at_most_k(relax, 1, run.alloc):
            run.emit(cl)
        return w_star


_ENGINES = {
    AlgorithmKind.MSU3: _Msu3Engine,
    AlgorithmKind.OLL: _OllEngine,
    AlgorithmKind.WBO: _WboEngine,
}


# ------------------------------------------------------------------ drivers


def _result(run: _Run, status: Status, cost, model, lb: int, t0: float) -> SolveResult:
    run.stats.time_s = time.monotonic() - t0
    return SolveResult(status=status, cost=cost, model=model, lower_bound=lb, stats=run.stats)


def _lsu_search(run: _Run, t0: float) -> SolveResult:
    """Linear search once the hard clauses are satisfiable: relax all softs,
    tighten the weighted upper bound until UNSAT; the last model is optimal."""
    run.stats.bound_trace.append(run.best_cost)
    if run.best_cost == 0:
        return _result(run, Status.OPTIMUM, 0, run.best_model, 0, t0)
    tot = GenTotalizer(run.alloc, run.emit, cap=run.best_cost)
    tot.add_inputs([(run.guards[i], s.weight) for i, s in enumerate(run.inst.soft)])
    while True:
        # a unit repeated from an earlier round is already true at the root
        for lit in tot.bound_assumptions(run.best_cost - 1):
            run.emit((lit,))
        if not run.sat(()).sat:
            return _result(run, Status.OPTIMUM, run.best_cost, run.best_model, run.best_cost, t0)
        run.stats.bound_trace.append(run.best_cost)
        if run.best_cost == 0:
            return _result(run, Status.OPTIMUM, 0, run.best_model, 0, t0)


def select_partitions(sizes) -> tuple:
    """Pick the two blocks with the fewest soft clauses from (label, size)
    pairs; ties break toward the lowest label. Returns their labels."""
    if len(sizes) < 2:
        raise ValueError("need at least two partitions to select from")
    ordered = sorted(sizes, key=lambda ls: (ls[1], ls[0]))
    pair = sorted([ordered[0][0], ordered[1][0]])
    return pair[0], pair[1]


def solve_instance(
    pinst: PartitionedInstance,
    alg: AlgorithmKind | str,
    budget: float | None = None,
) -> SolveResult:
    """Solve a partitioned instance with one algorithm, within `budget`
    seconds of wall clock when given.

    lsu searches the whole instance and ignores the labels. msu3, oll and
    wbo go through the partition-merge driver: solve every block, then
    repeatedly merge the two smallest blocks and re-solve with carried state
    until one remains. A single block is the unpartitioned algorithm; an
    instance without soft clauses is solved as one empty block.
    """
    alg = AlgorithmKind(alg)
    pinst.validate()
    t0 = time.monotonic()
    run = _Run(pinst.base, budget)
    blocks = pinst.blocks() or {1: []}
    run.stats.n_partitions = len(blocks)
    parts: dict = {}  # label -> (_Block, labels of the blocks merged into it)
    try:
        if not run.sat(()).sat:
            return _result(run, Status.HARD_UNSAT, None, None, 0, t0)
        if alg == AlgorithmKind.LSU:
            return _lsu_search(run, t0)
        engine = _ENGINES[alg](run)
        for label, ids in blocks.items():
            blk = _Block(list(ids), engine.new_state(ids))
            parts[label] = (blk, (label,))
            cost, model = _solve_block(run, engine, blk)
            run.stats.partition_costs.append(((label,), cost))
        while len(parts) > 1:
            sizes = [(label, len(blk.soft_ids)) for label, (blk, _) in parts.items()]
            la, lb_ = select_partitions(sizes)
            (a, names_a) = parts.pop(la)
            (b, names_b) = parts.pop(lb_)
            merged = _Block(a.soft_ids + b.soft_ids, engine.merge(a.state, b.state), a.lb + b.lb)
            names = tuple(sorted(names_a + names_b))
            parts[min(la, lb_)] = (merged, names)
            cost, model = _solve_block(run, engine, merged)
            run.stats.partition_costs.append((names, cost))
        return _result(run, Status.OPTIMUM, cost, model, cost, t0)
    except SolverTimeout:
        return _result(run, Status.TIMEOUT, run.best_cost, run.best_model, run.lb, t0)
