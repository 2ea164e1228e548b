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
oll and wbo share one pool protocol (`_PoolEngine`): the state is a pool,
assumption literal -> entry, seeded from each soft's guard in soft-id order;
merging joins two pools and the assumptions are the pool's literals in
order. Each supplies only a soft's `entry` and `relax`.

- msu3: one weighted counting structure whose inputs grow with each core;
- oll: one counting structure per core, weight-aware assumptions; one
  run-wide map from the (fresh) totalizer outputs to their counters;
- wbo: per-core clause copies, weight splitting and an at-most-one
  constraint over the fresh relaxation variables.

Before the first SAT call, pure-literal elimination drops, in cascade, every
hard clause that holds a pure literal of a variable outside the soft
clauses (Belov, Morgado & Marques-Silva, LPAR 2013); those variables then
occur in no solver clause, so the solver never decides them. Soft-clause variables are frozen: every clause
added later mentions only them, guards or fresh variables, so the dropped
clauses stay redundant. Every returned model, and so the solution's `v`
line, makes each eliminated variable's pure literal true, which satisfies
the dropped clauses (the model extension of Eén & Biere, SAT 2005).

Soft clauses enter the solver once, guarded; cores are reported over the
guard literals, so all carried state survives merges. A block whose proven
bound the best model seen so far already meets is answered without a SAT
call, so `sat_calls` counts only the calls actually made.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum

from .cards import GenTotalizer, Totalizer, encode_at_most_k
from .cnf import (
    MaxSatInstance,
    PartitionedInstance,
    VarAllocator,
    eliminate_pure_literals,
)
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
    """Shared solver session over a validated instance: the hard clauses
    left by pure-literal elimination plus one guarded copy of every soft
    clause; tracks the best model seen across all SAT calls. An eliminated
    variable enters no solver clause, so the solver never decides it; `pure`
    holds the literal that it takes in a returned model. `elimination` is
    that pass's result when the caller already has it (see
    PartitionedInstance.elimination). `t0` is the run's start."""

    def __init__(self, inst: MaxSatInstance, budget: float | None = None, elimination=None):
        self.inst = inst
        self.t0 = time.monotonic()
        deadline = None if budget is None else self.t0 + budget
        self.solver = Solver(deadline=deadline)
        n_guarded = inst.n_vars + len(inst.soft)
        self.alloc = VarAllocator(n_guarded)
        self.solver.reserve(n_guarded)
        if elimination is None:
            elimination = eliminate_pure_literals(inst.hard, inst.n_vars, inst.soft_vars())
        kept, self.pure = elimination
        for i in kept:
            self.solver.add_clause(inst.hard[i])
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
        """The solver's outcome; a model is cut to the instance's variables."""
        out = self.solver.solve(assumps)
        self.stats.sat_calls += 1
        if out.sat:
            out.model = out.model[: self.inst.n_vars + 1]
            cost = self.inst.cost_of(out.model)
            if self.best_cost is None or cost < self.best_cost:
                self.best_cost, self.best_model = cost, out.model
        return out


@dataclass
class _Block:
    """A block of soft clauses: the labels of the blocks merged into it,
    their soft ids, the engine's carried state and the proven lower bound."""

    names: tuple
    soft_ids: list
    state: object
    lb: int = 0


def _solve_block(run: _Run, engine, blk: _Block):
    """The core-guided loop: relax cores and raise the bound until the
    engine's assumptions are satisfiable. Records the block's cost, which is
    its final bound, and returns a model of that cost on the block.

    A SAT call is skipped once the run's best model already costs blk.lb on
    the block. That model is block-optimal: every SAT model satisfies the
    hard clauses, and blk.lb is a lower bound on the block's cost over all
    such models. On the last merged block, it is therefore optimal."""
    cost_of = run.inst.cost_of
    model = run.best_model  # unchanged by an UNSAT call
    while cost_of(model, blk.soft_ids) != blk.lb:
        out = run.sat(engine.assumptions(blk.state, blk.lb))
        if out.sat:
            got = cost_of(out.model, blk.soft_ids)
            if got != blk.lb:
                raise RuntimeError(f"internal error: block cost {got} != proven bound {blk.lb}")
            model = out.model
            break
        if not out.core:
            raise RuntimeError("unexpected empty core after a satisfiable hard check")
        run.stats.cores += 1
        delta = engine.relax(blk.state, out.core, blk.lb)
        blk.lb += delta
        run.lb += delta
        run.stats.bound_trace.append(run.lb)
    run.stats.partition_costs.append((blk.names, blk.lb))
    return model


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


# -------------------------------------------------------------- oll and wbo


class _PoolEngine:
    """State: a pool, assumption literal -> entry(soft); a pool literal a
    relax did not add is the negated guard of a soft."""

    def __init__(self, run: _Run):
        self.run = run

    def new_state(self, soft_ids):
        run = self.run
        return {-run.guards[i]: self.entry(run.inst.soft[i]) for i in sorted(soft_ids)}

    def merge(self, a, b):
        return {**a, **b}

    def assumptions(self, pool, lb):
        return sorted(pool)


class _OllEngine(_PoolEngine):
    """Pool entry: residual weight. `cards` maps a totalizer output literal
    to (Totalizer, j). A core costs its least weight; ladder assumptions pay
    for each additional violation within a core."""

    def __init__(self, run: _Run):
        super().__init__(run)
        self.cards = {}

    def entry(self, soft):
        return soft.weight

    def relax(self, pool, core, lb) -> int:
        run, cards = self.run, self.cards
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


class _WboEngine(_PoolEngine):
    """Pool entry: (clause lits, residual weight). A core costs its least
    weight w*, split off into relaxable clause copies."""

    def entry(self, soft):
        return tuple(soft.lits), soft.weight

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


def _result(run: _Run, status: Status, cost, model) -> SolveResult:
    """The lower bound is the cost for an optimum, else the run's bound."""
    if model is not None:
        for lit in run.pure:
            model[abs(lit)] = lit > 0
    run.stats.time_s = time.monotonic() - run.t0
    lb = cost if status == Status.OPTIMUM else run.lb
    return SolveResult(status=status, cost=cost, model=model, lower_bound=lb, stats=run.stats)


def _lsu_search(run: _Run) -> SolveResult:
    """Linear search once the hard clauses are satisfiable: relax all softs,
    tighten the weighted upper bound until UNSAT; the last model is optimal."""
    run.stats.bound_trace.append(run.best_cost)
    if run.best_cost:
        tot = GenTotalizer(run.alloc, run.emit, cap=run.best_cost)
        tot.add_inputs([(run.guards[i], s.weight) for i, s in enumerate(run.inst.soft)])
    while run.best_cost:
        # a unit repeated from an earlier round is already true at the root
        for lit in tot.bound_assumptions(run.best_cost - 1):
            run.emit((lit,))
        if not run.sat(()).sat:
            break
        run.stats.bound_trace.append(run.best_cost)
    return _result(run, Status.OPTIMUM, run.best_cost, run.best_model)


def select_partitions(sizes) -> tuple:
    """Pick the two blocks with the fewest soft clauses from (label, size)
    pairs; ties break toward the lowest label. Returns their labels, lower first."""
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
    run = _Run(pinst.base, budget, pinst.elimination)
    blocks = pinst.blocks() or {1: []}
    run.stats.n_partitions = len(blocks)
    try:
        if not run.sat(()).sat:
            return _result(run, Status.HARD_UNSAT, None, None)
        if alg == AlgorithmKind.LSU:
            return _lsu_search(run)
        engine = _ENGINES[alg](run)
        parts = {}  # label -> _Block; a merged block takes the lower label
        for label, ids in blocks.items():
            parts[label] = blk = _Block((label,), list(ids), engine.new_state(ids))
            model = _solve_block(run, engine, blk)
        while len(parts) > 1:
            lo, hi = select_partitions([(label, len(b.soft_ids)) for label, b in parts.items()])
            a, b = parts.pop(lo), parts.pop(hi)
            parts[lo] = blk = _Block(tuple(sorted(a.names + b.names)), a.soft_ids + b.soft_ids,
                                     engine.merge(a.state, b.state), a.lb + b.lb)
            model = _solve_block(run, engine, blk)
        return _result(run, Status.OPTIMUM, blk.lb, model)
    except SolverTimeout:
        return _result(run, Status.TIMEOUT, run.best_cost, run.best_model)
