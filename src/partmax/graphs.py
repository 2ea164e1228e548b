"""Graph views of a MaxSAT formula and modularity-based partition derivation.

Three representations are built from the clauses of a formula:

- vig: one node per variable; each clause with n >= 2 distinct variables
  adds 1/C(n,2) to the edge weight of every variable pair it contains.
- cvig: bipartite variable/clause incidence; each (variable, clause)
  incidence carries weight 1/|clause|.
- res: one node per clause; clause pairs whose resolvent is non-trivial are
  joined with weight 1/|resolvent|.

Nodes are integer ids 0..n-1. With clauses numbered hard first, then soft
(m in all), vig gives variable v id v-1; cvig gives clause i id i and
variable v id m+v-1; res gives clause i id i.

Communities found by modularity maximization over these graphs (local moves
from a node queue, then aggregation) become soft-clause partition labels.
Edge weights are integers over the common denominator `scale`; exact sums do
not depend on clause order.

`partition_by_graph` departs from the paper, which builds the graph of the
whole input formula: it builds the graph of the formula the solver sees.
That is the hard clauses left by pure-literal elimination (with the soft
clauses' variables frozen, as in `maxsat`) plus the soft clauses, over
dense variable ids. The dropped hard clauses take the advisory label 1.
"""

from __future__ import annotations

import random
import warnings
from collections import deque
from dataclasses import dataclass, replace
from math import comb, lcm

from .cnf import (
    MaxSatInstance,
    PartitionedInstance,
    SoftClause,
    eliminate_pure_literals,
)


# Candidate clause pairs build_res examines at most; at 957,660 pairs the
# build took 1.7 s, detection 5.0 s and 0.5 GB on a 2-core host.
MAX_RES_PAIRS = 1_000_000


class ResolutionGraphTooLarge(Exception):
    """Raised when the candidate clause-pair count exceeds MAX_RES_PAIRS."""


class WeightedGraph:
    """Undirected weighted graph over node ids 0..n-1, all made at
    construction (see the module docstring for each build's layout);
    adj[u][v] is a positive integer: edge (u, v) weighs adj[u][v] / scale."""

    def __init__(self, n: int = 0, scale: int = 1):
        self.adj = {u: {} for u in range(n)}
        self.scale = scale

    def add_edge(self, u: int, v: int, w: int) -> None:
        if u == v:
            raise ValueError("self-loops are not allowed")
        if w <= 0:
            raise ValueError("edge weights must be positive")
        nu, nv = self.adj[u], self.adj[v]
        nu[v] = nu.get(v, 0) + w
        nv[u] = nv.get(u, 0) + w

    def edges(self):
        return [(u, v, w) for u, nbrs in self.adj.items() for v, w in nbrs.items() if u < v]

    def total_weight(self) -> float:
        return sum(sum(nbrs.values()) for nbrs in self.adj.values()) / (2 * self.scale)


def _all_clauses(inst: MaxSatInstance):
    return list(inst.hard) + [s.lits for s in inst.soft]


def build_vig(inst: MaxSatInstance) -> WeightedGraph:
    var_sets = [sorted({abs(l) - 1 for l in cl}) for cl in _all_clauses(inst)]
    g = WeightedGraph(inst.n_vars, lcm(*{comb(len(vs), 2) for vs in var_sets if len(vs) > 1}))
    for vs in var_sets:
        n = len(vs)
        if n < 2:
            continue
        w = g.scale // comb(n, 2)
        for i in range(n):
            for j in range(i + 1, n):
                g.add_edge(vs[i], vs[j], w)
    return g


def build_cvig(inst: MaxSatInstance) -> WeightedGraph:
    clauses = _all_clauses(inst)
    m = len(clauses)
    g = WeightedGraph(m + inst.n_vars, lcm(*{len(cl) for cl in clauses if cl}))
    for ci, cl in enumerate(clauses):
        if not cl:
            continue
        w = g.scale // len(cl)
        # the set holds variables, not ids: its iteration order fixes each
        # clause row's neighbour order, which the float sums depend on
        for v in {abs(l) for l in cl}:
            g.add_edge(m + v - 1, ci, w)
    return g


def build_res(inst: MaxSatInstance) -> WeightedGraph:
    """Resolution graph. Examines only clause pairs sharing a complementary
    literal; raises ResolutionGraphTooLarge past MAX_RES_PAIRS candidate pairs.
    For clauses with literal sets Li, Lj and variable sets Vi, Vj, the
    resolvent on v (v in Li, -v in Lj) loses literal v unless v is in Lj,
    and -v unless -v is in Li. It has |Li | Lj| literals less those lost,
    over |Vi | Vj| variables less v when both are lost, and is trivial iff
    it has more literals than variables."""
    clauses = _all_clauses(inst)
    # a resolvent keeps at most 2 * longest - 2 literals
    longest = max((len(cl) for cl in clauses), default=0)
    g = WeightedGraph(len(clauses), lcm(*range(1, 2 * longest - 1)))
    adj = g.adj
    lit_sets = [set(cl) for cl in clauses]
    var_sets = [{abs(l) for l in cl} for cl in clauses]
    pos, neg = {}, {}
    for ci, lits in enumerate(lit_sets):
        for lit in lits:
            (pos if lit > 0 else neg).setdefault(abs(lit), []).append(ci)
    n_pairs = 0
    for v in sorted(set(pos) & set(neg)):
        n_pairs += len(pos[v]) * len(neg[v])
        if n_pairs > MAX_RES_PAIRS:
            raise ResolutionGraphTooLarge(
                f"more than {MAX_RES_PAIRS} clause pairs share complementary literals"
            )
        for ci in pos[v]:
            li, vi = lit_sets[ci], var_sets[ci]
            gone_nv = -v not in li
            for cj in neg[v]:
                lj, vj = lit_sets[cj], var_sets[cj]
                gone_v = v not in lj
                n = len(li | lj) - gone_v - gone_nv
                if n > len(vi | vj) - (gone_v and gone_nv):
                    continue
                # a pair met on a second variable clashes on two, so all its
                # resolvents are trivial and each edge is set once; the empty
                # resolvent of contradictory units is clamped to weight 1
                adj[ci][cj] = adj[cj][ci] = g.scale // max(n, 1)
    return g


@dataclass
class CommunityAssignment:
    """communities[u] is node id u's contiguous 0-based community id; q is
    the modularity reached and phase_q the Q after each phase."""

    communities: list
    q: float
    phase_q: tuple = ()

    @property
    def n_communities(self) -> int:
        return len(set(self.communities))


def modularity(g: WeightedGraph, communities: list) -> float:
    """Q of communities[u] per node id u, from exact integer sums (scale cancels)."""
    internal: dict = {}  # twice each community's internal weight
    degree: dict = {}
    for u, nbrs in g.adj.items():
        cu = communities[u]
        for v, w in nbrs.items():
            degree[cu] = degree.get(cu, 0) + w
            if communities[v] == cu:
                internal[cu] = internal.get(cu, 0) + w
    m2 = sum(degree.values())
    if m2 == 0:
        return 0.0
    return sum(internal.get(c, 0) / m2 - (d / m2) ** 2 for c, d in degree.items())


def _one_level(adj, degs, m2, order):
    """Greedy local moves from a FIFO queue seeded with `order`; a moved node queues
    its neighbours outside its new community (Traag 2015). Returns (com, moved?)."""
    com = list(range(len(adj)))
    com_tot = degs[:]
    queue = deque(order)
    queued = [True] * len(adj)
    moved_any = False
    while queue:
        i = queue.popleft()
        queued[i] = False
        ci = com[i]
        ncw: dict = {}
        for j, w in adj[i].items():
            cj = com[j]
            ncw[cj] = ncw.get(cj, 0.0) + w
        com_tot[ci] -= degs[i]
        best_c = ci
        best_gain = ncw.get(ci, 0.0) - com_tot[ci] * degs[i] / m2
        for c in sorted(ncw):
            gain = ncw[c] - com_tot[c] * degs[i] / m2
            if gain > best_gain + 1e-12:
                best_c, best_gain = c, gain
        com_tot[best_c] += degs[i]
        com[i] = best_c
        if best_c != ci:
            moved_any = True
            for j in adj[i]:
                if not queued[j] and com[j] != best_c:
                    queued[j] = True
                    queue.append(j)
    return com, moved_any


def detect_communities(g: WeightedGraph, seed: int = 0) -> CommunityAssignment:
    """Greedy modularity maximization (local moves + aggregation phases).

    Deterministic for a fixed seed: each phase queues the nodes in ascending
    order shuffled by the seed, then requeues the neighbours of moved nodes.
    A graph with zero total edge weight, or without nodes, puts every node in
    its own community with Q = 0. Each phase's Q comes from the community
    totals of its aggregation pass (Blondel et al. 2008).
    """
    adj = [{v: w / g.scale for v, w in nbrs.items()} for nbrs in g.adj.values()]
    m2 = 2.0 * g.total_weight()
    if m2 == 0:
        return CommunityAssignment(list(range(len(adj))), 0.0, (0.0,))
    rng = random.Random(seed)
    loops = [0.0] * len(adj)
    assign = list(range(len(adj)))  # original node -> current supernode
    phase_q = []
    while True:
        n = len(adj)
        degs = [2 * loops[i] + sum(adj[i].values()) for i in range(n)]
        order = list(range(n))
        rng.shuffle(order)
        com, moved = _one_level(adj, degs, m2, order)
        labels = sorted(set(com))
        relabel = {c: k for k, c in enumerate(labels)}
        com = [relabel[c] for c in com]
        assign = [com[assign[i]] for i in range(len(assign))]
        # aggregate communities into supernodes
        new_loops = [0.0] * len(labels)
        tot = [0.0] * len(labels)
        new_adj = [dict() for _ in labels]
        for i in range(n):
            ci = com[i]
            new_loops[ci] += loops[i]
            tot[ci] += degs[i]
            for j, w in adj[i].items():
                cj = com[j]
                if ci == cj:
                    if i < j:
                        new_loops[ci] += w
                else:
                    new_adj[ci][cj] = new_adj[ci].get(cj, 0.0) + w
        phase_q.append(sum(2 * lc / m2 - (t / m2) ** 2 for lc, t in zip(new_loops, tot)))
        if not moved or len(labels) == n:
            break
        adj, loops = new_adj, new_loops
    # contiguous ids by first appearance in node id order
    remap: dict = {}
    communities = [remap.setdefault(a, len(remap)) for a in assign]
    return CommunityAssignment(communities, phase_q[-1], tuple(phase_q))


def _renumber(inst: MaxSatInstance, raw_labels, hard_raw=None):
    present = sorted(set(raw_labels))
    relabel = {c: k + 1 for k, c in enumerate(present)}
    soft = [replace(s, part=relabel[raw_labels[i]]) for i, s in enumerate(inst.soft)]
    hard_labels = None if hard_raw is None else [relabel.get(c, 1) for c in hard_raw]
    base = MaxSatInstance(inst.n_vars, list(inst.hard), soft, inst.top)
    return PartitionedInstance(base=base, n_part=len(present), hard_labels=hard_labels)


def derive_partitions(
    inst: MaxSatInstance, ca: CommunityAssignment, repr_kind: str
) -> PartitionedInstance:
    """Map communities to soft-clause partitions.

    vig: a soft clause goes to the community holding the most of its
    variables (ties to the lowest community id). cvig/res: a soft clause
    goes to its own clause node's community. Empty partitions are dropped
    and labels renumbered 1..n_part. Hard clauses receive advisory labels
    the same way.
    """
    if repr_kind not in ("vig", "cvig", "res"):
        raise ValueError(f"unknown representation {repr_kind!r}")
    n_hard = len(inst.hard)
    if repr_kind == "vig":

        def community_of(lits):
            counts: dict = {}
            for v in {abs(l) for l in lits}:
                c = ca.communities[v - 1]
                counts[c] = counts.get(c, 0) + 1
            if not counts:
                return -1  # empty clause touches no community
            best = max(counts.values())
            return min(c for c, k in counts.items() if k == best)

        raw = [community_of(s.lits) for s in inst.soft]
        hard_raw = [community_of(cl) if cl else 0 for cl in inst.hard]
    else:
        raw = ca.communities[n_hard : n_hard + len(inst.soft)]
        hard_raw = ca.communities[:n_hard]
    return _renumber(inst, raw, hard_raw)


def _kept_formula(inst: MaxSatInstance, kept) -> MaxSatInstance:
    """The hard clauses at indices `kept`, then every soft clause, over dense
    variable ids: the variables occurring in them, numbered from 1 in
    ascending order."""
    hard = [inst.hard[i] for i in kept]
    used = sorted({abs(lit) for cl in hard for lit in cl} | inst.soft_vars())
    ids = {v: k for k, v in enumerate(used, 1)}

    def dense(cl):
        return tuple(ids[lit] if lit > 0 else -ids[-lit] for lit in cl)

    soft = [SoftClause(dense(s.lits), s.weight) for s in inst.soft]
    return MaxSatInstance(len(used), [dense(cl) for cl in hard], soft, inst.top)


def partition_by_graph(
    inst: MaxSatInstance,
    repr_kind: str,
    seed: int = 0,
) -> PartitionedInstance:
    """Build the requested graph, find communities, derive partitions.

    The graph is built over the formula the solver sees, not over all of
    inst: pure-literal elimination (soft-clause variables frozen) runs once,
    and the kept hard clauses plus the soft clauses, over dense variable
    ids, make the graph. Soft clauses take their derived labels, kept hard
    clauses theirs, and dropped hard clauses the advisory label 1. The
    result holds all of inst, clauses in their order, and carries the
    elimination to `solve_instance` in `elimination`.

    Degenerate cases (no soft clauses, an oversized resolution graph) fall
    back to a single partition with a warning.
    """
    builds = {"vig": build_vig, "cvig": build_cvig, "res": build_res}
    if repr_kind not in builds:
        raise ValueError(f"unknown representation {repr_kind!r}")
    if not inst.soft:
        return PartitionedInstance.single_block(inst)
    elimination = kept, _ = eliminate_pure_literals(inst.hard, inst.n_vars, inst.soft_vars())
    formula = _kept_formula(inst, kept)
    try:
        g = builds[repr_kind](formula)
    except ResolutionGraphTooLarge as exc:
        warnings.warn(f"{exc}; falling back to a single partition", stacklevel=2)
        out = PartitionedInstance.single_block(inst)
    else:
        derived = derive_partitions(formula, detect_communities(g, seed=seed), repr_kind)
        soft = [replace(s, part=d.part) for s, d in zip(inst.soft, derived.base.soft)]
        hard_labels = [1] * len(inst.hard)
        for i, label in zip(kept, derived.hard_labels):
            hard_labels[i] = label
        base = MaxSatInstance(inst.n_vars, list(inst.hard), soft, inst.top)
        out = PartitionedInstance(base, derived.n_part, hard_labels)
    out.elimination = elimination
    return out


def random_partition(inst: MaxSatInstance, k: int, seed: int = 0) -> PartitionedInstance:
    """Assign soft clauses to k buckets uniformly at random (empty buckets
    dropped, labels renumbered); deterministic per seed."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not inst.soft:
        return PartitionedInstance.single_block(inst)
    rng = random.Random(seed)
    raw = [rng.randrange(k) for _ in inst.soft]
    return _renumber(inst, raw)
