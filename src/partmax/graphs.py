"""Graph views of a MaxSAT formula and modularity-based partition derivation.

Three representations are built from all clauses, hard and soft:

- vig: one node per variable; each clause with n >= 2 distinct variables
  adds 1/C(n,2) to the edge weight of every variable pair it contains.
- cvig: bipartite variable/clause incidence; each (variable, clause)
  incidence carries weight 1/|clause|.
- res: one node per clause; clause pairs whose resolvent is non-trivial are
  joined with weight 1/|resolvent|.

Communities found by modularity maximization over these graphs (local moves
from a node queue, then aggregation) become soft-clause partition labels.
Edge weights are integers over the common denominator `scale`; exact sums do
not depend on clause order.
"""

from __future__ import annotations

import random
import warnings
from collections import deque
from dataclasses import dataclass, field, replace
from math import comb, lcm

from .cnf import TAUTOLOGY, MaxSatInstance, PartitionedInstance, resolve

VAR_NODE = "v"
CLAUSE_NODE = "c"


class ResolutionGraphTooLarge(Exception):
    """Raised when the candidate clause-pair count exceeds the configured cap."""


@dataclass
class WeightedGraph:
    """Undirected weighted graph; nodes are (kind, index) tuples, and
    adj[u][v] is a positive integer: edge (u, v) weighs adj[u][v] / scale."""

    adj: dict = field(default_factory=dict)
    scale: int = 1

    def add_node(self, node) -> None:
        self.adj.setdefault(node, {})

    def add_edge(self, u, v, w) -> None:
        if u == v:
            raise ValueError("self-loops are not allowed")
        if w <= 0:
            raise ValueError("edge weights must be positive")
        nu, nv = self.adj.setdefault(u, {}), self.adj.setdefault(v, {})
        nu[v] = nu.get(v, 0) + w
        nv[u] = nv.get(u, 0) + w

    def nodes(self):
        return list(self.adj)

    def edges(self):
        return [(u, v, w) for u, nbrs in self.adj.items() for v, w in nbrs.items() if u < v]

    def total_weight(self) -> float:
        return sum(sum(nbrs.values()) for nbrs in self.adj.values()) / (2 * self.scale)


def _all_clauses(inst: MaxSatInstance):
    return list(inst.hard) + [s.lits for s in inst.soft]


def build_vig(inst: MaxSatInstance) -> WeightedGraph:
    var_sets = [sorted({abs(l) for l in cl}) for cl in _all_clauses(inst)]
    g = WeightedGraph(scale=lcm(*{comb(len(vs), 2) for vs in var_sets if len(vs) > 1}))
    for v in range(1, inst.n_vars + 1):
        g.add_node((VAR_NODE, v))
    for vs in var_sets:
        n = len(vs)
        if n < 2:
            continue
        w = g.scale // comb(n, 2)
        for i in range(n):
            for j in range(i + 1, n):
                g.add_edge((VAR_NODE, vs[i]), (VAR_NODE, vs[j]), w)
    return g


def build_cvig(inst: MaxSatInstance) -> WeightedGraph:
    clauses = _all_clauses(inst)
    g = WeightedGraph(scale=lcm(*{len(cl) for cl in clauses if cl}))
    for v in range(1, inst.n_vars + 1):
        g.add_node((VAR_NODE, v))
    for ci, cl in enumerate(clauses):
        g.add_node((CLAUSE_NODE, ci))
        if not cl:
            continue
        w = g.scale // len(cl)
        for v in {abs(l) for l in cl}:
            g.add_edge((VAR_NODE, v), (CLAUSE_NODE, ci), w)
    return g


def build_res(inst: MaxSatInstance, max_pairs: int | None = None) -> WeightedGraph:
    """Resolution graph. Examines only clause pairs sharing a complementary
    literal; raises ResolutionGraphTooLarge past max_pairs candidate pairs.
    For clauses with literal sets Li, Lj and variable sets Vi, Vj, neither a
    tautology, the resolvent on v has |Li | Lj| - 2 literals over
    |Vi | Vj| - 1 variables and is trivial iff it has more literals than
    variables; a pair with a tautological clause goes through `resolve`."""
    clauses = _all_clauses(inst)
    # a resolvent keeps at most 2 * longest - 2 literals
    longest = max((len(cl) for cl in clauses), default=0)
    g = WeightedGraph(scale=lcm(*range(1, 2 * longest - 1)))
    lit_sets = [set(cl) for cl in clauses]
    var_sets = [{abs(l) for l in cl} for cl in clauses]
    nodes = [(CLAUSE_NODE, ci) for ci in range(len(clauses))]
    adj = [g.adj.setdefault(node, {}) for node in nodes]
    pos, neg = {}, {}
    for ci, lits in enumerate(lit_sets):
        for lit in lits:
            (pos if lit > 0 else neg).setdefault(abs(lit), []).append(ci)
    n_pairs = 0
    for v in sorted(set(pos) & set(neg)):
        n_pairs += len(pos[v]) * len(neg[v])
        if max_pairs is not None and n_pairs > max_pairs:
            raise ResolutionGraphTooLarge(
                f"more than {max_pairs} clause pairs share complementary literals"
            )
        for ci in pos[v]:
            li, vi = lit_sets[ci], var_sets[ci]
            for cj in neg[v]:
                lj, vj = lit_sets[cj], var_sets[cj]
                if len(li) == len(vi) and len(lj) == len(vj):
                    n = len(li | lj) - 2
                    if n > len(vi | vj) - 1:
                        continue
                else:
                    r = resolve(clauses[ci], clauses[cj], v)
                    if r is TAUTOLOGY:
                        continue
                    n = len(r)
                # a pair met on a second variable clashes on two, so all its
                # resolvents are trivial and each edge is set once; the empty
                # resolvent of contradictory units is clamped to weight 1
                adj[ci][nodes[cj]] = adj[cj][nodes[ci]] = g.scale // max(n, 1)
    return g


def dump_edges(g: WeightedGraph) -> str:
    """Debug edge list: one "node node weight" line per edge."""
    lines = [f"{u[0]}{u[1]} {v[0]}{v[1]} {w / g.scale:g}" for u, v, w in sorted(g.edges())]
    return "\n".join(lines) + ("\n" if lines else "")


@dataclass
class CommunityAssignment:
    """node -> contiguous 0-based community id, plus the modularity reached."""

    communities: dict
    q: float
    phase_q: tuple = ()

    @property
    def n_communities(self) -> int:
        return len(set(self.communities.values())) if self.communities else 0


def modularity(g: WeightedGraph, communities: dict) -> float:
    """Q of a node -> community map from exact integer sums (scale cancels)."""
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
    A graph with zero total edge weight puts every node in its own community
    with Q = 0. Each phase's Q comes from the community totals of its
    aggregation pass (Blondel et al. 2008).
    """
    nodes = sorted(g.adj)
    if not nodes:
        raise ValueError("cannot detect communities of an empty graph")
    index = {node: i for i, node in enumerate(nodes)}
    adj = [{index[v]: w / g.scale for v, w in g.adj[node].items()} for node in nodes]
    m2 = 2.0 * g.total_weight()
    if m2 == 0:
        return CommunityAssignment({node: i for i, node in enumerate(nodes)}, 0.0, (0.0,))
    rng = random.Random(seed)
    loops = [0.0] * len(nodes)
    assign = list(range(len(nodes)))  # original node -> current supernode
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
    # contiguous ids by first appearance over the sorted node order
    remap: dict = {}
    communities = {node: remap.setdefault(assign[i], len(remap)) for i, node in enumerate(nodes)}
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
                c = ca.communities[(VAR_NODE, v)]
                counts[c] = counts.get(c, 0) + 1
            if not counts:
                return -1  # empty clause touches no community
            best = max(counts.values())
            return min(c for c, k in counts.items() if k == best)

        raw = [community_of(s.lits) for s in inst.soft]
        hard_raw = [community_of(cl) if cl else 0 for cl in inst.hard]
    else:
        raw = [ca.communities[(CLAUSE_NODE, n_hard + i)] for i in range(len(inst.soft))]
        hard_raw = [ca.communities[(CLAUSE_NODE, i)] for i in range(n_hard)]
    return _renumber(inst, raw, hard_raw)


def partition_by_graph(
    inst: MaxSatInstance,
    repr_kind: str,
    seed: int = 0,
    max_pairs: int | None = None,
) -> PartitionedInstance:
    """Build the requested graph, find communities, derive partitions.

    Degenerate cases (no soft clauses, an oversized resolution graph) fall
    back to a single partition with a warning.
    """
    builds = {"vig": build_vig, "cvig": build_cvig,
              "res": lambda inst: build_res(inst, max_pairs=max_pairs)}
    if repr_kind not in builds:
        raise ValueError(f"unknown representation {repr_kind!r}")
    if not inst.soft:
        return PartitionedInstance.single_block(inst)
    try:
        g = builds[repr_kind](inst)
    except ResolutionGraphTooLarge as exc:
        warnings.warn(f"{exc}; falling back to a single partition", stacklevel=2)
        return PartitionedInstance.single_block(inst)
    ca = detect_communities(g, seed=seed)
    return derive_partitions(inst, ca, repr_kind)


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
