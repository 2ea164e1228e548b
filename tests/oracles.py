"""Independent reference implementations used to pin expected values.

Nothing here imports the solver or encoder code paths it checks: DPLL for
satisfiability, exhaustive enumeration for MaxSAT optima and problem-level
optima, a from-the-definition modularity with exact fractions, the
resolvent of two clauses, and instance equality up to clause order.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from partmax.cnf import make_clause


# ---------------------------------------------------------------- DPLL SAT


def dpll_satisfiable(clauses, assumptions=()) -> bool:
    """Plain recursive DPLL with unit propagation over int-literal clauses."""
    assign = {}
    for lit in assumptions:
        if assign.get(abs(lit), lit > 0) != (lit > 0):
            return False
        assign[abs(lit)] = lit > 0

    def simplify(cls, assign):
        out = []
        for cl in cls:
            nxt = []
            sat = False
            for lit in cl:
                val = assign.get(abs(lit))
                if val is None:
                    nxt.append(lit)
                elif val == (lit > 0):
                    sat = True
                    break
            if sat:
                continue
            if not nxt:
                return None
            out.append(nxt)
        return out

    def rec(cls, assign):
        while True:
            cls = simplify(cls, assign)
            if cls is None:
                return False
            if not cls:
                return True
            units = [cl[0] for cl in cls if len(cl) == 1]
            if not units:
                break
            for lit in units:
                prev = assign.get(abs(lit))
                if prev is not None and prev != (lit > 0):
                    return False
                assign[abs(lit)] = lit > 0
        lit = cls[0][0]
        a1 = dict(assign)
        a1[abs(lit)] = lit > 0
        if rec(cls, a1):
            return True
        a2 = dict(assign)
        a2[abs(lit)] = lit < 0
        return rec(cls, a2)

    return rec([list(c) for c in clauses], assign)


def projection_satisfiable(clauses, fixed) -> bool:
    """Whether the clause set extends to a model under the fixed literals."""
    return dpll_satisfiable(clauses, assumptions=fixed)


# --------------------------------------------------------- MaxSAT optimum


def brute_force_maxsat(inst):
    """Exhaustive optimum of a MaxSatInstance with <= ~22 variables.

    Returns (cost, model) or (None, None) when the hard part is
    unsatisfiable. Vectorized over all 2^n assignments.
    """
    n = inst.n_vars
    if n > 22:
        raise ValueError(f"{n} variables is too large for exhaustive search")
    count = 1 << n
    # assignment matrix: column v-1 holds the value of variable v
    bits = np.zeros((count, n), dtype=bool)
    for v in range(n):
        bits[:, v] = (np.arange(count) >> v) & 1

    def clause_sat(cl):
        if not cl:
            return np.zeros(count, dtype=bool)
        sat = np.zeros(count, dtype=bool)
        for lit in cl:
            col = bits[:, abs(lit) - 1]
            sat |= col if lit > 0 else ~col
        return sat

    feasible = np.ones(count, dtype=bool)
    for cl in inst.hard:
        feasible &= clause_sat(cl)
    if not feasible.any():
        return None, None
    cost = np.zeros(count, dtype=np.int64)
    for s in inst.soft:
        cost += np.where(clause_sat(s.lits), 0, s.weight)
    cost[~feasible] = np.iinfo(np.int64).max
    best = int(np.argmin(cost))
    model = [False] * (n + 1)
    for v in range(1, n + 1):
        model[v] = bool(bits[best, v - 1])
    return int(cost[best]), model


# ------------------------------------------------------- problem optima


def brute_force_msc(prob):
    """Minimum total 1-based color index over proper colorings, or None."""
    best = None
    for coloring in itertools.product(range(1, prob.n_colors + 1), repeat=prob.n_vertices):
        if any(coloring[u - 1] == coloring[v - 1] for u, v in prob.edges):
            continue
        total = sum(coloring)
        if best is None or total < best:
            best = total
    return best


def brute_force_seating(prob):
    """Minimum total distinct tags per table over feasible seatings, or None."""
    n = len(prob.person_tags)
    best = None
    for seating in itertools.product(range(prob.n_tables), repeat=n):
        counts = [0] * prob.n_tables
        for t in seating:
            counts[t] += 1
        if any(c < prob.min_per_table or c > prob.max_per_table for c in counts):
            continue
        total = 0
        for t in range(prob.n_tables):
            tags = set()
            for i, ti in enumerate(seating):
                if ti == t:
                    tags |= prob.person_tags[i]
            total += len(tags)
        if best is None or total < best:
            best = total
    return best


# ----------------------------------------------------------- modularity


def exact_modularity(edges, communities) -> Fraction:
    """Modularity from its definition, in exact arithmetic.

    edges: (u, v, weight) triples; communities: node -> community id.
    """
    m = sum((Fraction(w) for _, _, w in edges), Fraction(0))
    if m == 0:
        return Fraction(0)
    internal: dict = {}
    degree: dict = {}
    for u, v, w in edges:
        w = Fraction(w)
        if communities[u] == communities[v]:
            internal[communities[u]] = internal.get(communities[u], Fraction(0)) + w
        degree[communities[u]] = degree.get(communities[u], Fraction(0)) + w
        degree[communities[v]] = degree.get(communities[v], Fraction(0)) + w
    q = Fraction(0)
    for c in set(communities.values()):
        q += internal.get(c, Fraction(0)) / m - (degree.get(c, Fraction(0)) / (2 * m)) ** 2
    return q


def all_set_partitions(items):
    """Every partition of a small item list (Bell-number enumeration)."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in all_set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def best_modularity_partition(edges, nodes):
    """Exhaustively maximize modularity over all partitions of the nodes."""
    best_q = None
    best_part = None
    for part in all_set_partitions(list(nodes)):
        communities = {}
        for ci, block in enumerate(part):
            for node in block:
                communities[node] = ci
        q = exact_modularity(edges, communities)
        if best_q is None or q > best_q:
            best_q, best_part = q, part
    return best_q, best_part


# ----------------------------------------------------------- resolution


def resolve(c1, c2, v: int):
    """Resolvent of c1 and c2 on variable v, or TAUTOLOGY if trivial.

    One clause must contain v positively and the other negatively.
    """
    if v in c1 and -v in c2:
        cpos, cneg = c1, c2
    elif -v in c1 and v in c2:
        cpos, cneg = c2, c1
    else:
        raise ValueError(f"clauses are not resolvable on variable {v}")
    rest = [l for l in cpos if l != v]
    rest += [l for l in cneg if l != -v]
    return make_clause(rest)


# ------------------------------------------------------ instance equality


def semantically_equal(a, b) -> bool:
    """Two PartitionedInstances with the same hard clause set, the same
    (clause, weight, label) soft multiset, variable count, top weight and
    partition count."""
    ka = sorted(sorted(cl) for cl in a.base.hard)
    kb = sorted(sorted(cl) for cl in b.base.hard)
    if ka != kb:
        return False
    sa = sorted((tuple(sorted(s.lits)), s.weight, s.part) for s in a.base.soft)
    sb = sorted((tuple(sorted(s.lits)), s.weight, s.part) for s in b.base.soft)
    return (
        sa == sb
        and a.base.n_vars == b.base.n_vars
        and a.base.top == b.base.top
        and a.n_part == b.n_part
    )
