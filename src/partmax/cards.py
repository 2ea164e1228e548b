"""Cardinality and pseudo-Boolean CNF encodings.

Sequential-counter (Sinz) encodings back the problem encoders' hard
constraints; the totalizer and its weighted generalization back the
solver-side bounds, where incremental tightening and structure merging are
needed.
"""

from __future__ import annotations

from .cnf import VarAllocator


def _check_inputs(lits):
    if not lits:
        raise ValueError("cardinality constraint over empty literal set")
    if len(set(lits)) != len(lits):
        raise ValueError("duplicate literals in cardinality constraint")


def encode_at_most_k(lits, k: int, alloc: VarAllocator) -> list:
    """Sequential-counter clauses forcing at most k of lits true.

    Projected onto lits, satisfying assignments are exactly those with
    <= k true literals; k >= len(lits) yields no clauses.
    """
    lits = list(lits)
    _check_inputs(lits)
    if k < 0:
        raise ValueError(f"bound must be >= 0, got {k}")
    n = len(lits)
    if k >= n:
        return []
    if k == 0:
        return [(-l,) for l in lits]
    # reg[i][j]: among the first i+1 literals at least j+1 are true
    reg = [[alloc.fresh() for _ in range(k)] for _ in range(n - 1)]
    out = [(-lits[0], reg[0][0])]
    for j in range(1, k):
        out.append((-reg[0][j],))
    for i in range(1, n - 1):
        out.append((-lits[i], reg[i][0]))
        out.append((-reg[i - 1][0], reg[i][0]))
        for j in range(1, k):
            out.append((-lits[i], -reg[i - 1][j - 1], reg[i][j]))
            out.append((-reg[i - 1][j], reg[i][j]))
        out.append((-lits[i], -reg[i - 1][k - 1]))
    out.append((-lits[n - 1], -reg[n - 2][k - 1]))
    return out


def encode_at_least_k(lits, k: int, alloc: VarAllocator) -> list:
    """Dual of encode_at_most_k: at most len(lits)-k of the negations true.

    k > len(lits) returns a single empty clause (unsatisfiable by
    construction); k <= 0 returns no clauses.
    """
    lits = list(lits)
    _check_inputs(lits)
    if k <= 0:
        return []
    n = len(lits)
    if k > n:
        return [()]
    return encode_at_most_k([-l for l in lits], n - k, alloc)


class Totalizer:
    """Unary counter over input literals: if j inputs are true, outputs
    1..j are implied true (one-sided implication).

    An upper bound b is enforced by assuming, or adding as a unit, the
    negation of output b+1; tightening the bound later needs no new clauses.
    """

    __slots__ = ("outputs",)

    def __init__(self, inputs, alloc: VarAllocator, emit):
        inputs = list(inputs)
        if not inputs:
            raise ValueError("totalizer needs at least one input")
        self.outputs = _tot_build(inputs, alloc, emit)

    @property
    def size(self) -> int:
        return len(self.outputs)

    def output(self, j: int) -> int:
        """1-based: the literal implied true when at least j inputs are true."""
        return self.outputs[j - 1]

    def at_most_assumptions(self, k: int) -> tuple:
        """Assumption literals enforcing at most k true inputs."""
        if k >= self.size:
            return ()
        return (-self.outputs[k],)


def _tot_build(lits, alloc, emit):
    if len(lits) == 1:
        return [lits[0]]
    mid = len(lits) // 2
    left = _tot_build(lits[:mid], alloc, emit)
    right = _tot_build(lits[mid:], alloc, emit)
    outs = [alloc.fresh() for _ in range(len(left) + len(right))]
    for i in range(len(left) + 1):
        for j in range(len(right) + 1):
            if i + j == 0:
                continue
            cl = []
            if i:
                cl.append(-left[i - 1])
            if j:
                cl.append(-right[j - 1])
            cl.append(outs[i + j - 1])
            emit(tuple(cl))
    return outs


class GenTotalizer:
    """Weighted totalizer: one output literal per reachable subset-sum of
    the input weights (one-sided, like Totalizer).

    Supports growing the input set and merging with another structure built
    over the same solver, which is what partition merging needs. An optional
    cap collapses all sums >= cap into a single overflow output.
    """

    __slots__ = ("alloc", "emit", "cap", "outs")

    def __init__(self, alloc: VarAllocator, emit, cap: int | None = None):
        self.alloc = alloc
        self.emit = emit
        self.cap = cap
        self.outs: dict = {}

    def _capped(self, w: int) -> int:
        return w if self.cap is None else min(w, self.cap)

    def add_inputs(self, weighted_lits) -> None:
        """Extend the structure with (literal, weight) pairs, weight >= 1."""
        nodes = []
        for lit, w in weighted_lits:
            if w < 1:
                raise ValueError(f"weight must be >= 1, got {w}")
            nodes.append({self._capped(w): lit})
        while len(nodes) > 1:
            nxt = [self._merge(nodes[i], nodes[i + 1]) for i in range(0, len(nodes) - 1, 2)]
            if len(nodes) % 2:
                nxt.append(nodes[-1])
            nodes = nxt
        if not nodes:
            return
        self.outs = self._merge(self.outs, nodes[0]) if self.outs else nodes[0]

    def merge_from(self, other: "GenTotalizer") -> None:
        if other.outs:
            self.outs = self._merge(self.outs, other.outs) if self.outs else dict(other.outs)

    def _merge(self, a: dict, b: dict) -> dict:
        sums = set(a) | set(b)
        for wa in a:
            for wb in b:
                sums.add(self._capped(wa + wb))
        outs = {w: self.alloc.fresh() for w in sorted(sums)}
        for wa, la in a.items():
            self.emit((-la, outs[wa]))
        for wb, lb in b.items():
            self.emit((-lb, outs[wb]))
        for wa, la in a.items():
            for wb, lb in b.items():
                self.emit((-la, -lb, outs[self._capped(wa + wb)]))
        return outs

    def bound_assumptions(self, bound: int) -> tuple:
        """Assumption literals forbidding any total weight above bound."""
        return tuple(-lit for w, lit in sorted(self.outs.items()) if w > bound)

    def next_weight_above(self, bound: int):
        """Smallest reachable sum strictly above bound, or None."""
        above = [w for w in self.outs if w > bound]
        return min(above) if above else None
