"""Cardinality and pseudo-Boolean CNF encodings.

Sequential-counter (Sinz) encodings back the problem encoders' hard
constraints. The generalized totalizer (Joshi, Martins & Manquinho, CP
2015) backs the solver-side bounds, where incremental tightening and
structure merging are needed; the unary totalizer (Bailleux & Boufkhad,
CP 2003) is its unit-weight case, built by the same merge tree.
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


def _merge(a: dict, b: dict, alloc: VarAllocator, emit, cap) -> dict:
    """Merge two {sum: literal} nodes, both in ascending sum order, into a
    node with one fresh output per reachable sum (sums >= cap collapse into
    cap). A left sum or none plus a right sum or none implies their total."""
    if not a or not b:
        return dict(a or b)
    sums = set(a) | set(b) | {wa + wb for wa in a for wb in b}
    if cap is not None:
        sums = {min(w, cap) for w in sums}
    outs = {w: alloc.fresh() for w in sorted(sums)}
    top = max(outs)  # every total at or above top has output top
    for wb, lb in b.items():
        emit((-lb, outs[wb]))
    for wa, la in a.items():
        emit((-la, outs[wa]))
        for wb, lb in b.items():
            w = wa + wb
            emit((-la, -lb, outs[w if w < top else top]))
    return outs


def _tree(nodes: list, alloc: VarAllocator, emit, cap) -> dict:
    """Balanced merge tree over leaf nodes, left len // 2 leaves first."""
    if len(nodes) == 1:
        return nodes[0]
    mid = len(nodes) // 2
    left = _tree(nodes[:mid], alloc, emit, cap)
    right = _tree(nodes[mid:], alloc, emit, cap)
    return _merge(left, right, alloc, emit, cap)


class GenTotalizer:
    """Generalized totalizer: one output literal per reachable sum of the
    input weights, implied true once the true inputs reach that sum
    (one-sided). It can grow its inputs and absorb another structure built
    over the same solver, which is what partition merging needs. An optional
    cap collapses all sums >= cap into a single overflow output.
    """

    __slots__ = ("alloc", "emit", "cap", "outs")

    def __init__(self, alloc: VarAllocator, emit, cap: int | None = None):
        self.alloc = alloc
        self.emit = emit
        self.cap = cap
        self.outs: dict = {}  # sum -> output literal, in ascending sum order

    def add_inputs(self, weighted_lits) -> None:
        """Extend the structure with (literal, weight) pairs, weight >= 1."""
        cap = self.cap
        nodes = []
        for lit, w in weighted_lits:
            if w < 1:
                raise ValueError(f"weight must be >= 1, got {w}")
            nodes.append({w if cap is None else min(w, cap): lit})
        if nodes:
            node = _tree(nodes, self.alloc, self.emit, cap)
            self.outs = _merge(self.outs, node, self.alloc, self.emit, cap)

    def merge_from(self, other: "GenTotalizer") -> None:
        self.outs = _merge(self.outs, other.outs, self.alloc, self.emit, self.cap)

    def bound_assumptions(self, bound: int) -> tuple:
        """Assumption literals forbidding any total weight above bound."""
        return tuple(-lit for w, lit in self.outs.items() if w > bound)

    def next_weight_above(self, bound: int):
        """Smallest reachable sum strictly above bound, or None."""
        return next((w for w in self.outs if w > bound), None)


class Totalizer(GenTotalizer):
    """Unary totalizer, the unit-weight case: outs[j] is implied once j
    inputs are true, so assuming -outs[b + 1] enforces at most b. The class
    exists only because oll builds one per core and the benchmark tracer
    patches Totalizer.__init__; it never calls add_inputs, so the tracer
    sees one span per build and counts its variables once.
    """

    __slots__ = ()

    def __init__(self, inputs, alloc: VarAllocator, emit):
        super().__init__(alloc, emit)
        leaves = [{1: lit} for lit in inputs]
        if not leaves:
            raise ValueError("totalizer needs at least one input")
        self.outs = _tree(leaves, alloc, emit, None)
