"""Core CNF data model shared by the solvers, encoders and file formats.

Literals are nonzero signed ints: the magnitude is the 1-based variable
index, the sign is the polarity. Clauses are tuples of literals,
deduplicated at construction; a clause containing a complementary pair is
represented by the TAUTOLOGY marker instead of a tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

# Weight arithmetic is pinned to the unsigned 64-bit range; exceeding it on
# summation is a hard error rather than a silent wrap or an unbounded int.
MAX_WEIGHT_SUM = 2**64 - 1

Clause = tuple


class _Tautology:
    __slots__ = ()

    def __repr__(self):
        return "TAUTOLOGY"


TAUTOLOGY = _Tautology()


def lit_is_true(model, lit: int) -> bool:
    """Evaluate a literal under a model given as bool-list indexed by variable."""
    v = model[abs(lit)]
    return v if lit > 0 else not v


def make_clause(lits) -> Clause | _Tautology:
    """Normalize literals into a clause: dedupe (first occurrence wins),
    return TAUTOLOGY if a complementary pair is present."""
    seen = set()
    out = []
    for lit in lits:
        lit = int(lit)
        if lit == 0:
            raise ValueError("literal 0 is reserved as a clause terminator")
        if -lit in seen:
            return TAUTOLOGY
        if lit not in seen:
            seen.add(lit)
            out.append(lit)
    return tuple(out)


def eliminate_pure_literals(clauses, n_vars: int, frozen) -> tuple:
    """Pure-literal elimination over the variables outside `frozen`.

    Repeatedly drops every clause holding a pure literal (one whose
    complement is in no remaining clause) of an unfrozen variable. Returns
    (kept, pure): the ascending indices of the remaining clauses, and one
    literal per eliminated variable; no eliminated variable occurs in a kept
    clause. Every dropped clause holds a literal of pure, so making all of
    pure true extends any model of the kept clauses to a model of clauses.
    Linear in their size.
    """
    count = [0] * (2 * n_vars + 1)  # remaining clauses holding lit, at lit + n_vars
    occurs: list = [[] for _ in range(n_vars + 1)]  # clause indices per variable
    for i, cl in enumerate(clauses):
        for lit in cl:
            count[lit + n_vars] += 1
            occurs[abs(lit)].append(i)
    done = bytearray(n_vars + 1)  # frozen or eliminated
    for v in frozen:
        done[v] = 1
    kept = [True] * len(clauses)
    pure = []
    queue = [v for v in range(n_vars, 0, -1) if occurs[v] and not done[v]]
    while queue:
        v = queue.pop()
        pos, neg = count[n_vars + v], count[n_vars - v]
        if done[v] or (pos and neg):
            continue
        done[v] = 1
        pure.append(v if pos else -v)  # -v when dropped clauses took both
        for i in occurs[v]:
            if kept[i]:
                kept[i] = False
                for lit in clauses[i]:
                    count[lit + n_vars] -= 1
                    if not count[lit + n_vars] and not done[abs(lit)]:
                        queue.append(abs(lit))
    return [i for i, k in enumerate(kept) if k], pure


@dataclass(frozen=True)
class SoftClause:
    """A clause that may be violated at a cost. part 0 means unassigned."""

    lits: Clause
    weight: int
    part: int = 0

    def __post_init__(self):
        if self.weight < 1:
            raise ValueError(f"soft clause weight must be >= 1, got {self.weight}")
        if self.part < 0:
            raise ValueError(f"partition label must be >= 0, got {self.part}")


@dataclass
class MaxSatInstance:
    """Weighted partial MaxSAT instance: hard clauses must hold, soft ones
    are violated at their weight. `top` is the hard-clause weight marker."""

    n_vars: int
    hard: list
    soft: list
    top: int = 0

    def __post_init__(self):
        if self.top <= 0:
            self.top = self.soft_weight_sum() + 1

    def soft_weight_sum(self) -> int:
        return sum(s.weight for s in self.soft)

    def soft_vars(self) -> set:
        """The soft clauses' variables: pure-literal elimination freezes them."""
        return {abs(lit) for s in self.soft for lit in s.lits}

    def validate(self) -> None:
        for cl in self.hard:
            for lit in cl:
                if not 1 <= abs(lit) <= self.n_vars:
                    raise ValueError(f"hard clause literal {lit} out of range 1..{self.n_vars}")
        for s in self.soft:
            for lit in s.lits:
                if not 1 <= abs(lit) <= self.n_vars:
                    raise ValueError(f"soft clause literal {lit} out of range 1..{self.n_vars}")
            if s.weight >= self.top:
                raise ValueError(f"soft weight {s.weight} not below top {self.top}")
        if self.soft_weight_sum() > MAX_WEIGHT_SUM:
            raise OverflowError("sum of soft weights exceeds the 64-bit unsigned range")

    def cost_of(self, model, soft_ids=None) -> int:
        """Total weight of soft clauses falsified by the model, among those
        with the given indices if soft_ids is given."""
        soft = self.soft if soft_ids is None else (self.soft[i] for i in soft_ids)
        return sum(s.weight for s in soft if not any(lit_is_true(model, lit) for lit in s.lits))

    def hard_satisfied(self, model) -> bool:
        return all(any(lit_is_true(model, lit) for lit in cl) for cl in self.hard)


@dataclass
class PartitionedInstance:
    """A MaxSAT instance whose soft clauses carry partition labels 1..n_part.

    Hard-clause labels are advisory metadata retained from pwcnf input; the
    solving algorithms partition soft clauses only.

    `elimination` holds what `eliminate_pure_literals` returned for base's
    hard clauses with the soft-clause variables frozen, when the partitioning
    step has already run it, so that the solver does not run it again.
    """

    base: MaxSatInstance
    n_part: int
    hard_labels: list | None = None
    elimination: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def validate(self) -> None:
        self.base.validate()
        if self.n_part < 1:
            raise ValueError(f"n_part must be >= 1, got {self.n_part}")
        for s in self.base.soft:
            if not 1 <= s.part <= self.n_part:
                raise ValueError(f"soft partition label {s.part} outside 1..{self.n_part}")
        if self.hard_labels is not None:
            if len(self.hard_labels) != len(self.base.hard):
                raise ValueError("hard_labels length does not match hard clause count")
            for lbl in self.hard_labels:
                if not 1 <= lbl <= self.n_part:
                    raise ValueError(f"hard partition label {lbl} outside 1..{self.n_part}")

    def blocks(self) -> dict:
        """Nonempty partition blocks: label -> list of soft-clause indices."""
        out: dict = {}
        for i, s in enumerate(self.base.soft):
            out.setdefault(s.part, []).append(i)
        return dict(sorted(out.items()))

    @classmethod
    def single_block(cls, inst: MaxSatInstance) -> "PartitionedInstance":
        soft = [replace(s, part=1) for s in inst.soft]
        return cls(base=MaxSatInstance(inst.n_vars, list(inst.hard), soft, inst.top), n_part=1)


class VarAllocator:
    """Monotone fresh-variable source starting above an instance's variables."""

    __slots__ = ("top",)

    def __init__(self, n_reserved: int):
        self.top = int(n_reserved)

    def fresh(self) -> int:
        self.top += 1
        return self.top
