"""Incremental CDCL SAT solver with assumptions and unsat-core extraction.

Standard architecture: two-watched-literal propagation, first-UIP conflict
analysis with recursive clause minimization, activity-based branching with
exponential decay, phase saving (initial polarity false), Luby restarts,
and periodic deletion of the learned clauses with the highest LBD (literal
block distance: the number of distinct decision levels among a clause's
literals when it was learned). The solver is fully deterministic: there is
no randomized tie-breaking, the lowest variable index wins.

External literals are nonzero signed ints; internally a literal v is the
code 2*v, and -v is 2*v+1, so negation is code^1 and the variable is
code>>1.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from heapq import heappop, heappush


class SolverTimeout(Exception):
    """Raised when a solve call exceeds its wall-clock deadline."""


@dataclass
class SolveOutcome:
    """Either SAT with a total model (bool list indexed by variable, slot 0
    unused) or UNSAT with a core: a subset of the assumption literals whose
    conjunction with the clause database is unsatisfiable."""

    sat: bool
    model: list | None = None
    core: frozenset | None = None


def _luby(y: int, x: int) -> int:
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x = x % size
    return y**seq


def _code(lit: int) -> int:
    return (lit << 1) if lit > 0 else ((-lit) << 1) | 1


def _ext(code: int) -> int:
    v = code >> 1
    return -v if code & 1 else v


class Solver:
    """One solver owns one clause database and is driven by one thread.

    add_clause and solve may be interleaved freely; the outcome is always
    equivalent to a fresh solver given the final database.
    """

    def __init__(self, deadline: float | None = None):
        self.n_vars = 0
        self.ok = True
        self.deadline = deadline
        # indexed by variable (slot 0 unused)
        self.level = [0]
        self.reason: list = [None]
        self.activity = [0.0]
        self.phase = [False]
        # indexed by literal code
        self.vals = [0, 0]
        self.watches: list = [[], []]
        self.trail: list = []
        self.trail_lim: list = []
        self.qhead = 0
        # every clause of 2+ literals is watched by its first two; the
        # implied literal of a reason clause is its first
        self.clauses: list = []  # originals and binary learnts, never deleted
        self.learnts: list = []  # (lbd, clause) per learnt of 3+ literals, oldest first
        self._var_inc = 1.0
        self._var_decay = 1.0 / 0.95
        # (-activity, v): each unassigned v has an entry keyed by its activity.
        # Only assigned variables are bumped, and _cancel_until pushes a fresh
        # entry for every variable it frees, so that entry outranks older ones.
        self._heap: list = []
        self._reduces = 0
        self.stats = {
            "solves": 0,
            "conflicts": 0,
            "decisions": 0,
            "propagations": 0,
            "restarts": 0,
        }

    # ------------------------------------------------------------- setup

    def reserve(self, n_vars: int) -> None:
        """Allocate variables 1..n_vars."""
        while self.n_vars < n_vars:
            self.n_vars += 1
            self.level.append(0)
            self.reason.append(None)
            self.activity.append(0.0)
            self.phase.append(False)
            self.vals.extend((0, 0))
            self.watches.append([])
            self.watches.append([])
            heappush(self._heap, (0.0, self.n_vars))

    def add_clause(self, lits) -> bool:
        """Add a clause over already-reserved variables.

        Returns False once the database is unsatisfiable at the root.
        Tautologies are ignored; duplicate literals are dropped.
        """
        n, vals = self.n_vars, self.vals
        seen = set()
        cl = []  # distinct literals not yet false at the root
        satisfied = False
        for lit in lits:
            if not 1 <= abs(lit) <= n:
                raise ValueError(f"literal {lit} outside allocated variables 1..{n}")
            if -lit in seen:
                return self.ok  # tautology
            if lit in seen:
                continue
            seen.add(lit)
            c = _code(lit)
            if vals[c] == 1:
                satisfied = True
            elif vals[c] == 0:
                cl.append(c)
        if not self.ok:
            return False
        if satisfied:
            return True
        if not cl:
            self.ok = False
            return False
        if len(cl) == 1:
            self._enqueue(cl[0], None)
            if self._propagate() is not None:
                self.ok = False
            return self.ok
        self.clauses.append(cl)
        self.watches[cl[0]].append(cl)
        self.watches[cl[1]].append(cl)
        return True

    # -------------------------------------------------------- assignment

    def _enqueue(self, code: int, reason) -> None:
        self.vals[code] = 1
        self.vals[code ^ 1] = -1
        v = code >> 1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(code)

    def _decide(self, code: int) -> None:
        self.stats["decisions"] += 1
        self.trail_lim.append(len(self.trail))
        self._enqueue(code, None)

    def _cancel_until(self, lvl: int) -> None:
        if len(self.trail_lim) <= lvl:
            return
        bound = self.trail_lim[lvl]
        trail, vals, phase = self.trail, self.vals, self.phase
        heap, activity = self._heap, self.activity
        for i in range(len(trail) - 1, bound - 1, -1):
            code = trail[i]
            v = code >> 1
            vals[code] = 0
            vals[code ^ 1] = 0
            phase[v] = not (code & 1)
            self.reason[v] = None
            heappush(heap, (-activity[v], v))
        del trail[bound:]
        del self.trail_lim[lvl:]
        self.qhead = len(trail)

    # ------------------------------------------------------- propagation

    def _propagate(self):
        trail, vals, watches = self.trail, self.vals, self.watches
        level, reason = self.level, self.reason
        qhead = self.qhead
        dl = len(self.trail_lim)
        nprops = 0
        confl = None
        while qhead < len(trail):
            p = trail[qhead]
            qhead += 1
            nprops += 1
            f = p ^ 1  # the literal that just became false
            ws = watches[f]
            if not ws:
                continue
            watches[f] = keep = []
            i = 0
            n = len(ws)
            while i < n:
                cl = ws[i]
                i += 1
                if cl[0] == f:
                    cl[0], cl[1] = cl[1], cl[0]
                w0 = cl[0]
                if vals[w0] == 1:
                    keep.append(cl)
                    continue
                found = False
                for j in range(2, len(cl)):
                    if vals[cl[j]] != -1:
                        cl[1], cl[j] = cl[j], cl[1]
                        watches[cl[1]].append(cl)
                        found = True
                        break
                if found:
                    continue
                keep.append(cl)
                if vals[w0] == -1:
                    keep.extend(ws[i:])
                    confl = cl
                    qhead = len(trail)
                    break
                vals[w0] = 1
                vals[w0 ^ 1] = -1
                v = w0 >> 1
                level[v] = dl
                reason[v] = cl
                trail.append(w0)
            if confl is not None:
                break
        self.qhead = qhead
        self.stats["propagations"] += nprops
        return confl

    # ---------------------------------------------------------- analysis

    def _bump_var(self, v: int) -> None:
        self.activity[v] += self._var_inc
        if self.activity[v] > 1e100:
            act = self.activity
            for i in range(1, self.n_vars + 1):
                act[i] *= 1e-100
            self._var_inc *= 1e-100
            self._rebuild_heap()

    def _rebuild_heap(self) -> None:
        self._heap = [
            (-self.activity[v], v)
            for v in range(1, self.n_vars + 1)
            if self.vals[v << 1] == 0
        ]
        self._heap.sort()

    def _analyze(self, confl):
        learnt = [0]
        seen = bytearray(self.n_vars + 1)
        toclear = []
        cur = len(self.trail_lim)
        path = 0
        p = -1
        index = len(self.trail)
        c = confl
        while True:
            start = 0 if p == -1 else 1
            for k in range(start, len(c)):
                q = c[k]
                v = q >> 1
                if not seen[v] and self.level[v] > 0:
                    seen[v] = 1
                    toclear.append(v)
                    self._bump_var(v)
                    if self.level[v] >= cur:
                        path += 1
                    else:
                        learnt.append(q)
            while True:
                index -= 1
                if seen[self.trail[index] >> 1]:
                    break
            p = self.trail[index]
            v = p >> 1
            c = self.reason[v]
            seen[v] = 0
            path -= 1
            if path == 0:
                break
        learnt[0] = p ^ 1
        # recursive minimization: drop literals implied by the rest
        if len(learnt) > 2:
            kept = [learnt[0]]
            for q in learnt[1:]:
                if self.reason[q >> 1] is None or not self._lit_redundant(q, seen, toclear):
                    kept.append(q)
            learnt = kept
        for v in toclear:
            seen[v] = 0
        if len(learnt) == 1:
            return learnt, 0
        # move the highest-level remaining literal to the second watch slot
        mi = 1
        for k in range(2, len(learnt)):
            if self.level[learnt[k] >> 1] > self.level[learnt[mi] >> 1]:
                mi = k
        learnt[1], learnt[mi] = learnt[mi], learnt[1]
        return learnt, self.level[learnt[1] >> 1]

    def _lit_redundant(self, q, seen, toclear) -> bool:
        """Whether q's reasons resolve entirely into already-seen literals."""
        stack = [q]
        top = len(toclear)
        level, reason = self.level, self.reason
        while stack:
            r = reason[stack.pop() >> 1]
            for x in r[1:]:
                v = x >> 1
                if not seen[v] and level[v] > 0:
                    if reason[v] is None:
                        for u in toclear[top:]:
                            seen[u] = 0
                        del toclear[top:]
                        return False
                    seen[v] = 1
                    toclear.append(v)
                    stack.append(x)
        return True

    def _analyze_final(self, p: int) -> frozenset:
        """Core of assumption literals responsible for assumption p failing."""
        core = {_ext(p)}
        seen = {p >> 1}
        for i in range(len(self.trail) - 1, -1, -1):
            code = self.trail[i]
            v = code >> 1
            if v not in seen:
                continue
            seen.discard(v)
            if self.level[v] == 0:
                continue  # root fact, not an assumption
            r = self.reason[v]
            if r is None:
                core.add(_ext(code))
            else:
                for q in r[1:]:
                    if self.level[q >> 1] > 0:
                        seen.add(q >> 1)
        return frozenset(core)

    # ------------------------------------------------------------ search

    def _pick_branch(self):
        heap, vals = self._heap, self.vals
        while heap:
            _, v = heappop(heap)
            if vals[v << 1] == 0:
                return v
        return None  # an unassigned variable always has a current entry

    def _record_learnt(self, learnt, bt: int) -> None:
        lbd = len({self.level[c >> 1] for c in learnt})  # levels before the backjump
        self._cancel_until(bt)
        if len(learnt) == 1:
            self._enqueue(learnt[0], None)
            return
        if len(learnt) == 2:
            self.clauses.append(learnt)
        else:
            self.learnts.append((lbd, learnt))
        self.watches[learnt[0]].append(learnt)
        self.watches[learnt[1]].append(learnt)
        self._enqueue(learnt[0], learnt)

    def _check_deadline(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise SolverTimeout

    def _reduce_db(self) -> None:
        """Drop up to half of the learnts; a reason of a current assignment stays."""
        self._reduces += 1
        learnts, reason = self.learnts, self.reason
        # highest LBD first; the sort is stable, so oldest first among equals
        ranked = sorted(range(len(learnts)), key=lambda i: -learnts[i][0])
        unlocked = [i for i in ranked if reason[learnts[i][1][0] >> 1] is not learnts[i][1]]
        drop = set(unlocked[: len(learnts) // 2])
        self.learnts = [e for i, e in enumerate(learnts) if i not in drop]
        # rebuild watch lists from scratch (deleted clauses vanish)
        for code in range(2, 2 * self.n_vars + 2):
            self.watches[code] = []
        for cl in self.clauses:
            self.watches[cl[0]].append(cl)
            self.watches[cl[1]].append(cl)
        for _, cl in self.learnts:
            self.watches[cl[0]].append(cl)
            self.watches[cl[1]].append(cl)

    def _search(self, assumps):
        restarts = local_conflicts = loops = 0
        budget = 100 * _luby(2, restarts)
        while True:
            loops += 1
            if loops & 511 == 0:
                self._check_deadline()
            confl = self._propagate()
            if confl is not None:
                self.stats["conflicts"] += 1
                local_conflicts += 1
                if not self.trail_lim:
                    self.ok = False
                    return SolveOutcome(sat=False, core=frozenset())
                if local_conflicts & 63 == 0:
                    self._check_deadline()
                learnt, bt = self._analyze(confl)
                self._record_learnt(learnt, bt)
                self._var_inc *= self._var_decay
                continue
            if local_conflicts >= budget:
                restarts += 1
                self.stats["restarts"] += 1
                self._cancel_until(0)
                budget = 100 * _luby(2, restarts)
                local_conflicts = loops = 0
                continue
            if len(self.learnts) > 4000 + 1000 * self._reduces:
                self._reduce_db()
            dl = len(self.trail_lim)
            if dl < len(assumps):
                p = assumps[dl]
                v = self.vals[p]
                if v == 1:
                    self.trail_lim.append(len(self.trail))
                elif v == -1:
                    return SolveOutcome(sat=False, core=self._analyze_final(p))
                else:
                    self._decide(p)
            else:
                v = self._pick_branch()
                if v is None:
                    model = [False] * (self.n_vars + 1)
                    vals = self.vals
                    for var in range(1, self.n_vars + 1):
                        model[var] = vals[var << 1] == 1
                    return SolveOutcome(sat=True, model=model)
                code = (v << 1) if self.phase[v] else ((v << 1) | 1)
                self._decide(code)

    # ------------------------------------------------------------ public

    def solve(self, assumptions=()) -> SolveOutcome:
        """Solve the current database under the given assumption literals.

        SAT outcomes carry a total model extending the assumptions; UNSAT
        outcomes carry a core that is a subset of the assumptions. The
        solver is reusable afterwards.
        """
        self.stats["solves"] += 1
        self._check_deadline()
        codes = []
        for lit in assumptions:
            if not 1 <= abs(lit) <= self.n_vars:
                raise ValueError(f"assumption {lit} outside allocated variables")
            codes.append(_code(lit))
        if self.ok and self._propagate() is not None:
            self.ok = False
        if not self.ok:
            return SolveOutcome(sat=False, core=frozenset())
        try:
            return self._search(codes)
        finally:
            # also on a timeout: later clauses must see root values only
            self._cancel_until(0)
