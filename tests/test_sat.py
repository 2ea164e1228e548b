import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TWO_TRIANGLES_HARD
from oracles import dpll_satisfiable
from partmax import sat
from partmax.sat import Solver, SolverTimeout


def make_solver(n_vars, clauses=()):
    s = Solver()
    s.reserve(n_vars)
    for cl in clauses:
        s.add_clause(cl)
    return s


def check_model(clauses, model):
    for cl in clauses:
        assert any(model[abs(l)] == (l > 0) for l in cl), f"clause {cl} falsified"


def test_contradictory_units_give_empty_core():
    s = make_solver(1)
    s.add_clause((1,))
    s.add_clause((-1,))
    out = s.solve()
    assert not out.sat
    assert out.core == frozenset()


def test_unit_clause_fixes_variable_in_all_models():
    s = make_solver(2, [(1,), (2, -1)])
    for _ in range(3):
        out = s.solve()
        assert out.sat
        assert out.model[1] is True


def test_hard_triangles_are_satisfiable():
    s = make_solver(6, TWO_TRIANGLES_HARD)
    out = s.solve()
    assert out.sat
    check_model(TWO_TRIANGLES_HARD, out.model)


def test_guarded_soft_assumptions_yield_core():
    # guards 7 and 8 protect unit softs on v1 and v3
    clauses = list(TWO_TRIANGLES_HARD) + [(-1, 7), (-3, 8)]
    s = make_solver(8, clauses)
    out = s.solve(assumptions=[-7, -8])
    assert not out.sat
    assert out.core <= {-7, -8}
    assert len(out.core) == 2  # neither soft alone conflicts with the hard part
    # each single assumption is satisfiable
    assert s.solve(assumptions=[-7]).sat
    assert s.solve(assumptions=[-8]).sat


def test_assumption_only_sat():
    s = make_solver(1)
    out = s.solve(assumptions=[1])
    assert out.sat
    assert out.model[1] is True


def test_core_needs_both_assumptions():
    s = make_solver(2, [(1, 2)])
    out = s.solve(assumptions=[-1, -2])
    assert not out.sat
    assert out.core == frozenset({-1, -2})


def test_add_clause_rejects_unreserved_variables():
    s = make_solver(2)
    with pytest.raises(ValueError):
        s.add_clause((1, 3))
    with pytest.raises(ValueError):
        s.solve(assumptions=[4])


def test_deadline_zero_times_out():
    s = Solver(deadline=0.0)
    s.reserve(1)
    s.add_clause((1,))
    with pytest.raises(SolverTimeout):
        s.solve()


def random_cnf(rng, n_vars, n_clauses, width=3):
    clauses = []
    for _ in range(n_clauses):
        k = rng.randint(1, width)
        vs = rng.sample(range(1, n_vars + 1), min(k, n_vars))
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return clauses


def random_3sat(rng, n_vars, n_clauses):
    return [
        tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n_vars + 1), 3))
        for _ in range(n_clauses)
    ]


class _ExpiringClock:
    """Stands in for the time module: the first reading is before the
    deadline, every later one after it."""

    def __init__(self):
        self.readings = 0

    def monotonic(self):
        self.readings += 1
        return 0.0 if self.readings == 1 else 2.0


def test_timeout_leaves_solver_at_root(monkeypatch):
    n = 120
    clauses = random_3sat(random.Random(1), n, 480)
    s = make_solver(n, clauses)
    decisions = []
    decide = s._decide
    s._decide = lambda code: (decisions.append(code), decide(code))
    monkeypatch.setattr(sat, "time", _ExpiringClock())
    s.deadline = 1.0
    with pytest.raises(SolverTimeout):
        s.solve()
    assert decisions, "the search made no decision before timing out"
    assert not s.trail_lim and all(s.level[c >> 1] == 0 for c in s.trail)
    s.deadline = None
    # a unit against the first decision: were that decision still on the
    # trail, add_clause would read it as a root fact
    unit = (-sat._ext(decisions[0]),)
    s.add_clause(unit)
    out = s.solve()
    fresh = make_solver(n, clauses + [unit]).solve()
    assert out.sat == fresh.sat
    if out.sat:
        check_model(clauses + [unit], out.model)


def test_agrees_with_dpll_on_random_cnf():
    rng = random.Random(7)
    for round_ in range(150):
        n = rng.randint(3, 12)
        m = rng.randint(2, 4 * n)
        clauses = random_cnf(rng, n, m)
        s = make_solver(n, clauses)
        out = s.solve()
        assert out.sat == dpll_satisfiable(clauses), f"round {round_}: {clauses}"
        if out.sat:
            check_model(clauses, out.model)


def test_core_reverifies_unsat_under_dpll():
    rng = random.Random(13)
    found = 0
    for _ in range(120):
        n = rng.randint(3, 8)
        clauses = random_cnf(rng, n, rng.randint(3, 3 * n), width=2)
        assumps = sorted({v if rng.random() < 0.5 else -v for v in range(1, n + 1)}, key=abs)
        s = make_solver(n, clauses)
        out = s.solve(assumptions=assumps)
        if out.sat:
            continue
        found += 1
        assert out.core <= set(assumps)
        assert not dpll_satisfiable(clauses, assumptions=sorted(out.core, key=abs))
    assert found > 10


def test_determinism_same_input_same_statistics():
    def run():
        rng = random.Random(3)
        clauses = random_cnf(rng, 14, 55)
        s = make_solver(14, clauses)
        out = s.solve()
        return out.sat, tuple(out.model) if out.sat else tuple(sorted(out.core)), dict(s.stats)

    assert run() == run()


def assert_heap_covers_unassigned(s):
    """Branching relies on this: every unassigned variable has a heap entry
    keyed by its current activity, so an empty heap means all are assigned."""
    entries = set(s._heap)
    for v in range(1, s.n_vars + 1):
        if s.vals[v << 1] == 0:
            assert (-s.activity[v], v) in entries, v


@settings(max_examples=40)
@given(st.data())
def test_incremental_equals_fresh_solver(data):
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**6)))
    n = rng.randint(3, 9)
    batches = [random_cnf(rng, n, rng.randint(1, 6)) for _ in range(rng.randint(1, 4))]
    incremental = make_solver(n)
    so_far = []
    for batch in batches:
        for cl in batch:
            incremental.add_clause(cl)
        so_far.extend(batch)
        got = incremental.solve().sat
        assert_heap_covers_unassigned(incremental)
        assert_watches_exact(incremental)
        fresh = make_solver(n, so_far).solve().sat
        assert got == fresh == dpll_satisfiable(so_far)


def test_bump_of_assigned_variable_adds_no_heap_entry():
    n = 120
    s = make_solver(n, random_3sat(random.Random(1), n, 480))
    s.solve()
    assert s.stats["conflicts"] > 100
    v = next(v for v in range(1, n + 1) if s.vals[v << 1] == 0)
    s._decide(v << 1)
    size, act = len(s._heap), s.activity[v]
    s._bump_var(v)
    assert s.activity[v] > act and len(s._heap) == size
    # freeing v pushes the entry that carries its bumped activity
    s._cancel_until(0)
    assert_heap_covers_unassigned(s)


def test_binary_chain_core_is_exactly_its_two_ends():
    # 1 -> 2 -> ... -> 50 through binary clauses only: the refutation of
    # [1, -50] runs along binary reasons, and the core names both ends
    s = make_solver(50, [(-i, i + 1) for i in range(1, 50)])
    out = s.solve(assumptions=[1, -50])
    assert not out.sat
    assert out.core == frozenset({1, -50})
    out = s.solve(assumptions=[1])
    assert out.sat
    assert all(out.model[1:51])


def test_statistics_exposed():
    s = make_solver(6, TWO_TRIANGLES_HARD)
    s.solve()
    assert s.stats["solves"] == 1
    assert s.stats["propagations"] >= 0
    assert set(s.stats) >= {"conflicts", "decisions", "propagations", "restarts"}


def test_root_conflict_outranks_an_expired_deadline(monkeypatch):
    # this unsatisfiable formula is refuted at the 64th conflict, where the
    # search also checks the deadline; the refutation must not be lost
    clauses = random_3sat(random.Random(73), 42, 193)
    s = make_solver(42, clauses)
    monkeypatch.setattr(sat, "time", _ExpiringClock())
    s.deadline = 1.0
    assert not s.solve().sat
    assert s.stats["conflicts"] == 64 and not s.ok
    s.deadline = None
    assert not s.solve().sat


def assert_watches_exact(s):
    """Every clause of two or more literals, original or learnt, is watched
    by exactly its first two literals, and nothing else is watched."""
    clauses = s.clauses + [cl for _, cl in s.learnts]
    watched = [(code, cl) for code, ws in enumerate(s.watches) for cl in ws]
    assert len(watched) == 2 * len(clauses)
    for code, cl in watched:
        assert code in (cl[0], cl[1])
    for cl in clauses:
        assert any(w is cl for w in s.watches[cl[0]])
        assert any(w is cl for w in s.watches[cl[1]])


def test_learnt_reduction_keeps_locked_clauses_and_watches():
    n = 160
    clauses = random_3sat(random.Random(0), n, int(4.26 * n))
    s = make_solver(n, clauses)
    s._reduces = -3  # the first reduction fires at 1000 learnts instead of 4000
    s._var_inc = 1e95  # and activities are rescaled within a few hundred conflicts
    reductions = []
    reduce_db = s._reduce_db

    def checked_reduce_db():
        locked = {id(cl) for _, cl in s.learnts if s.reason[cl[0] >> 1] is cl}
        # give locked clauses the worst LBD, so only their lock keeps them
        s.learnts = [(n + 1 if id(cl) in locked else lbd, cl) for lbd, cl in s.learnts]
        before = list(s.learnts)
        binaries = [cl for cl in s.clauses if len(cl) == 2]
        reduce_db()
        # binary learnts live in s.clauses, which reduction never touches
        assert all(len(cl) >= 3 for _, cl in s.learnts)
        kept_clauses = {id(cl) for cl in s.clauses}
        assert all(id(cl) in kept_clauses for cl in binaries)
        kept = {id(cl) for _, cl in s.learnts}
        dropped = [lbd for lbd, cl in before if id(cl) not in kept]
        assert 0 < len(dropped) <= len(before) // 2
        assert locked <= kept
        # highest LBD goes first: no unlocked survivor has a higher LBD
        survivors = [lbd for lbd, cl in s.learnts if id(cl) not in locked]
        assert max(survivors, default=0) <= min(dropped)
        # and oldest first among equal LBDs: dropped ties precede kept ones
        ties = [id(cl) in kept for lbd, cl in before if lbd == min(dropped) and id(cl) not in locked]
        assert ties == sorted(ties)
        # survivors keep their order, oldest first
        assert s.learnts == [e for e in before if id(e[1]) in kept]
        assert_watches_exact(s)
        reductions.append((len(before), len(locked), len(dropped)))

    s._reduce_db = checked_reduce_db
    out = s.solve()
    assert reductions and reductions[0][1] > 0, reductions
    assert s._var_inc < 1e95  # rescaled
    assert_heap_covers_unassigned(s)
    assert out.sat
    check_model(clauses, out.model)
    # later incremental solves under assumptions agree with a fresh solver:
    # each model satisfies everything, each core is unsatisfiable afresh
    rng = random.Random(1)
    outcomes = set()
    for k in (1, 2, 4, 8, 12, 16):
        assumps = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), k)]
        got = s.solve(assumptions=assumps)
        assert_heap_covers_unassigned(s)
        outcomes.add(got.sat)
        if got.sat:
            check_model(clauses + [(a,) for a in assumps], got.model)
        else:
            assert got.core <= set(assumps)
            assert not make_solver(n, clauses).solve(assumptions=sorted(got.core, key=abs)).sat
    assert outcomes == {True, False}
