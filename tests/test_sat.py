import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TWO_TRIANGLES_HARD
from oracles import dpll_satisfiable
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


def test_model_value_contract():
    s = make_solver(1, [(1,)])
    assert s.solve().sat
    assert s.model_value(1) is True
    s.add_clause((-1,))
    assert not s.solve().sat
    with pytest.raises(RuntimeError):
        s.model_value(1)


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
        fresh = make_solver(n, so_far).solve().sat
        assert got == fresh == dpll_satisfiable(so_far)


def test_statistics_exposed():
    s = make_solver(6, TWO_TRIANGLES_HARD)
    s.solve()
    assert s.stats["solves"] == 1
    assert s.stats["propagations"] >= 0
    assert set(s.stats) >= {"conflicts", "decisions", "propagations", "restarts"}
