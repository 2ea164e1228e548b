"""The encodings are checked against their defining predicate: for every
assignment of the original literals, the clause set must extend to the
auxiliaries exactly when the predicate holds. The extension check is an
independent DPLL, not the package solver."""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import projection_satisfiable
from partmax.cards import GenTotalizer, Totalizer, encode_at_least_k, encode_at_most_k
from partmax.cnf import VarAllocator


def assignments(n):
    return itertools.product([False, True], repeat=n)


def fixed_lits(lits, values):
    return [l if v else -l for l, v in zip(lits, values)]


def check_projection(clauses, lits, predicate):
    for values in assignments(len(lits)):
        want = predicate(sum(values))
        got = projection_satisfiable(clauses, fixed_lits(lits, values))
        assert got == want, f"values {values}: encoding says {got}, predicate says {want}"


def test_at_most_zero_forces_all_false():
    alloc = VarAllocator(2)
    assert sorted(encode_at_most_k([1, 2], 0, alloc)) == [(-2,), (-1,)]


def test_at_most_vacuous_bound_is_empty():
    alloc = VarAllocator(3)
    assert encode_at_most_k([1, 2, 3], 3, alloc) == []
    assert encode_at_most_k([1, 2, 3], 7, alloc) == []


def test_at_most_one_of_three_admits_exactly_four_assignments():
    alloc = VarAllocator(3)
    clauses = encode_at_most_k([1, 2, 3], 1, alloc)
    admitted = [
        values
        for values in assignments(3)
        if projection_satisfiable(clauses, fixed_lits([1, 2, 3], values))
    ]
    assert len(admitted) == 4
    assert all(sum(v) <= 1 for v in admitted)


def test_at_least_zero_is_empty():
    assert encode_at_least_k([1, 2], 0, VarAllocator(2)) == []


def test_at_least_beyond_size_is_unsatisfiable_marker():
    assert encode_at_least_k([1, 2], 3, VarAllocator(2)) == [()]


def test_at_least_all_forces_units():
    assert sorted(encode_at_least_k([1, 2], 2, VarAllocator(2))) == [(1,), (2,)]


def test_at_least_two_of_three_admits_exactly_four_assignments():
    alloc = VarAllocator(3)
    clauses = encode_at_least_k([1, 2, 3], 2, alloc)
    admitted = [
        values
        for values in assignments(3)
        if projection_satisfiable(clauses, fixed_lits([1, 2, 3], values))
    ]
    assert len(admitted) == 4
    assert all(sum(v) >= 2 for v in admitted)


def test_encoding_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        encode_at_most_k([1, 1], 1, VarAllocator(1))
    with pytest.raises(ValueError):
        encode_at_most_k([], 1, VarAllocator(0))
    with pytest.raises(ValueError):
        encode_at_most_k([1], -1, VarAllocator(1))


@pytest.mark.parametrize("n", range(1, 7))
def test_sequential_counter_matches_predicate(n):
    lits = list(range(1, n + 1))
    for k in range(0, n + 2):
        alloc = VarAllocator(n)
        clauses = encode_at_most_k(lits, k, alloc)
        check_projection(clauses, lits, lambda c, k=k: c <= k)
        alloc = VarAllocator(n)
        clauses = encode_at_least_k(lits, k, alloc)
        check_projection(clauses, lits, lambda c, k=k: c >= k)


def test_fresh_variable_hygiene():
    lits = [1, 2, 3, 4]
    alloc = VarAllocator(10)
    clauses = encode_at_most_k(lits, 2, alloc)
    for cl in clauses:
        for lit in cl:
            assert abs(lit) in (1, 2, 3, 4) or abs(lit) > 10


# ------------------------------------------------------------- totalizer


def build_totalizer(lits, reserved=None):
    alloc = VarAllocator(reserved if reserved is not None else max(lits))
    clauses = []
    tot = Totalizer(lits, alloc, clauses.append)
    return tot, clauses


def test_totalizer_single_input_is_identity():
    tot, clauses = build_totalizer([5], reserved=5)
    assert clauses == []
    assert list(tot.outs.values()) == [5]
    assert tot.bound_assumptions(0) == (-5,)
    assert tot.bound_assumptions(1) == ()


def test_totalizer_two_true_inputs_imply_both_outputs():
    tot, clauses = build_totalizer([1, 2])
    o1, o2 = list(tot.outs.values())
    # entailment via the independent DPLL: clauses + inputs + negated output
    assert not projection_satisfiable(clauses, [1, 2, -o1])
    assert not projection_satisfiable(clauses, [1, 2, -o2])
    assert projection_satisfiable(clauses, [1, 2, o1, o2])


@pytest.mark.parametrize("k", range(0, 5))
def test_totalizer_bound_matches_predicate_n4(k):
    tot, clauses = build_totalizer([1, 2, 3, 4])
    bound = list(tot.bound_assumptions(k))
    for values in assignments(4):
        want = sum(values) <= k
        got = projection_satisfiable(clauses, fixed_lits([1, 2, 3, 4], values) + bound)
        assert got == want


def test_totalizer_monotone_bound_tightening():
    tot, clauses = build_totalizer([1, 2, 3, 4])
    for k in range(1, 4):
        loose = set()
        tight = set()
        for values in assignments(4):
            fixed = fixed_lits([1, 2, 3, 4], values)
            if projection_satisfiable(clauses, fixed + list(tot.bound_assumptions(k))):
                loose.add(values)
            if projection_satisfiable(clauses, fixed + list(tot.bound_assumptions(k - 1))):
                tight.add(values)
        assert tight <= loose


def test_totalizer_fresh_variable_hygiene():
    alloc = VarAllocator(9)
    clauses = []
    Totalizer([1, 4, 9], alloc, clauses.append)
    for cl in clauses:
        for lit in cl:
            assert abs(lit) in (1, 4, 9) or abs(lit) > 9


# Clause list of the recursive unary totalizer that oll's encoding was
# recorded with: 5 inputs over variables 1..5, outputs 13..17 for sums 1..5.
TOTALIZER_5_CLAUSES = [
    (-2, 6), (-1, 6), (-1, -2, 7), (-5, 8), (-4, 8), (-4, -5, 9),
    (-8, 10), (-9, 11), (-3, 10), (-3, -8, 11), (-3, -9, 12),
    (-10, 13), (-11, 14), (-12, 15), (-6, 13), (-6, -10, 14), (-6, -11, 15),
    (-6, -12, 16), (-7, 14), (-7, -10, 15), (-7, -11, 16), (-7, -12, 17),
]


def test_totalizer_pins_recorded_clause_list():
    tot, clauses = build_totalizer([1, 2, 3, 4, 5])
    assert clauses == TOTALIZER_5_CLAUSES
    assert tot.outs == {1: 13, 2: 14, 3: 15, 4: 16, 5: 17}


@given(st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=12, unique=True),
       st.lists(st.booleans(), min_size=12, max_size=12))
def test_totalizer_is_unit_weight_gen_totalizer(variables, signs):
    lits = [v if s else -v for v, s in zip(variables, signs)]
    tot_clauses, gen_clauses = [], []
    tot = Totalizer(lits, VarAllocator(20), tot_clauses.append)
    gen = GenTotalizer(VarAllocator(20), gen_clauses.append)
    gen.add_inputs((l, 1) for l in lits)
    assert tot_clauses == gen_clauses
    assert tot.outs == gen.outs
    assert list(tot.outs) == list(range(1, len(lits) + 1))


# --------------------------------------------------- weighted totalizer


def build_gen(weighted, cap=None):
    alloc = VarAllocator(max(l for l, _ in weighted))
    clauses = []
    tot = GenTotalizer(alloc, clauses.append, cap=cap)
    tot.add_inputs(weighted)
    return tot, clauses


def test_gen_totalizer_single_input_forced_false_by_tight_bound():
    tot, clauses = build_gen([(3, 5)])
    bound = list(tot.bound_assumptions(4))
    assert bound == [-3]
    assert not projection_satisfiable(clauses, [3] + bound)
    assert projection_satisfiable(clauses, [-3] + bound)


def test_gen_totalizer_mixed_weights_bound_two():
    tot, clauses = build_gen([(1, 1), (2, 2)])
    bound = list(tot.bound_assumptions(2))
    assert not projection_satisfiable(clauses, [1, 2] + bound)  # weight 3
    assert projection_satisfiable(clauses, [-1, 2] + bound)  # weight 2


def test_gen_totalizer_equal_weights_bound_three():
    tot, clauses = build_gen([(1, 3), (2, 3)])
    bound = list(tot.bound_assumptions(3))
    assert not projection_satisfiable(clauses, [1, 2] + bound)
    assert projection_satisfiable(clauses, [1, -2] + bound)
    assert projection_satisfiable(clauses, [-1, 2] + bound)


def weighted_predicate_check(weights, cap=None):
    lits = list(range(1, len(weights) + 1))
    weighted = list(zip(lits, weights))
    total = sum(weights)
    tot, clauses = build_gen(weighted, cap=cap)
    bounds = sorted({0, total} | set(tot.outs) | {w - 1 for w in tot.outs})
    for bound in bounds:
        if cap is not None and bound >= cap:
            continue
        assumed = list(tot.bound_assumptions(bound))
        for values in assignments(len(weights)):
            w = sum(wt for wt, v in zip(weights, values) if v)
            want = w <= bound
            got = projection_satisfiable(clauses, fixed_lits(lits, values) + assumed)
            assert got == want, (weights, bound, values)


@pytest.mark.parametrize("weights", [[1, 1, 1], [1, 2, 3], [2, 2, 5], [4, 1, 1, 2]])
def test_gen_totalizer_matches_weighted_predicate(weights):
    weighted_predicate_check(weights)


def test_gen_totalizer_cap_collapses_large_sums():
    tot, clauses = build_gen([(1, 4), (2, 4), (3, 4)], cap=5)
    assert max(tot.outs) == 5
    bound = list(tot.bound_assumptions(4))
    assert not projection_satisfiable(clauses, [1, 2, -3] + bound)  # 8 -> over cap
    assert projection_satisfiable(clauses, [1, -2, -3] + bound)  # 4 <= 4


def test_gen_totalizer_next_weight_above():
    tot, _ = build_gen([(1, 2), (2, 5)])
    assert tot.next_weight_above(0) == 2
    assert tot.next_weight_above(2) == 5
    assert tot.next_weight_above(5) == 7
    assert tot.next_weight_above(7) is None


def test_gen_totalizer_merge_from_combines_sums():
    alloc = VarAllocator(4)
    clauses = []
    a = GenTotalizer(alloc, clauses.append)
    a.add_inputs([(1, 1), (2, 2)])
    b = GenTotalizer(alloc, clauses.append)
    b.add_inputs([(3, 4)])
    a.merge_from(b)
    assert set(a.outs) == {1, 2, 3, 4, 5, 6, 7}
    bound = list(a.bound_assumptions(5))
    assert not projection_satisfiable(clauses, [1, 2, 3] + bound)  # 7
    assert projection_satisfiable(clauses, [1, -2, 3] + bound)  # 5


@given(
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4),
    st.integers(min_value=0, max_value=16),
)
def test_gen_totalizer_random_bounds(weights, bound):
    lits = list(range(1, len(weights) + 1))
    tot, clauses = build_gen(list(zip(lits, weights)))
    assumed = list(tot.bound_assumptions(bound))
    for values in assignments(len(weights)):
        w = sum(wt for wt, v in zip(weights, values) if v)
        got = projection_satisfiable(clauses, fixed_lits(lits, values) + assumed)
        assert got == (w <= bound)
