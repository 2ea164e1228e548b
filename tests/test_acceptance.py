"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report lines.
"""

import itertools
import random
import time

from conftest import TWO_TRIANGLES_PWCNF, assert_valid_result, two_triangles_instance
from oracles import (
    brute_force_maxsat,
    brute_force_msc,
    brute_force_seating,
    dpll_satisfiable,
    projection_satisfiable,
)
from partmax.bench import apply_strategy
from partmax.cards import GenTotalizer, Totalizer, encode_at_least_k, encode_at_most_k
from partmax.cnf import MaxSatInstance, PartitionedInstance, SoftClause, VarAllocator
from partmax.encoders import (
    MscProblem,
    SchemeChoice,
    SeatingGenConfig,
    SeatingProblem,
    encode_msc,
    encode_seating,
    gen_seating,
)
from partmax.formats import parse_pwcnf, semantically_equal, write_pwcnf
from partmax.graphs import partition_by_graph
from partmax.maxsat import Status, solve_instance
from partmax.sat import Solver

ALGS = ("lsu", "msu3", "oll", "wbo")
STRATEGIES = ("none", "user", "vig", "cvig", "res", "random:16")


def report(n, name, ok, detail=""):
    line = f"[acceptance] criterion {n} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" — {detail}"
    print(line)
    return ok


# --------------------------------------------------------------------- 1


def test_criterion_1_reference_regression_all_algorithms_all_strategies():
    pinst = parse_pwcnf(TWO_TRIANGLES_PWCNF)
    worst = 0.0
    runs = 0
    ok = True
    for strategy in STRATEGIES:
        applied = apply_strategy("pwcnf", pinst, strategy, seed=0)
        for alg in ALGS:
            t0 = time.monotonic()
            res = solve_instance(applied, alg)
            elapsed = time.monotonic() - t0
            worst = max(worst, elapsed)
            runs += 1
            ok = ok and res.status == Status.OPTIMUM and res.cost == 2 and elapsed < 1.0
            assert res.status == Status.OPTIMUM, (alg, strategy)
            assert res.cost == 2, (alg, strategy, res.cost)
            assert elapsed < 1.0, (alg, strategy, elapsed)
            assert_valid_result(pinst.base, res)
    assert runs == 24
    report(1, "reference regression", ok, f"24/24 runs at cost 2, worst {worst * 1000:.0f} ms")


# --------------------------------------------------------------------- 2


def test_criterion_2_partition_fidelity():
    inst = two_triangles_instance()
    vig = partition_by_graph(inst, "vig", seed=0)
    vig_blocks = {frozenset(ids) for ids in vig.blocks().values()}
    res = partition_by_graph(inst, "res", seed=0)
    res_blocks = {frozenset(ids) for ids in res.blocks().values()}
    want_vig = {frozenset({0, 1}), frozenset({2, 3})}
    want_res = {frozenset({0}), frozenset({1}), frozenset({2, 3})}
    ok = vig_blocks == want_vig and res_blocks == want_res
    assert vig_blocks == want_vig
    assert res_blocks == want_res
    report(2, "partition fidelity", ok, "vig 2 blocks, res 3 blocks, exact match")


# --------------------------------------------------------------------- 3


def test_criterion_3_pwcnf_conformance():
    pinst = parse_pwcnf(TWO_TRIANGLES_PWCNF)
    base = pinst.base
    assert base.n_vars == 6
    assert len(base.hard) + len(base.soft) == 11
    assert base.top == 7
    assert pinst.n_part == 3
    labels = {s.lits: s.part for s in base.soft}
    assert labels == {(-1,): 1, (-3,): 2, (-4,): 3, (-6,): 3}
    again = parse_pwcnf(write_pwcnf(pinst))
    assert semantically_equal(pinst, again)
    assert write_pwcnf(again) == write_pwcnf(pinst)
    report(3, "pwcnf conformance", True, "header, labels, and write-parse fixpoint verified")


# --------------------------------------------------------------------- 4

TRIANGLE_TAIL = MscProblem(4, frozenset({(1, 2), (1, 3), (2, 3), (3, 4)}), 4)
FIVE_GUESTS = SeatingProblem(
    person_tags=(
        frozenset({"A", "B"}),
        frozenset({"C"}),
        frozenset({"B"}),
        frozenset({"C", "A"}),
        frozenset({"A"}),
    ),
    n_tables=2,
    min_per_table=2,
    max_per_table=3,
    tags=("A", "B", "C"),
)


def test_criterion_4_use_case_optima():
    assert brute_force_msc(TRIANGLE_TAIL) == 7
    assert brute_force_seating(FIVE_GUESTS) == 4
    msc_res = solve_instance(encode_msc(TRIANGLE_TAIL, SchemeChoice.MSC_VERTEX), "oll")
    seat_res = solve_instance(encode_seating(FIVE_GUESTS, SchemeChoice.SEAT_TABLES), "wbo")
    assert msc_res.cost == 7
    assert seat_res.cost == 4
    report(4, "use-case optima", True, "coloring example = 7, seating example = 4")


# --------------------------------------------------------------------- 5


def _random_wcnf_instance(rng):
    n = rng.randint(3, 12)
    hard = []
    for _ in range(rng.randint(0, n)):
        k = rng.randint(1, min(3, n))
        vs = rng.sample(range(1, n + 1), k)
        hard.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    soft = []
    for _ in range(rng.randint(1, min(20, 2 * n))):
        k = rng.randint(1, min(2, n))
        vs = rng.sample(range(1, n + 1), k)
        lits = tuple(v if rng.random() < 0.5 else -v for v in vs)
        soft.append(SoftClause(lits, rng.randint(1, 4), part=rng.randint(1, 3)))
    return PartitionedInstance(MaxSatInstance(n, hard, soft), n_part=3)


def _matrix_agrees(pinst, want, counters):
    base = pinst.base
    for strategy in STRATEGIES:
        applied = apply_strategy("pwcnf", pinst, strategy, seed=0)
        for alg in ALGS:
            res = solve_instance(applied, alg)
            counters["runs"] += 1
            if want is None:
                assert res.status == Status.HARD_UNSAT, (alg, strategy)
            else:
                assert res.status == Status.OPTIMUM, (alg, strategy, res.status)
                assert res.cost == want, (alg, strategy, res.cost, want)
                assert_valid_result(base, res)


def test_criterion_5_oracle_equivalence():
    t0 = time.monotonic()
    counters = {"runs": 0}
    rng = random.Random(20240501)
    n_instances = 0
    # 100 small coloring problems
    for i in range(100):
        n = rng.randint(3, 6)
        colors = rng.randint(2, 4)
        density = rng.uniform(0.2, 0.8)
        edges = frozenset(
            (u, v)
            for u in range(1, n + 1)
            for v in range(u + 1, n + 1)
            if rng.random() < density
        )
        prob = MscProblem(n, edges, colors)
        pinst = encode_msc(prob, SchemeChoice.MSC_VERTEX)
        _matrix_agrees(pinst, brute_force_msc(prob), counters)
        n_instances += 1
    # 100 small seating problems
    cfg = SeatingGenConfig(
        min_persons=3, max_persons=6, min_tables=2, max_tables=2,
        min_tag_universe=2, max_tag_universe=4,
        min_tags_per_person=0, max_tags_per_person=2,
    )
    for i in range(100):
        prob = gen_seating(cfg, seed=31000 + i)
        pinst = encode_seating(prob, SchemeChoice.SEAT_TABLES)
        _matrix_agrees(pinst, brute_force_seating(prob), counters)
        n_instances += 1
    # 100 random small weighted instances with synthetic user labels
    for i in range(100):
        pinst = _random_wcnf_instance(rng)
        want, _ = brute_force_maxsat(pinst.base)
        _matrix_agrees(pinst, want, counters)
        n_instances += 1
    elapsed = time.monotonic() - t0
    assert n_instances == 300
    assert counters["runs"] == 300 * 24
    assert elapsed < 480, f"criterion 5 sweep took {elapsed:.0f}s"
    report(
        5,
        "oracle equivalence",
        True,
        f"{counters['runs']} runs over 300 instances match exhaustive optima ({elapsed:.0f}s)",
    )


# --------------------------------------------------------------------- 6


def _assignments(n):
    return itertools.product([False, True], repeat=n)


def _fixed(lits, values):
    return [l if v else -l for l, v in zip(lits, values)]


def test_criterion_6_encoding_equivalence():
    t0 = time.monotonic()
    checks = 0
    for n in range(1, 9):
        lits = list(range(1, n + 1))
        for k in range(0, n + 2):
            clauses = encode_at_most_k(lits, k, VarAllocator(n))
            for values in _assignments(n):
                assert projection_satisfiable(clauses, _fixed(lits, values)) == (
                    sum(values) <= k
                )
                checks += 1
            clauses = encode_at_least_k(lits, k, VarAllocator(n))
            for values in _assignments(n):
                assert projection_satisfiable(clauses, _fixed(lits, values)) == (
                    sum(values) >= k
                )
                checks += 1
        # totalizer, every bound
        tot_clauses = []
        tot = Totalizer(lits, VarAllocator(n), tot_clauses.append)
        for k in range(0, n + 1):
            bound = list(tot.bound_assumptions(k))
            for values in _assignments(n):
                got = projection_satisfiable(tot_clauses, _fixed(lits, values) + bound)
                assert got == (sum(values) <= k), (n, k, values)
                checks += 1
        # weighted totalizer, every bound, two weight patterns
        for weights in ([1] * n, [(i % 3) + 1 for i in range(n)]):
            g_clauses = []
            gt = GenTotalizer(VarAllocator(n), g_clauses.append)
            gt.add_inputs(list(zip(lits, weights)))
            for bound in range(0, sum(weights) + 2):
                assumed = list(gt.bound_assumptions(bound))
                for values in _assignments(n):
                    w = sum(wt for wt, v in zip(weights, values) if v)
                    got = projection_satisfiable(g_clauses, _fixed(lits, values) + assumed)
                    assert got == (w <= bound), (n, weights, bound, values)
                    checks += 1
    elapsed = time.monotonic() - t0
    report(
        6,
        "encoding equivalence",
        True,
        f"{checks} projection checks, sizes 1..8, all bounds ({elapsed:.0f}s)",
    )


# --------------------------------------------------------------------- 7


def test_criterion_7_sat_engine_soundness():
    t0 = time.monotonic()
    rng = random.Random(424242)
    n_unsat_cores = 0
    for i in range(1000):
        n = rng.randint(5, 20)
        m = int(4.3 * n) + rng.randint(-n, n)
        clauses = []
        for _ in range(m):
            vs = rng.sample(range(1, n + 1), 3)
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
        s = Solver()
        s.reserve(n)
        for cl in clauses:
            s.add_clause(cl)
        out = s.solve()
        want = dpll_satisfiable(clauses)
        assert out.sat == want, f"instance {i}"
        if out.sat:
            for cl in clauses:
                assert any(out.model[abs(l)] == (l > 0) for l in cl)
        else:
            assert not dpll_satisfiable(list(clauses) + [(l,) for l in out.core])
        # assumption run to exercise nonempty cores
        if i % 5 == 0:
            assumps = sorted(
                {v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 4)},
                key=abs,
            )
            out2 = s.solve(assumptions=assumps)
            if not out2.sat:
                n_unsat_cores += 1
                assert out2.core <= set(assumps)
                assert not dpll_satisfiable(clauses, assumptions=sorted(out2.core, key=abs))
    elapsed = time.monotonic() - t0
    report(
        7,
        "sat-engine soundness",
        True,
        f"1000 instances agree with DPLL; {n_unsat_cores} assumption cores re-verified ({elapsed:.0f}s)",
    )


# --------------------------------------------------------------------- 8


def test_criterion_8_desk_scale_trend_check():
    cfg = SeatingGenConfig(
        min_persons=10, max_persons=14, min_tables=3, max_tables=3,
        min_tag_universe=4, max_tag_universe=5,
        min_tags_per_person=1, max_tags_per_person=2,
    )
    t0 = time.monotonic()
    solved_none = solved_table = 0
    time_none = time_table = 0.0
    for i in range(100):
        prob = gen_seating(cfg, seed=8000 + i)
        user = encode_seating(prob, SchemeChoice.SEAT_TABLES)
        res_n = solve_instance(PartitionedInstance.single_block(user.base), "wbo", budget=60)
        res_t = solve_instance(user, "wbo", budget=60)
        solved_none += res_n.status == Status.OPTIMUM
        solved_table += res_t.status == Status.OPTIMUM
        time_none += res_n.stats.time_s
        time_table += res_t.stats.time_s
        assert res_n.status in (Status.OPTIMUM, Status.TIMEOUT)
        assert res_t.status in (Status.OPTIMUM, Status.TIMEOUT)
        if res_n.status == Status.OPTIMUM and res_t.status == Status.OPTIMUM:
            assert res_n.cost == res_t.cost
    elapsed = time.monotonic() - t0
    trend_holds = solved_table >= solved_none
    # reported, non-blocking: the deliverable is the measured comparison
    report(
        8,
        "desk-scale trend (non-blocking)",
        trend_holds,
        f"wbo table-partitions solved {solved_table}/100 ({time_table:.0f}s), "
        f"no partitions {solved_none}/100 ({time_none:.0f}s), 60 s timeout; "
        f"trend {'holds' if trend_holds else 'fails'} ({elapsed:.0f}s)",
    )
