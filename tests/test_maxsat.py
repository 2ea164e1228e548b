import random

import pytest

from conftest import TWO_TRIANGLES_PWCNF, assert_valid_result, two_triangles_instance
from oracles import brute_force_maxsat
from partmax import maxsat
from partmax.cnf import MaxSatInstance, PartitionedInstance, SoftClause
from partmax.encoders import SchemeChoice, SeatingGenConfig, encode_seating, gen_seating
from partmax.formats import parse_pwcnf
from partmax.graphs import partition_by_graph, random_partition
from partmax.maxsat import AlgorithmKind, Status, select_partitions, solve_instance
from test_perfbench_tracer import seating_instance

ALGS = tuple(a.value for a in AlgorithmKind)
CORE_ALGS = ("msu3", "oll", "wbo")


def solve_whole(inst, alg, budget=None):
    """Solve an instance without partitions: all softs in one block."""
    return solve_instance(PartitionedInstance.single_block(inst), alg, budget)


@pytest.mark.parametrize("alg", ALGS)
def test_two_triangles_optimum_is_two(alg):
    inst = two_triangles_instance()
    res = solve_whole(inst, alg)
    assert res.status == Status.OPTIMUM
    assert res.cost == 2
    assert_valid_result(inst, res)


@pytest.mark.parametrize("alg", CORE_ALGS)
def test_two_triangles_user_partitions(alg):
    pinst = parse_pwcnf(TWO_TRIANGLES_PWCNF)
    res = solve_instance(pinst, alg)
    assert res.status == Status.OPTIMUM
    assert res.cost == 2
    assert_valid_result(pinst.base, res)
    # the three user blocks have sizes 1, 1, 2: the singletons solve to
    # costs summing at most the optimum
    initial = [c for labels, c in res.stats.partition_costs if len(labels) == 1]
    assert len(initial) == 3
    assert sum(initial) <= 2


@pytest.mark.parametrize("alg", CORE_ALGS)
def test_sub_block_optima_match_halves(alg):
    # each half of the soft set alone has optimum 1
    inst = two_triangles_instance()
    for keep in ([0, 1], [2, 3]):
        sub = MaxSatInstance(
            6, hard=list(inst.hard), soft=[inst.soft[i] for i in keep], top=8
        )
        res = solve_whole(sub, alg)
        assert res.cost == 1


def test_merge_starts_from_sum_of_parts():
    pinst = PartitionedInstance.single_block(two_triangles_instance())
    base = pinst.base
    soft = [
        SoftClause(base.soft[0].lits, 1, part=1),
        SoftClause(base.soft[1].lits, 1, part=1),
        SoftClause(base.soft[2].lits, 1, part=2),
        SoftClause(base.soft[3].lits, 1, part=2),
    ]
    two = PartitionedInstance(MaxSatInstance(6, list(base.hard), soft, 8), n_part=2)
    res = solve_instance(two, "msu3")
    assert res.cost == 2
    assert res.stats.partition_costs == [((1,), 1), ((2,), 1), ((1, 2), 2)]
    assert res.lower_bound == 2


def test_weighted_msu3_prefers_cheaper_violation():
    inst = MaxSatInstance(1, hard=[], soft=[SoftClause((-1,), 3), SoftClause((1,), 5)])
    res = solve_whole(inst, "msu3")
    assert res.cost == 3
    assert_valid_result(inst, res)


def test_oll_single_unsatisfiable_soft_costs_its_weight():
    inst = MaxSatInstance(1, hard=[(-1,)], soft=[SoftClause((1,), 7)])
    res = solve_whole(inst, "oll")
    assert res.cost == 7


def test_wbo_complementary_units():
    inst = MaxSatInstance(1, hard=[], soft=[SoftClause((1,), 1), SoftClause((-1,), 1)])
    res = solve_whole(inst, "wbo")
    assert res.cost == 1


@pytest.mark.parametrize("alg", ALGS)
def test_no_softs_costs_zero(alg):
    inst = MaxSatInstance(2, hard=[(1, 2)], soft=[], top=1)
    res = solve_whole(inst, alg)
    assert res.status == Status.OPTIMUM
    assert res.cost == 0
    assert inst.hard_satisfied(res.model)


def test_hard_unsat_is_reported():
    inst = MaxSatInstance(1, hard=[(1,), (-1,)], soft=[SoftClause((1,), 1)])
    for alg in ALGS:
        res = solve_whole(inst, alg)
        assert res.status == Status.HARD_UNSAT
        assert res.cost is None


def test_budget_exhaustion_reports_timeout():
    inst = two_triangles_instance()
    res = solve_whole(inst, "lsu", budget=0.0)
    assert res.status == Status.TIMEOUT


def test_lsu_upper_bound_strictly_decreases():
    rng = random.Random(2)
    for _ in range(10):
        inst = _random_instance(rng)
        res = solve_whole(inst, "lsu")
        if res.status != Status.OPTIMUM:
            continue
        trace = res.stats.bound_trace
        assert all(b < a for a, b in zip(trace, trace[1:]))


def test_core_guided_lower_bound_never_decreases():
    rng = random.Random(3)
    pinsts = [parse_pwcnf(TWO_TRIANGLES_PWCNF)]
    for seed in range(10):
        inst = _random_instance(rng)
        pinsts.append(PartitionedInstance.single_block(inst))
        pinsts += [random_partition(inst, k, seed=seed) for k in (2, 3)]
    # user partitions whose later blocks start below the earlier blocks' bounds
    cfg = SeatingGenConfig(
        min_persons=12, max_persons=12, min_tables=3, max_tables=3,
        min_tag_universe=4, max_tag_universe=5,
        min_tags_per_person=1, max_tags_per_person=2,
    )
    pinsts.append(encode_seating(gen_seating(cfg, 7002), SchemeChoice.SEAT_TABLES))
    for pinst in pinsts:
        for alg in CORE_ALGS:
            res = solve_instance(pinst, alg)
            trace = res.stats.bound_trace
            assert all(b >= a for a, b in zip(trace, trace[1:]))
            assert len(trace) == res.stats.cores
            if res.status == Status.OPTIMUM:
                assert (trace or [0])[-1] == res.cost == res.lower_bound


@pytest.mark.parametrize("alg", ALGS)
def test_soft_literal_out_of_range_is_rejected(alg):
    inst = MaxSatInstance(2, hard=[(1, 2)], soft=[SoftClause((1,), 1), SoftClause((3,), 1)])
    with pytest.raises(ValueError):
        solve_whole(inst, alg)


@pytest.mark.parametrize("alg", ALGS)
def test_partition_label_out_of_range_is_rejected(alg):
    # lsu ignores the labels but still rejects them, like the other algorithms
    inst = two_triangles_instance()
    soft = [SoftClause(s.lits, s.weight, part=i + 1) for i, s in enumerate(inst.soft)]
    pinst = PartitionedInstance(MaxSatInstance(6, list(inst.hard), soft, 8), n_part=3)
    with pytest.raises(ValueError, match="partition label 4 outside 1..3"):
        solve_instance(pinst, alg)


def test_three_blocks_merge_singletons_first():
    pinst = parse_pwcnf(TWO_TRIANGLES_PWCNF)  # user blocks of sizes 1, 1, 2
    res = solve_instance(pinst, "oll")
    merge_events = [labels for labels, _ in res.stats.partition_costs if len(labels) > 1]
    assert merge_events[0] == (1, 2)
    assert merge_events[-1] == (1, 2, 3)


@pytest.mark.parametrize("alg", CORE_ALGS)
def test_block_the_best_model_solves_needs_no_sat_call(alg):
    # the hard check's model already satisfies every soft clause, so no
    # block and no merge needs a SAT call of its own (5 more before the skip)
    soft = [SoftClause((v,), 1, part=v) for v in (1, 2, 3)]
    pinst = PartitionedInstance(MaxSatInstance(3, [(1,), (2,), (3,)], soft), n_part=3)
    res = solve_instance(pinst, alg)
    assert res.status == Status.OPTIMUM and res.cost == 0
    assert res.stats.sat_calls == 1
    assert res.stats.partition_costs == [
        ((1,), 0), ((2,), 0), ((3,), 0), ((1, 2), 0), ((1, 2, 3), 0)
    ]
    assert_valid_result(pinst.base, res)


def test_select_partitions_policy():
    assert select_partitions([(1, 3), (2, 1), (3, 2)]) == (2, 3)
    assert select_partitions([(1, 2), (2, 2)]) == (1, 2)
    assert select_partitions([(1, 1), (2, 1), (3, 2)]) == (1, 2)
    with pytest.raises(ValueError):
        select_partitions([(1, 4)])


def test_solve_instance_runs_lsu_on_base():
    pinst = parse_pwcnf(TWO_TRIANGLES_PWCNF)
    res = solve_instance(pinst, AlgorithmKind.LSU)
    assert res.cost == 2
    assert res.stats.n_partitions == 3
    assert res.stats.partition_costs == []


def _random_instance(rng, max_vars=8):
    n = rng.randint(2, max_vars)
    hard = []
    for _ in range(rng.randint(0, n)):
        k = rng.randint(1, min(3, n))
        vs = rng.sample(range(1, n + 1), k)
        hard.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    soft = []
    for _ in range(rng.randint(1, 2 * n)):
        k = rng.randint(1, min(2, n))
        vs = rng.sample(range(1, n + 1), k)
        lits = tuple(v if rng.random() < 0.5 else -v for v in vs)
        soft.append(SoftClause(lits, rng.randint(1, 4)))
    return MaxSatInstance(n, hard, soft)


def test_optimality_agreement_small_random_instances():
    rng = random.Random(17)
    checked = 0
    for _ in range(40):
        inst = _random_instance(rng)
        want, _ = brute_force_maxsat(inst)
        results = {}
        for alg in ALGS:
            res = solve_whole(inst, alg)
            if want is None:
                assert res.status == Status.HARD_UNSAT
            else:
                assert res.status == Status.OPTIMUM
                assert res.cost == want, f"{alg} on {inst}"
                assert_valid_result(inst, res)
                results[alg] = res.cost
        if want is None:
            continue
        checked += 1
        for strategy_seed in (0, 1):
            for k in (2, 3):
                pinst = random_partition(inst, k, seed=strategy_seed)
                for alg in CORE_ALGS:
                    res = solve_instance(pinst, alg)
                    assert res.cost == want
                    assert_valid_result(inst, res)
        for kind in ("vig", "cvig", "res"):
            pinst = partition_by_graph(inst, kind, seed=0)
            for alg in CORE_ALGS:
                res = solve_instance(pinst, alg)
                assert res.cost == want
                assert_valid_result(inst, res)
    assert checked >= 20


def test_partitioned_timeout_reports_lower_bound():
    pinst = parse_pwcnf(TWO_TRIANGLES_PWCNF)
    res = solve_instance(pinst, "wbo", budget=0.0)
    assert res.status == Status.TIMEOUT
    assert res.lower_bound <= 2


def test_empty_soft_clause_always_pays():
    inst = MaxSatInstance(
        1, hard=[(1,)], soft=[SoftClause((), 2), SoftClause((1,), 1)], top=4
    )
    for alg in ALGS:
        res = solve_whole(inst, alg)
        assert res.cost == 2, alg


# Recorded before the pool engines shared one protocol: status, cost, lower
# bound, SAT calls, cores, bound trace, partition costs, and the solver's
# conflicts, decisions and propagations. A refactor that reorders the clauses
# or assumptions of any algorithm changes some of them.
MERGES = [((1,), 2), ((2,), 2), ((3,), 2), ((1, 2), 4), ((1, 2, 3), 7)]
PINNED_SEARCH = {
    "lsu": ("optimum", 7, 7, 4, 0, [9, 8, 7], [], (68, 305, 4188)),
    "msu3": ("optimum", 7, 7, 12, 7, [1, 2, 3, 4, 5, 6, 7], MERGES, (56, 554, 4097)),
    "oll": ("optimum", 7, 7, 11, 7, [1, 2, 3, 4, 5, 6, 7], MERGES, (32, 391, 2490)),
    "wbo": ("optimum", 7, 7, 12, 7, [1, 2, 3, 4, 5, 6, 7], MERGES, (37, 559, 3126)),
}


@pytest.mark.parametrize("alg", ALGS)
def test_search_on_a_partitioned_seating_instance_is_pinned(alg, monkeypatch):
    runs = []
    sat = maxsat._Run.sat

    def recorded_sat(run, assumps):
        runs.append(run)
        return sat(run, assumps)

    monkeypatch.setattr(maxsat._Run, "sat", recorded_sat)
    pinst = seating_instance()
    assert len(pinst.blocks()) == 3
    res = solve_instance(pinst, alg)
    st, counters = res.stats, runs[-1].solver.stats
    assert (
        res.status.value, res.cost, res.lower_bound, st.sat_calls, st.cores,
        st.bound_trace, st.partition_costs,
        (counters["conflicts"], counters["decisions"], counters["propagations"]),
    ) == PINNED_SEARCH[alg]
