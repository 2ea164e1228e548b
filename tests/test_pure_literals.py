"""Pure-literal elimination before the first SAT call: what it drops, that
it keeps every optimum, and that no later clause touches what it removed."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_valid_result
from oracles import brute_force_maxsat
from partmax import bench, graphs, maxsat
from partmax.cnf import MaxSatInstance, PartitionedInstance, SoftClause, eliminate_pure_literals
from partmax.encoders import (
    MscGenConfig,
    SchemeChoice,
    SeatingGenConfig,
    encode_msc,
    encode_seating,
    gen_msc,
    gen_seating,
)
from partmax.graphs import partition_by_graph
from partmax.maxsat import AlgorithmKind, Status, solve_instance
from partmax.sat import SolverTimeout

ALGS = tuple(a.value for a in AlgorithmKind)
CORE_ALGS = ("msu3", "oll", "wbo")


def test_dead_register_chain_is_removed_in_cascade():
    # 5 is pure; dropping (-4, 5) makes 4 pure, and dropping (-3, 4) makes 3
    # pure. 6 occurs in both polarities, and 1 and 2 are in soft clauses.
    hard = [(-1, 3), (6, 2), (-3, 4), (1, 2), (-4, 5), (-6, -2), (-1, -2)]
    kept, pure = eliminate_pure_literals(hard, 6, frozen={1, 2})
    assert kept == [1, 3, 5, 6]
    assert [hard[i] for i in kept] == [(6, 2), (1, 2), (-6, -2), (-1, -2)]
    assert sorted(pure) == [3, 4, 5]

    # the optimum sets 1, so (-1, 3) holds only through the extension
    soft = [SoftClause((1,), 2), SoftClause((-2,), 1), SoftClause((-1,), 1)]
    inst = MaxSatInstance(6, hard, soft)
    run = maxsat._Run(inst)
    assert run.pure == pure
    for v in (3, 4, 5):  # in no solver clause, so never in branching
        assert not run.solver._live[v]
        assert v not in {u for _, u in run.solver._heap}
    assert len(run.solver.clauses) == len(kept) + 3  # the unit softs enter as binaries
    for alg in ALGS:
        res = solve_instance(PartitionedInstance.single_block(inst), alg)
        assert res.cost == 1 and res.model[1]
        assert [res.model[v] for v in (3, 4, 5)] == [True, True, True]
        assert_valid_result(inst, res)


def test_frozen_and_two_polarity_variables_stay():
    # nothing is pure outside the frozen set: 3 occurs both ways, 4 never
    hard = [(1, 3), (-3, 2), (-1, -2, 3)]
    assert eliminate_pure_literals(hard, 4, frozen={1, 2}) == ([0, 1, 2], [])
    # a variable whose clauses both go with other pure variables takes -v
    kept, pure = eliminate_pure_literals([(3, 4), (-3, 5)], 5, frozen=())
    assert kept == [] and {abs(l) for l in pure} == {3, 4, 5}


@pytest.mark.parametrize("alg", ALGS)
def test_hard_unsat_survives_elimination(alg):
    # 4 and 5 are pure and go; the contradiction on unfrozen 3 stays
    inst = MaxSatInstance(5, [(3,), (3, 4), (4, 5), (-3,), (1, 5)], [SoftClause((2,), 1)])
    res = solve_instance(PartitionedInstance.single_block(inst), alg)
    assert res.status == Status.HARD_UNSAT


@st.composite
def instances_with_pure_variables(draw):
    """A small weighted instance over 1..n, plus hard-only variables
    n+1..n+k that each occur with one polarity only."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 4))
    lit = st.integers(1, n).flatmap(lambda v: st.sampled_from((v, -v)))
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=k, max_size=k))
    extra = st.integers(n + 1, n + k).map(lambda v: signs[v - n - 1] * v)
    hard = draw(st.lists(st.lists(lit, min_size=1, max_size=3).map(tuple), max_size=n))
    hard += draw(st.lists(
        st.tuples(st.lists(extra, min_size=1, max_size=2), st.lists(lit, max_size=2))
        .map(lambda pair: tuple(pair[0] + pair[1])),
        min_size=1, max_size=2 * k,
    ))
    soft = draw(st.lists(
        st.builds(SoftClause, st.lists(lit, min_size=1, max_size=2).map(tuple),
                  st.integers(1, 4), st.integers(1, 2)),
        min_size=1, max_size=2 * n,
    ))
    return MaxSatInstance(n + k, hard, soft)


@settings(max_examples=60)
@given(instances_with_pure_variables())
def test_elimination_keeps_every_optimum(inst):
    want, _ = brute_force_maxsat(inst)
    user = PartitionedInstance(inst, n_part=2)
    for pinst in (PartitionedInstance.single_block(inst), user):
        for alg in ALGS:
            res = solve_instance(pinst, alg)
            if want is None:
                assert res.status == Status.HARD_UNSAT
                continue
            assert res.status == Status.OPTIMUM and res.cost == want, alg
            assert_valid_result(inst, res)


@settings(max_examples=40)
@given(instances_with_pure_variables())
def test_graph_partitions_of_the_kept_formula_keep_every_optimum(inst):
    want, _ = brute_force_maxsat(inst)
    for kind in ("vig", "cvig", "res"):
        pinst = partition_by_graph(inst, kind, seed=0)
        pinst.validate()
        assert len(pinst.hard_labels) == len(inst.hard)
        assert pinst.base.hard == inst.hard
        for alg in CORE_ALGS:
            res = solve_instance(pinst, alg)
            if want is None:
                assert res.status == Status.HARD_UNSAT
                continue
            assert res.status == Status.OPTIMUM and res.cost == want, (kind, alg)
            assert_valid_result(inst, res)


def _seating(seed):
    cfg = SeatingGenConfig(
        min_persons=10, max_persons=12, min_tables=3, max_tables=3,
        min_tag_universe=4, max_tag_universe=5, min_tags_per_person=1, max_tags_per_person=2,
    )
    return encode_seating(gen_seating(cfg, seed), SchemeChoice.SEAT_TABLES)


def _msc(seed):
    cfg = MscGenConfig(min_vertices=7, max_vertices=8, min_density=0.3, max_density=0.3,
                       min_colors=4, max_colors=4)
    return encode_msc(gen_msc(cfg, seed), SchemeChoice.MSC_VERTEX)


@pytest.mark.parametrize("alg", ALGS)
def test_no_later_clause_or_assumption_mentions_an_eliminated_variable(alg, monkeypatch):
    emit, sat = maxsat._Run.emit, maxsat._Run.sat
    seen = {"clauses": 0, "eliminated": 0}

    def gone(run):
        return {abs(lit) for lit in run.pure}

    def checked_emit(run, cl):
        assert not gone(run) & {abs(lit) for lit in cl}, cl
        seen["clauses"] += 1
        emit(run, cl)

    def checked_sat(run, assumps):
        assert not gone(run) & {abs(lit) for lit in assumps}
        seen["eliminated"] = max(seen["eliminated"], len(run.pure))
        return sat(run, assumps)

    monkeypatch.setattr(maxsat._Run, "emit", checked_emit)
    monkeypatch.setattr(maxsat._Run, "sat", checked_sat)
    for pinst in [_seating(s) for s in (1, 2)] + [_msc(s) for s in (1, 2)]:
        for p in (pinst, PartitionedInstance.single_block(pinst.base)):
            res = solve_instance(p, alg)
            assert res.status == Status.OPTIMUM
            assert_valid_result(pinst.base, res)
    assert seen["clauses"] > 0 and seen["eliminated"] > 0


@pytest.mark.parametrize("alg", ALGS)
def test_timeout_model_satisfies_the_dropped_clauses(alg, monkeypatch):
    sat = maxsat._Run.sat

    def one_call_then_timeout(run, assumps):
        if run.stats.sat_calls:
            raise SolverTimeout
        return sat(run, assumps)

    monkeypatch.setattr(maxsat._Run, "sat", one_call_then_timeout)
    inst = _seating(1).base
    res = solve_instance(PartitionedInstance.single_block(inst), alg)
    assert res.status == Status.TIMEOUT and res.model is not None
    assert inst.hard_satisfied(res.model)
    assert inst.cost_of(res.model) == res.cost


@pytest.mark.parametrize("strategy", ["none", "user", "vig", "cvig", "res", "random:2"])
def test_one_elimination_pass_per_job(strategy, monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return eliminate_pure_literals(*args)

    monkeypatch.setattr(graphs, "eliminate_pure_literals", counted)
    monkeypatch.setattr(maxsat, "eliminate_pure_literals", counted)
    pinst = _seating(1)
    want = solve_instance(PartitionedInstance.single_block(pinst.base), "oll").cost
    for alg in ALGS:
        calls.clear()
        job = bench.apply_strategy("pwcnf", pinst, strategy)
        res = solve_instance(job, alg)
        assert len(calls) == 1, (strategy, alg)
        assert res.status == Status.OPTIMUM and res.cost == want
        assert_valid_result(pinst.base, res)
