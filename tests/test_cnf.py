import pytest

from oracles import resolve
from partmax.cnf import (
    TAUTOLOGY,
    MaxSatInstance,
    PartitionedInstance,
    SoftClause,
    VarAllocator,
    make_clause,
)


def test_make_clause_dedupes_preserving_order():
    assert make_clause([3, -1, 3, 2, -1]) == (3, -1, 2)


def test_make_clause_detects_tautology():
    assert make_clause([1, 2, -1]) is TAUTOLOGY


def test_make_clause_rejects_zero():
    with pytest.raises(ValueError):
        make_clause([1, 0])


def test_resolve_unit_with_binary():
    assert resolve((-1,), (1, 2), 1) == (2,)


def test_resolve_trivial_resolvent():
    assert resolve((1, 2), (-1, -2), 1) is TAUTOLOGY


def test_resolve_two_binaries():
    r = resolve((-2, 3), (-1, -3), 3)
    assert set(r) == {-2, -1}
    assert len(r) == 2


def test_resolve_requires_complementary_pair():
    with pytest.raises(ValueError):
        resolve((1, 2), (2, 3), 2)
    with pytest.raises(ValueError):
        resolve((1, 2), (-3,), 1)


def test_soft_clause_weight_positive():
    with pytest.raises(ValueError):
        SoftClause((1,), 0)
    SoftClause((1,), 1)


def test_allocator_stays_above_reserved():
    alloc = VarAllocator(6)
    seen = [alloc.fresh() for _ in range(5)]
    assert seen == [7, 8, 9, 10, 11]
    assert min(seen) > 6


def test_instance_validation_catches_out_of_range_literals():
    inst = MaxSatInstance(2, hard=[(1, 3)], soft=[], top=2)
    with pytest.raises(ValueError):
        inst.validate()


def test_instance_validation_catches_weight_at_top():
    inst = MaxSatInstance(2, hard=[], soft=[SoftClause((1,), 5)], top=5)
    with pytest.raises(ValueError):
        inst.validate()


def test_default_top_exceeds_weight_sum():
    inst = MaxSatInstance(1, hard=[], soft=[SoftClause((1,), 3), SoftClause((-1,), 4)])
    assert inst.top == 8
    inst.validate()


def test_cost_of_counts_falsified_weight():
    inst = MaxSatInstance(
        2, hard=[], soft=[SoftClause((1,), 3), SoftClause((2,), 5), SoftClause((-1, 2), 7)]
    )
    model = [False, True, False]  # v1=True, v2=False
    assert inst.cost_of(model) == 5 + 7


def test_partitioned_instance_label_range():
    base = MaxSatInstance(1, hard=[], soft=[SoftClause((1,), 1, part=3)])
    with pytest.raises(ValueError):
        PartitionedInstance(base, n_part=2).validate()
    PartitionedInstance(base, n_part=3).validate()


def test_blocks_are_disjoint_and_cover():
    base = MaxSatInstance(
        2,
        hard=[],
        soft=[
            SoftClause((1,), 1, part=2),
            SoftClause((2,), 1, part=1),
            SoftClause((-1,), 1, part=2),
        ],
    )
    blocks = PartitionedInstance(base, n_part=2).blocks()
    assert blocks == {1: [1], 2: [0, 2]}
