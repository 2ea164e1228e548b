import random

import pytest

from oracles import brute_force_msc, brute_force_seating, semantically_equal
from partmax.encoders import (
    MscGenConfig,
    MscProblem,
    SchemeChoice,
    SeatingGenConfig,
    SeatingProblem,
    decode_msc,
    decode_seating,
    encode_msc,
    encode_seating,
    gen_msc,
    gen_seating,
    generate_corpus,
)
from partmax.formats import parse_pwcnf, write_pwcnf
from partmax.maxsat import solve_instance

# Reference problems: a triangle with a pendant vertex and four colors, and
# five guests with three tags over two tables seating two to three each.
TRIANGLE_TAIL = MscProblem(
    n_vertices=4,
    edges=frozenset({(1, 2), (1, 3), (2, 3), (3, 4)}),
    n_colors=4,
)
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


def test_reference_coloring_optimum_is_seven():
    # 256 colorings, triangle forces colors {1,2,3}, the tail reuses color 1
    assert brute_force_msc(TRIANGLE_TAIL) == 7


def test_reference_seating_optimum_is_four():
    assert brute_force_seating(FIVE_GUESTS) == 4


def test_msc_vertex_scheme_shape():
    pinst = encode_msc(TRIANGLE_TAIL, SchemeChoice.MSC_VERTEX)
    assert len(pinst.base.soft) == 16
    assert pinst.n_part == 4
    blocks = pinst.blocks()
    assert sorted(len(ids) for ids in blocks.values()) == [4, 4, 4, 4]
    # vertex blocks group all colors of one vertex: weights 1..4 in each
    for ids in blocks.values():
        assert sorted(pinst.base.soft[i].weight for i in ids) == [1, 2, 3, 4]


def test_msc_color_scheme_shape():
    pinst = encode_msc(TRIANGLE_TAIL, SchemeChoice.MSC_COLOR)
    assert pinst.n_part == 4
    for label, ids in pinst.blocks().items():
        assert {pinst.base.soft[i].weight for i in ids} == {label}


def test_msc_soft_weight_is_color_index():
    pinst = encode_msc(TRIANGLE_TAIL, SchemeChoice.NONE)
    assert pinst.n_part == 1
    weights = sorted(s.weight for s in pinst.base.soft)
    assert weights == sorted([1, 2, 3, 4] * 4)


def test_msc_solve_matches_brute_force():
    for scheme in (SchemeChoice.NONE, SchemeChoice.MSC_VERTEX, SchemeChoice.MSC_COLOR):
        pinst = encode_msc(TRIANGLE_TAIL, scheme)
        res = solve_instance(pinst, "oll")
        assert res.cost == 7
        coloring = decode_msc(TRIANGLE_TAIL, res.model)
        assert all(coloring[u - 1] != coloring[v - 1] for u, v in TRIANGLE_TAIL.edges)
        assert sum(coloring) == 7


def test_seating_tag_scheme_shape():
    pinst = encode_seating(FIVE_GUESTS, SchemeChoice.SEAT_TAGS)
    assert len(pinst.base.soft) == 6
    assert pinst.n_part == 3
    assert sorted(len(ids) for ids in pinst.blocks().values()) == [2, 2, 2]


def test_seating_table_scheme_shape():
    pinst = encode_seating(FIVE_GUESTS, SchemeChoice.SEAT_TABLES)
    assert pinst.n_part == 2
    assert sorted(len(ids) for ids in pinst.blocks().values()) == [3, 3]


def test_seating_solve_matches_brute_force():
    for scheme in (SchemeChoice.NONE, SchemeChoice.SEAT_TAGS, SchemeChoice.SEAT_TABLES):
        pinst = encode_seating(FIVE_GUESTS, scheme)
        res = solve_instance(pinst, "oll")
        assert res.cost == 4
        seating = decode_seating(FIVE_GUESTS, res.model)
        counts = [seating.count(t) for t in (1, 2)]
        assert all(2 <= c <= 3 for c in counts)


def test_scheme_problem_mismatch_rejected():
    with pytest.raises(ValueError):
        encode_msc(TRIANGLE_TAIL, SchemeChoice.SEAT_TAGS)
    with pytest.raises(ValueError):
        encode_seating(FIVE_GUESTS, SchemeChoice.MSC_VERTEX)


def test_msc_requires_normalized_edges():
    with pytest.raises(ValueError):
        MscProblem(3, frozenset({(2, 2)}), 2)
    with pytest.raises(ValueError):
        MscProblem(3, frozenset({(3, 1)}), 2)


def test_infeasible_seating_warns():
    with pytest.warns(UserWarning, match="unsatisfiable"):
        SeatingProblem(
            person_tags=(frozenset({"A"}),),
            n_tables=2,
            min_per_table=1,
            max_per_table=1,
            tags=("A",),
        )


def test_encoding_correctness_random_sweep():
    rng = random.Random(23)
    msc_cfg = MscGenConfig(
        min_vertices=2, max_vertices=5, min_density=0.1, max_density=0.9,
        min_colors=2, max_colors=4,
    )
    for i in range(8):
        prob = gen_msc(msc_cfg, seed=1000 + i)
        want = brute_force_msc(prob)
        pinst = encode_msc(prob, SchemeChoice.MSC_VERTEX)
        res = solve_instance(pinst, "msu3")
        if want is None:
            assert res.status.value == "hard-unsat"
        else:
            assert res.cost == want
    seat_cfg = SeatingGenConfig(
        min_persons=3, max_persons=6, min_tables=2, max_tables=2,
        min_tag_universe=2, max_tag_universe=4,
        min_tags_per_person=0, max_tags_per_person=2,
    )
    for i in range(8):
        prob = gen_seating(seat_cfg, seed=2000 + i)
        want = brute_force_seating(prob)
        pinst = encode_seating(prob, SchemeChoice.SEAT_TABLES)
        res = solve_instance(pinst, "wbo")
        if want is None:
            assert res.status.value == "hard-unsat"
        else:
            assert res.cost == want


def test_single_tag_universe_costs_one_per_table():
    prob = SeatingProblem(
        person_tags=tuple(frozenset({"A"}) for _ in range(4)),
        n_tables=2,
        min_per_table=1,
        max_per_table=3,
        tags=("A",),
    )
    assert brute_force_seating(prob) == 2
    res = solve_instance(encode_seating(prob), "oll")
    assert res.cost == 2


def test_no_tags_costs_zero():
    prob = SeatingProblem(
        person_tags=tuple(frozenset() for _ in range(4)),
        n_tables=2,
        min_per_table=2,
        max_per_table=2,
        tags=("A", "B"),
    )
    res = solve_instance(encode_seating(prob), "oll")
    assert res.cost == 0


def test_generators_are_deterministic():
    cfg = MscGenConfig()
    assert gen_msc(cfg, 42) == gen_msc(cfg, 42)
    scfg = SeatingGenConfig()
    assert gen_seating(scfg, 42) == gen_seating(scfg, 42)


def test_generator_density_extremes():
    flat = MscGenConfig(min_vertices=6, max_vertices=6, min_density=0.0, max_density=0.0)
    assert gen_msc(flat, 1).edges == frozenset()
    full = MscGenConfig(min_vertices=6, max_vertices=6, min_density=1.0, max_density=1.0)
    assert len(gen_msc(full, 1).edges) == 15


@pytest.mark.parametrize(
    "config, fields, message",
    [
        (MscGenConfig, dict(min_vertices=6, max_vertices=3), "min_vertices (6) exceeds max_vertices (3)"),
        (MscGenConfig, dict(min_colors=0), "min_colors must be at least 1, got 0"),
        (MscGenConfig, dict(min_density=1.5), "min_density must be in [0, 1], got 1.5"),
        (MscGenConfig, dict(max_density=-0.1), "max_density must be in [0, 1], got -0.1"),
        (MscGenConfig, dict(min_density=float("nan")), "min_density must be in [0, 1], got nan"),
        (SeatingGenConfig, dict(min_persons=0, max_persons=0), "min_persons must be at least 1, got 0"),
        (SeatingGenConfig, dict(min_tables=4, max_tables=3), "min_tables (4) exceeds max_tables (3)"),
        (SeatingGenConfig, dict(max_tag_universe=0), "max_tag_universe must be at least 1, got 0"),
        (SeatingGenConfig, dict(min_tags_per_person=-1), "min_tags_per_person must be at least 0, got -1"),
        (SeatingGenConfig, dict(min_tag_universe=2, min_tags_per_person=3, max_tags_per_person=3),
         "min_tags_per_person (3) exceeds min_tag_universe (2)"),
    ],
)
def test_generator_config_rejects_bad_ranges(config, fields, message):
    with pytest.raises(ValueError) as exc:
        config(**fields)
    assert str(exc.value) == message


def test_encoded_pwcnf_roundtrips(tmp_path):
    pinst = encode_msc(TRIANGLE_TAIL, SchemeChoice.MSC_COLOR)
    again = parse_pwcnf(write_pwcnf(pinst))
    assert semantically_equal(pinst, again)


def test_generate_corpus_writes_files_and_manifest(tmp_path):
    cfg = MscGenConfig(min_vertices=3, max_vertices=5, min_colors=2, max_colors=3)
    out = tmp_path / "corpus"
    paths = generate_corpus("msc", cfg, 4, SchemeChoice.MSC_VERTEX, seed=7, out_dir=str(out))
    assert len(paths) == 4
    manifest = (out / "manifest.txt").read_text()
    assert "kind=msc" in manifest and "instance=msc_0003.pwcnf" in manifest
    first = (out / "msc_0000.pwcnf").read_text()
    parse_pwcnf(first)
    # regeneration is byte-identical
    out2 = tmp_path / "corpus2"
    generate_corpus("msc", cfg, 4, SchemeChoice.MSC_VERTEX, seed=7, out_dir=str(out2))
    assert (out2 / "msc_0000.pwcnf").read_text() == first
    assert (out2 / "manifest.txt").read_text() == manifest
