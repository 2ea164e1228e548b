import hashlib
import random
from fractions import Fraction
from operator import truediv

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import two_triangles_instance
from oracles import best_modularity_partition, exact_modularity
from partmax.cnf import MaxSatInstance, SoftClause
from partmax.encoders import (
    MscGenConfig,
    SeatingGenConfig,
    encode_msc,
    encode_seating,
    gen_msc,
    gen_seating,
)
from partmax.graphs import (
    CLAUSE_NODE,
    VAR_NODE,
    ResolutionGraphTooLarge,
    WeightedGraph,
    build_cvig,
    build_res,
    build_vig,
    derive_partitions,
    detect_communities,
    dump_edges,
    modularity,
    partition_by_graph,
    random_partition,
)

V = VAR_NODE
C = CLAUSE_NODE


def soft_blocks(pinst):
    """Partition blocks as a set of frozensets of soft-clause indices."""
    return {frozenset(ids) for ids in pinst.blocks().values()}


# ------------------------------------------------------------------- vig


def test_vig_of_two_triangles_matches_known_edge_set():
    g = build_vig(two_triangles_instance())
    edges = {(u[1], v[1]) for u, v, _ in g.edges()}
    assert edges == {(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (3, 6)}
    assert all(w == 1 for _, _, w in g.edges())


def test_vig_single_binary_clause():
    inst = MaxSatInstance(2, hard=[(1, 2)], soft=[], top=1)
    g = build_vig(inst)
    assert g.edges() == [((V, 1), (V, 2), Fraction(1))]


def test_vig_unit_soft_contributes_no_edge():
    inst = MaxSatInstance(1, hard=[], soft=[SoftClause((-1,), 1)], top=2)
    g = build_vig(inst)
    assert g.edges() == []
    assert (V, 1) in g.adj


def test_vig_total_weight_counts_wide_clauses():
    inst = MaxSatInstance(
        5, hard=[(1, 2, 3), (3, 4), (5,)], soft=[SoftClause((-1, 2), 1)], top=2
    )
    g = build_vig(inst)
    # each clause with >= 2 distinct variables contributes exactly 1
    assert Fraction(sum(w for _, _, w in g.edges()), g.scale) == 3
    assert g.total_weight() == 3


# ------------------------------------------------------------------ cvig


def test_cvig_of_two_triangles_shape():
    inst = two_triangles_instance()
    g = build_cvig(inst)
    var_nodes = [n for n in g.nodes() if n[0] == V]
    clause_nodes = [n for n in g.nodes() if n[0] == C]
    assert len(var_nodes) == 6
    assert len(clause_nodes) == 11
    # soft 0 is the unit clause on v1: clause node index 7 connects only to v1
    assert sorted(g.adj[(C, 7)]) == [(V, 1)]
    assert Fraction(g.adj[(C, 7)][(V, 1)], g.scale) == 1


def test_cvig_empty_formula_is_empty():
    g = build_cvig(MaxSatInstance(0, [], [], top=1))
    assert g.nodes() == []


def test_cvig_edge_weight_is_inverse_clause_size():
    inst = MaxSatInstance(2, hard=[(1, 2)], soft=[], top=1)
    g = build_cvig(inst)
    assert Fraction(g.adj[(C, 0)][(V, 1)], g.scale) == Fraction(1, 2)
    assert Fraction(g.adj[(C, 0)][(V, 2)], g.scale) == Fraction(1, 2)


# ------------------------------------------------------------------- res


def test_res_of_two_triangles_matches_known_edge_set():
    g = build_res(two_triangles_instance())
    # clause order: hard h1..h7 are nodes 0..6, softs s1..s4 are 7..10
    edges = {(u[1], v[1]) for u, v, _ in g.edges()}
    expected = {
        (0, 1),  # h1-h2
        (1, 6),  # h2-h7
        (4, 6),  # h7-h5
        (3, 4),  # h5-h4
        (0, 2),  # h1-h3
        (1, 2),  # h2-h3
        (4, 5),  # h5-h6
        (3, 5),  # h4-h6
        (0, 7),  # h1-s1
        (1, 8),  # h2-s2
        (4, 10),  # h5-s4
        (3, 9),  # h4-s3
    }
    assert edges == expected
    weights = {(u[1], v[1]): Fraction(w, g.scale) for u, v, w in g.edges()}
    assert weights[(0, 7)] == 1  # unit resolvent
    assert weights[(0, 1)] == Fraction(1, 2)


def test_res_skips_pairs_whose_resolvents_are_all_trivial():
    inst = MaxSatInstance(2, hard=[(1, 2), (-1, -2)], soft=[], top=1)
    assert build_res(inst).edges() == []


def test_res_unit_against_binary():
    inst = MaxSatInstance(2, hard=[(1, 2)], soft=[SoftClause((-1,), 1)], top=2)
    g = build_res(inst)
    assert [(u, v, Fraction(w, g.scale)) for u, v, w in g.edges()] == [
        ((C, 0), (C, 1), Fraction(1))
    ]


def test_res_contradicting_units_keep_a_clamped_edge():
    inst = MaxSatInstance(1, hard=[(1,)], soft=[SoftClause((-1,), 1)], top=2)
    g = build_res(inst)
    assert g.edges() == [((C, 0), (C, 1), Fraction(1))]


def test_res_pair_cap_raises():
    inst = two_triangles_instance()
    with pytest.raises(ResolutionGraphTooLarge):
        build_res(inst, max_pairs=2)


def test_res_recomputed_resolvents_are_never_trivial():
    from partmax.cnf import TAUTOLOGY, resolve

    inst = two_triangles_instance()
    clauses = list(inst.hard) + [s.lits for s in inst.soft]
    for u, v, w in build_res(inst).edges():
        c1, c2 = clauses[u[1]], clauses[v[1]]
        shared = [
            a for a in {abs(l) for l in c1} if (a in {abs(l) for l in c2})
            and ((a in c1) != (a in c2))
        ]
        resolvable = [a for a in {abs(l) for l in c1} & {abs(l) for l in c2}
                      if (a in c1 and -a in c2) or (-a in c1 and a in c2)]
        assert resolvable
        assert any(resolve(c1, c2, a) is not TAUTOLOGY for a in resolvable)


# ----------------------------------------------------------- communities


def two_disjoint_triangles_graph():
    g = WeightedGraph()
    for a, b in [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]:
        g.add_edge((V, a), (V, b), 1)
    return g


def test_two_disjoint_triangles_split_matches_exhaustive_search():
    g = two_disjoint_triangles_graph()
    best_q, best_part = best_modularity_partition(
        [(u, v, w) for u, v, w in g.edges()], g.nodes()
    )
    assert best_q == Fraction(1, 2)
    ca = detect_communities(g, seed=0)
    assert ca.n_communities == 2
    groups = {}
    for node, c in ca.communities.items():
        groups.setdefault(c, set()).add(node[1])
    assert set(map(frozenset, groups.values())) == {frozenset({1, 2, 3}), frozenset({4, 5, 6})}
    assert ca.q == pytest.approx(0.5)


def test_single_node_is_one_community():
    g = WeightedGraph()
    g.add_node((V, 1))
    ca = detect_communities(g, seed=0)
    assert ca.n_communities == 1
    assert ca.q == 0.0


def test_zero_weight_graph_gives_singletons():
    g = WeightedGraph()
    for v in (1, 2, 3):
        g.add_node((V, v))
    ca = detect_communities(g, seed=0)
    assert ca.n_communities == 3
    assert ca.q == 0.0


def test_vig_communities_of_two_triangles():
    inst = two_triangles_instance()
    ca = detect_communities(build_vig(inst), seed=0)
    groups = {}
    for node, c in ca.communities.items():
        groups.setdefault(c, set()).add(node[1])
    assert set(map(frozenset, groups.values())) == {frozenset({1, 2, 3}), frozenset({4, 5, 6})}


def test_vig_partitions_of_two_triangles():
    inst = two_triangles_instance()
    pinst = partition_by_graph(inst, "vig", seed=0)
    assert soft_blocks(pinst) == {frozenset({0, 1}), frozenset({2, 3})}


def test_res_partitions_of_two_triangles():
    inst = two_triangles_instance()
    pinst = partition_by_graph(inst, "res", seed=0)
    assert soft_blocks(pinst) == {frozenset({0}), frozenset({1}), frozenset({2, 3})}


def test_louvain_quality_not_below_singletons_and_phases_monotone():
    rng = random.Random(5)
    g = WeightedGraph()
    for _ in range(40):
        u, v = rng.sample(range(1, 15), 2)
        g.add_edge((V, min(u, v)), (V, max(u, v)), 1)
    ca = detect_communities(g, seed=1)
    singletons = {n: i for i, n in enumerate(sorted(g.adj))}
    assert ca.q >= modularity(g, singletons) - 1e-12
    assert all(b >= a - 1e-9 for a, b in zip(ca.phase_q, ca.phase_q[1:]))
    # reported q matches an exact recomputation
    exact = exact_modularity([(u, v, w) for u, v, w in g.edges()], ca.communities)
    assert ca.q == pytest.approx(float(exact))


def test_detect_communities_deterministic_per_seed():
    g = build_vig(two_triangles_instance())
    a = detect_communities(g, seed=3)
    b = detect_communities(g, seed=3)
    assert a.communities == b.communities and a.q == b.q


def test_derive_partitions_single_soft_any_representation():
    inst = MaxSatInstance(2, hard=[(1, 2)], soft=[SoftClause((-1,), 1)], top=2)
    for kind in ("vig", "cvig", "res"):
        pinst = partition_by_graph(inst, kind, seed=0)
        assert pinst.n_part == 1
        assert soft_blocks(pinst) == {frozenset({0})}


def test_derive_partitions_tie_breaks_to_lowest_community():
    # two equal-size communities; a soft clause straddling them evenly
    inst = MaxSatInstance(
        4,
        hard=[(1, 2), (3, 4)],
        soft=[SoftClause((1, 3), 1), SoftClause((-1,), 1), SoftClause((-3,), 1)],
        top=2,
    )
    g = build_vig(inst)
    ca = detect_communities(g, seed=0)
    pinst = derive_partitions(inst, ca, "vig")
    straddler = pinst.base.soft[0].part
    lower = min(
        pinst.base.soft[1].part, pinst.base.soft[2].part
    )
    assert straddler == lower


# clause widths 1 to 4; the vig edge (1, 2) sums 1 + 1 + 1/3, whose float
# value depends on the order of the terms
MIXED_WIDTHS = MaxSatInstance(
    5,
    hard=[(1, 2), (-1, 2), (1, 2, 3), (-2, 3, 4), (3, -4), (-1, -3, -4, 5), (4,)],
    soft=[SoftClause((-2, 5), 1), SoftClause((1,), 2), SoftClause((-4, -5, 3), 1)],
    top=5,
)


def edge_map(g, weight, rename=lambda node: node):
    """{u, v} -> weight(integer weight, g.scale) over the renamed nodes."""
    return {frozenset((rename(u), rename(v))): weight(w, g.scale) for u, v, w in g.edges()}


def test_graph_builds_are_order_insensitive():
    g = build_vig(MIXED_WIDTHS)
    assert Fraction(g.adj[(V, 1)][(V, 2)], g.scale) == Fraction(7, 3)
    rng = random.Random(11)
    for inst in (two_triangles_instance(), MIXED_WIDTHS):
        perm = list(range(len(inst.hard)))
        rng.shuffle(perm)
        shuffled = MaxSatInstance(
            inst.n_vars, hard=[inst.hard[k] for k in perm], soft=list(inst.soft), top=inst.top
        )

        def original(node):
            """Clause node k of the shuffled instance is clause perm[k]."""
            kind, k = node
            return (kind, perm[k]) if kind == C and k < len(perm) else node

        for build in (build_vig, build_cvig, build_res):
            a, b = build(inst), build(shuffled)
            assert edge_map(a, Fraction) == edge_map(b, Fraction, original)
            # the float weights detect_communities reads
            assert edge_map(a, truediv) == edge_map(b, truediv, original)


def test_random_partition_properties():
    inst = two_triangles_instance()
    one = random_partition(inst, 1, seed=9)
    assert one.n_part == 1
    many = random_partition(inst, 40, seed=9)
    assert 1 <= many.n_part <= 4
    again = random_partition(inst, 3, seed=5)
    assert [s.part for s in again.base.soft] == [
        s.part for s in random_partition(inst, 3, seed=5).base.soft
    ]
    with pytest.raises(ValueError):
        random_partition(inst, 0, seed=1)


@given(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=50))
def test_random_partition_covers_softs(k, seed):
    inst = two_triangles_instance()
    pinst = random_partition(inst, k, seed=seed)
    pinst.validate()
    ids = sorted(i for ids in pinst.blocks().values() for i in ids)
    assert ids == [0, 1, 2, 3]
    assert pinst.n_part == len(pinst.blocks())


def test_dump_edges_format():
    inst = MaxSatInstance(2, hard=[(1, 2)], soft=[], top=1)
    out = dump_edges(build_vig(inst))
    assert out == "v1 v2 1\n"


def test_empty_soft_clause_gets_its_own_partition():
    inst = MaxSatInstance(
        2, hard=[(1, 2)], soft=[SoftClause((), 1), SoftClause((-1,), 1)], top=3
    )
    for kind in ("vig", "cvig", "res"):
        pinst = partition_by_graph(inst, kind, seed=0)
        pinst.validate()
        assert sorted(i for ids in pinst.blocks().values() for i in ids) == [0, 1]


def test_partition_by_graph_rejects_unknown_representation_without_softs():
    for inst in (MaxSatInstance(2, hard=[(1, 2)], soft=[], top=1), two_triangles_instance()):
        with pytest.raises(ValueError, match="unknown representation"):
            partition_by_graph(inst, "bogus")


# ------------------------------------------------------- golden labels


def seating_instance(persons, seed):
    cfg = SeatingGenConfig(
        min_persons=persons, max_persons=persons, min_tables=3, max_tables=3,
        min_tag_universe=4, max_tag_universe=4, min_tags_per_person=1, max_tags_per_person=2,
    )
    return encode_seating(gen_seating(cfg, seed)).base


def msc_instance(vertices, seed):
    cfg = MscGenConfig(
        min_vertices=vertices, max_vertices=vertices, min_density=0.3, max_density=0.3,
        min_colors=4, max_colors=4,
    )
    return encode_msc(gen_msc(cfg, seed)).base


GOLDEN_INSTANCES = {
    "seating-15": lambda: seating_instance(15, 4015),
    "seating-16": lambda: seating_instance(16, 4016),
    "seating-17": lambda: seating_instance(17, 4017),
    "msc-8": lambda: msc_instance(8, 5008),
    "msc-9": lambda: msc_instance(9, 5009),
}
BUILDS = {"vig": build_vig, "cvig": build_cvig, "res": build_res}

# (instance, graph) -> (soft labels, phases, sha256 of the sorted node ->
# community map, phase_q), recorded from the Fraction-weighted graph layer
# with community seed 0
GOLDEN = {
    ('seating-15', 'vig'): (
        '1 2 3 4 5 2 3 3 6 2 3 2',
        5, 'e44b613981ceaab82e5eac813df720badfe297511671eec41665fbb121391c8a',
        (0.300132294, 0.580574845, 0.6076391708, 0.607718511, 0.607718511),
    ),
    ('seating-15', 'cvig'): (
        '2 1 2 3 4 2 2 3 2 3 2 3',
        6, 'c6fb5bcd35f589ed9a4dd55a2e21f8e4e87784684981b928f7f3ddb67de30986',
        (0.4750818543, 0.6220543537, 0.7390708192, 0.7537973305, 0.7539625925, 0.7539625925),
    ),
    ('seating-15', 'res'): (
        '2 1 3 4 6 5 6 4 3 7 3 8',
        4, '3c24d21d6904ea71f713c08c7e17d32187dabe73cd23782f4ccb2cf6ef530a6c',
        (0.6443187335, 0.7460160028, 0.7462076775, 0.7462076775),
    ),
    ('seating-16', 'vig'): (
        '1 2 2 2 3 3 2 4 4 5 2 4',
        5, 'e3d0bb6d05a6743f7a5bdfe4b8043219357f6f9d144bf7e7129cb0f71248c18d',
        (0.3008130988, 0.6147698996, 0.6386451757, 0.638763962, 0.638763962),
    ),
    ('seating-16', 'cvig'): (
        '1 3 5 4 6 3 5 5 1 2 5 4',
        6, '5f15fc52164e509861fe76187397d69087aece02e1dea7fd078e28c9d0fa957b',
        (0.4746240812, 0.6274624977, 0.7394351101, 0.7597121626, 0.7600134983, 0.7600134983),
    ),
    ('seating-16', 'res'): (
        '1 2 2 1 4 4 2 3 7 5 7 6',
        4, 'e2af821f17acef64e3d90b6a978ea856f6ad85551602e97b4158c28a4296a6ef',
        (0.6066510342, 0.7584628239, 0.7585606437, 0.7585606437),
    ),
    ('seating-17', 'vig'): (
        '1 2 3 4 1 3 3 5 1 1 6 7',
        4, '83a80b1745bc876576a6c52dc96d5b50cc1bc6f3d0b3ac7c53f541c7e500a418',
        (0.2956905005, 0.6488806631, 0.6609431384, 0.6609431384),
    ),
    ('seating-17', 'cvig'): (
        '1 7 5 4 1 1 6 3 1 7 8 2',
        6, '67ad67607180c99fac0fbd523b9cbac3d0a002f74df207d8cb23fb8bd01243f6',
        (0.4695999049, 0.6195122431, 0.7412957533, 0.7624013139, 0.7627695115, 0.7627695115),
    ),
    ('seating-17', 'res'): (
        '4 1 3 2 6 6 5 7 9 1 8 7',
        3, '58466918e1d911176ecfba6b035ee649e316cbe3e18fd7563af9586487fce78d',
        (0.6836155381, 0.7690058846, 0.7690058846),
    ),
    ('msc-8', 'vig'): (
        '1 1 1 1 1 1 1 1 2 2 2 2 2 2 2 2 3 3 3 3 4 4 4 4 3 3 3 3 2 2 2 2',
        3, '32cba6adca8eca0e90fcfb8ab71e2d4f05f6dd3f22fc17536175b7fb0a26119d',
        (0.4328, 0.4674, 0.4674),
    ),
    ('msc-8', 'cvig'): (
        '1 1 1 1 2 2 2 2 3 3 3 3 4 4 4 4 5 5 5 5 6 6 6 6 7 7 7 7 8 8 8 8',
        3, 'ee1468cb2f9b506cd53c5dabc43a204753f5b462bcb8e90af4dbca81c1f6c440',
        (0.5745379936, 0.707587236, 0.707587236),
    ),
    ('msc-8', 'res'): (
        '1 1 1 1 2 2 2 2 3 3 3 3 4 4 4 4 5 5 5 5 6 6 6 6 5 5 5 5 7 7 7 7',
        3, 'bc018dd18170b9acdd6612be95287ad2946c7363384ee17682a3f6eb957dc506',
        (0.5355711162, 0.5484824032, 0.5484824032),
    ),
    ('msc-9', 'vig'): (
        '1 1 1 1 2 2 2 2 1 1 1 1 3 3 3 3 2 2 2 2 3 3 3 3 4 4 4 4 5 5 5 5 3 3 3 3',
        3, '5c8e6db3c30e9bb322545ec0397d0b465cbd4779fc388b0eb4da42ecab15b94d',
        (0.4748012927, 0.534369814, 0.534369814),
    ),
    ('msc-9', 'cvig'): (
        '1 1 1 1 2 2 2 2 3 3 3 3 4 4 4 4 5 5 5 5 6 6 6 6 7 7 7 7 8 8 8 8 9 9 9 9',
        3, '81c0d530351cc4895fcd3d18ec9ce265bc19f280ac22a42a07b0bd0dadaab7d4',
        (0.5822075652, 0.7347303047, 0.7347303047),
    ),
    ('msc-9', 'res'): (
        '1 1 1 1 2 2 2 2 1 1 1 1 3 3 3 3 4 4 4 4 3 3 3 3 4 4 4 4 5 5 5 5 3 3 3 3',
        3, 'f460b0840fdfd8874e0de5fce8f9d3ba035f74b69172ffe35f0250911600a644',
        (0.564410323, 0.5897611496, 0.5897611496),
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_INSTANCES))
def test_partitions_match_golden_labels(name):
    inst = GOLDEN_INSTANCES[name]()
    for kind, build in BUILDS.items():
        labels, n_phases, digest, phase_q = GOLDEN[(name, kind)]
        ca = detect_communities(build(inst), seed=0)
        pinst = derive_partitions(inst, ca, kind)
        assert " ".join(str(s.part) for s in pinst.base.soft) == labels, kind
        assert len(ca.phase_q) == n_phases, kind
        sorted_map = repr(sorted(ca.communities.items())).encode()
        assert hashlib.sha256(sorted_map).hexdigest() == digest, kind
        assert ca.phase_q == pytest.approx(phase_q, abs=1e-9), kind


def test_detected_q_matches_exact_modularity_on_weighted_graphs():
    inst = GOLDEN_INSTANCES["seating-15"]()
    for kind, build in BUILDS.items():
        g = build(inst)
        ca = detect_communities(g, seed=0)
        assert len(ca.phase_q) > 2, kind
        edges = [(u, v, Fraction(w, g.scale)) for u, v, w in g.edges()]
        exact = exact_modularity(edges, ca.communities)
        assert ca.q == pytest.approx(float(exact), abs=1e-9), kind
        assert all(b >= a - 1e-12 for a, b in zip(ca.phase_q, ca.phase_q[1:])), kind
