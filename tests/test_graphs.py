import hashlib
import random
from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from operator import truediv

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import two_triangles_instance
from oracles import best_modularity_partition, exact_modularity, resolve
from partmax import graphs
from partmax.bench import apply_strategy
from partmax.cnf import TAUTOLOGY, MaxSatInstance, SoftClause, eliminate_pure_literals
from partmax.encoders import (
    MscGenConfig,
    SeatingGenConfig,
    encode_msc,
    encode_seating,
    gen_msc,
    gen_seating,
)
from partmax.formats import write_pwcnf
from partmax.graphs import (
    ResolutionGraphTooLarge,
    WeightedGraph,
    build_cvig,
    build_res,
    build_vig,
    derive_partitions,
    detect_communities,
    modularity,
    partition_by_graph,
    random_partition,
)
from partmax.maxsat import solve_instance


def soft_blocks(pinst):
    """Partition blocks as a set of frozensets of soft-clause indices."""
    return {frozenset(ids) for ids in pinst.blocks().values()}


# ------------------------------------------------------------------- vig


def test_vig_of_two_triangles_matches_known_edge_set():
    g = build_vig(two_triangles_instance())
    edges = {(u + 1, v + 1) for u, v, _ in g.edges()}  # variable v is node v - 1
    assert edges == {(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6), (3, 6)}
    assert all(w == 1 for _, _, w in g.edges())


def test_vig_single_binary_clause():
    inst = MaxSatInstance(2, hard=[(1, 2)], soft=[], top=1)
    g = build_vig(inst)
    assert g.edges() == [(0, 1, Fraction(1))]


def test_vig_unit_soft_contributes_no_edge():
    inst = MaxSatInstance(1, hard=[], soft=[SoftClause((-1,), 1)], top=2)
    g = build_vig(inst)
    assert g.edges() == []
    assert list(g.adj) == [0]


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
    # 11 clause nodes 0..10, then 6 variable nodes 11..16
    assert len(inst.hard) + len(inst.soft) == 11 and inst.n_vars == 6
    assert list(g.adj) == list(range(17))
    # soft 0 is the unit clause on v1: clause node 7 connects only to v1
    assert sorted(g.adj[7]) == [11]
    assert Fraction(g.adj[7][11], g.scale) == 1


def test_cvig_empty_formula_is_empty():
    g = build_cvig(MaxSatInstance(0, [], [], top=1))
    assert g.adj == {}


def test_cvig_edge_weight_is_inverse_clause_size():
    inst = MaxSatInstance(2, hard=[(1, 2)], soft=[], top=1)
    g = build_cvig(inst)
    # clause 0 is node 0; variables 1 and 2 are nodes 1 and 2
    assert Fraction(g.adj[0][1], g.scale) == Fraction(1, 2)
    assert Fraction(g.adj[0][2], g.scale) == Fraction(1, 2)


# ------------------------------------------------------------------- res


def test_res_of_two_triangles_matches_known_edge_set():
    g = build_res(two_triangles_instance())
    # clause order: hard h1..h7 are nodes 0..6, softs s1..s4 are 7..10
    edges = {(u, v) for u, v, _ in g.edges()}
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
    weights = {(u, v): Fraction(w, g.scale) for u, v, w in g.edges()}
    assert weights[(0, 7)] == 1  # unit resolvent
    assert weights[(0, 1)] == Fraction(1, 2)


def test_res_skips_pairs_whose_resolvents_are_all_trivial():
    inst = MaxSatInstance(2, hard=[(1, 2), (-1, -2)], soft=[], top=1)
    assert build_res(inst).edges() == []


def test_res_unit_against_binary():
    inst = MaxSatInstance(2, hard=[(1, 2)], soft=[SoftClause((-1,), 1)], top=2)
    g = build_res(inst)
    assert [(u, v, Fraction(w, g.scale)) for u, v, w in g.edges()] == [(0, 1, Fraction(1))]


def test_res_contradicting_units_keep_a_clamped_edge():
    inst = MaxSatInstance(1, hard=[(1,)], soft=[SoftClause((-1,), 1)], top=2)
    g = build_res(inst)
    assert g.edges() == [(0, 1, Fraction(1))]


def test_res_pair_cap_raises(monkeypatch):
    monkeypatch.setattr(graphs, "MAX_RES_PAIRS", 2)
    inst = two_triangles_instance()
    with pytest.raises(ResolutionGraphTooLarge):
        build_res(inst)


def test_res_recomputed_resolvents_are_never_trivial():
    inst = two_triangles_instance()
    clauses = list(inst.hard) + [s.lits for s in inst.soft]
    for u, v, w in build_res(inst).edges():
        c1, c2 = clauses[u], clauses[v]
        shared = [
            a for a in {abs(l) for l in c1} if (a in {abs(l) for l in c2})
            and ((a in c1) != (a in c2))
        ]
        resolvable = [a for a in {abs(l) for l in c1} & {abs(l) for l in c2}
                      if (a in c1 and -a in c2) or (-a in c1 and a in c2)]
        assert resolvable
        assert any(resolve(c1, c2, a) is not TAUTOLOGY for a in resolvable)


def reference_res(clauses):
    """scale and {(i, j): integer weight} of the resolution graph, from
    oracles.resolve on every clause pair. A pair is decided by its lowest clashing
    variable; for tautology-free clauses every clashing variable agrees, since
    a pair that clashes on two variables only has trivial resolvents."""
    longest = max((len(cl) for cl in clauses), default=0)
    scale = lcm(*range(1, 2 * longest - 1))
    edges = {}
    for i, j in combinations(range(len(clauses)), 2):
        ci, cj = clauses[i], clauses[j]
        clash = sorted(abs(l) for l in set(ci) if -l in cj)
        if clash:
            r = resolve(ci, cj, clash[0])
            if r is not TAUTOLOGY:
                edges[(i, j)] = scale // max(len(r), 1)
    return scale, edges


RES_LITERALS = st.integers(1, 4).flatmap(lambda v: st.sampled_from((v, -v)))


@given(
    clauses=st.lists(st.lists(RES_LITERALS, max_size=4).map(tuple), max_size=10),
    n_hard=st.integers(0, 10),
)
@example(clauses=[(1,), (-1,), (1,), (2, 3)], n_hard=1)  # units, contradictory units
@example(clauses=[(1, 2), (-1, -2), (1, -2)], n_hard=3)  # two clashes: tautology
@example(clauses=[(1, 2, 3), (-1, -2, -3), (1, 2, 3), (-3, 4)], n_hard=2)  # duplicates
@example(clauses=[(1, -2, 3, 4), (-1, 2, -3, 4)], n_hard=0)  # three clashes, one pair
@example(clauses=[(1, -1, 2), (-1, 3), (1, -1)], n_hard=0)  # tautological clauses
def test_res_matches_resolve_reference(clauses, n_hard):
    hard, soft = clauses[:n_hard], [SoftClause(cl, 1) for cl in clauses[n_hard:]]
    g = build_res(MaxSatInstance(4, hard=hard, soft=soft, top=len(soft) + 1))
    scale, edges = reference_res(clauses)
    assert g.scale == scale
    assert list(g.adj) == list(range(len(clauses)))
    assert {(u, v): w for u, v, w in g.edges()} == edges


def reference_vig_cvig(clauses, n_vars):
    """{kind: (scale, node count, {(u, v): integer weight})} of vig and cvig,
    from their definitions in exact arithmetic at the module's node ids: vig
    adds 1/C(n, 2) per clause with n >= 2 distinct variables to each pair of
    them, cvig joins clause i to each of its distinct variables with weight
    1/len(clause i). scale is the LCM of the per-clause weights' denominators."""
    m = len(clauses)
    vig, cvig = {}, {}
    for ci, cl in enumerate(clauses):
        vs = sorted({abs(l) for l in cl})
        for a, b in combinations(vs, 2):
            vig[(a - 1, b - 1)] = vig.get((a - 1, b - 1), 0) + Fraction(1, comb(len(vs), 2))
        for v in vs:
            cvig[(ci, m + v - 1)] = Fraction(1, len(cl))
    out = {}
    for kind, edges, denoms, n_nodes in (
        ("vig", vig, [comb(len({abs(l) for l in cl}), 2) for cl in clauses], n_vars),
        ("cvig", cvig, [len(cl) for cl in clauses], m + n_vars),
    ):
        scale = lcm(*(d for d in denoms if d))
        assert all((w * scale).denominator == 1 for w in edges.values())
        out[kind] = scale, n_nodes, {k: int(w * scale) for k, w in edges.items()}
    return out


@given(
    clauses=st.lists(st.lists(RES_LITERALS, max_size=4).map(tuple), max_size=10),
    n_hard=st.integers(0, 10),
)
@example(clauses=[(1,), (-2,), (3,), (-3,)], n_hard=2)  # units: no vig edge
@example(clauses=[(), (1, -2), (), (2, 3, 4)], n_hard=1)  # empty clauses
@example(clauses=[(1, 1, 2), (2, -2, 3), (-3, -3), (4, 4, -4, 1)], n_hard=2)  # repeats
def test_vig_and_cvig_match_definition_reference(clauses, n_hard):
    hard, soft = clauses[:n_hard], [SoftClause(cl, 1) for cl in clauses[n_hard:]]
    inst = MaxSatInstance(4, hard=hard, soft=soft, top=len(soft) + 1)
    reference = reference_vig_cvig(clauses, 4)
    for kind, build in (("vig", build_vig), ("cvig", build_cvig)):
        g = build(inst)
        scale, n_nodes, edges = reference[kind]
        assert g.scale == scale, kind
        assert list(g.adj) == list(range(n_nodes)), kind
        assert {(u, v): w for u, v, w in g.edges()} == edges, kind


# ----------------------------------------------------------- communities


def two_disjoint_triangles_graph():
    g = WeightedGraph(6)
    for a, b in [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]:
        g.add_edge(a, b, 1)
    return g


def test_two_disjoint_triangles_split_matches_exhaustive_search():
    g = two_disjoint_triangles_graph()
    best_q, best_part = best_modularity_partition(
        [(u, v, w) for u, v, w in g.edges()], list(g.adj)
    )
    assert best_q == Fraction(1, 2)
    ca = detect_communities(g, seed=0)
    assert ca.n_communities == 2
    groups = {}
    for node, c in enumerate(ca.communities):
        groups.setdefault(c, set()).add(node)
    assert set(map(frozenset, groups.values())) == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}
    assert ca.q == pytest.approx(0.5)


def test_single_node_is_one_community():
    g = WeightedGraph(1)
    ca = detect_communities(g, seed=0)
    assert ca.n_communities == 1
    assert ca.q == 0.0


def test_zero_weight_graph_gives_singletons():
    g = WeightedGraph(3)
    ca = detect_communities(g, seed=0)
    assert ca.n_communities == 3
    assert ca.q == 0.0


def test_vig_communities_of_two_triangles():
    inst = two_triangles_instance()
    ca = detect_communities(build_vig(inst), seed=0)
    groups = {}
    for node, c in enumerate(ca.communities):
        groups.setdefault(c, set()).add(node + 1)
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
    g = WeightedGraph(14)
    for _ in range(40):
        u, v = rng.sample(range(14), 2)
        g.add_edge(min(u, v), max(u, v), 1)
    ca = detect_communities(g, seed=1)
    singletons = list(range(14))
    assert ca.q >= modularity(g, singletons) - 1e-12
    assert all(b >= a - 1e-9 for a, b in zip(ca.phase_q, ca.phase_q[1:]))
    # reported q matches an exact recomputation
    exact = exact_modularity(
        [(u, v, w) for u, v, w in g.edges()], dict(enumerate(ca.communities))
    )
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
    assert Fraction(g.adj[0][1], g.scale) == Fraction(7, 3)
    rng = random.Random(11)
    for inst in (two_triangles_instance(), MIXED_WIDTHS):
        perm = list(range(len(inst.hard)))
        rng.shuffle(perm)
        shuffled = MaxSatInstance(
            inst.n_vars, hard=[inst.hard[k] for k in perm], soft=list(inst.soft), top=inst.top
        )

        def original(node):
            """Clause node k < len(perm) of the shuffled instance is clause perm[k]."""
            return perm[node] if node < len(perm) else node

        for build in (build_vig, build_cvig, build_res):
            a, b = build(inst), build(shuffled)
            # vig nodes are variables, which the shuffle leaves in place
            rename = (lambda node: node) if build is build_vig else original
            assert edge_map(a, Fraction) == edge_map(b, Fraction, rename)
            # the float weights detect_communities reads
            assert edge_map(a, truediv) == edge_map(b, truediv, rename)


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


def test_empty_soft_clause_gets_its_own_partition():
    for inst in (
        MaxSatInstance(
            2, hard=[(1, 2)], soft=[SoftClause((), 1), SoftClause((-1,), 1)], top=3
        ),
        MaxSatInstance(0, [], [SoftClause((), 1)], top=2),  # a vig without nodes
    ):
        for kind in ("vig", "cvig", "res"):
            pinst = partition_by_graph(inst, kind, seed=0)
            pinst.validate()
            ids = sorted(i for ids in pinst.blocks().values() for i in ids)
            assert ids == list(range(len(inst.soft))), kind


def test_partition_by_graph_rejects_unknown_representation_without_softs():
    for inst in (MaxSatInstance(2, hard=[(1, 2)], soft=[], top=1), two_triangles_instance()):
        with pytest.raises(ValueError, match="unknown representation"):
            partition_by_graph(inst, "bogus")


def test_oversized_res_falls_back_to_a_single_partition(monkeypatch):
    monkeypatch.setattr(graphs, "MAX_RES_PAIRS", 1)
    inst = seating_instance(15, 4015)
    with pytest.warns(UserWarning, match="falling back to a single partition"):
        out = partition_by_graph(inst, "res")
    assert out.n_part == 1
    assert out.base.hard == inst.hard
    assert [(s.lits, s.weight) for s in out.base.soft] == [(s.lits, s.weight) for s in inst.soft]
    # every clause, in its order, is written with label 1
    rows = write_pwcnf(out).splitlines()[1:]
    assert [row.split()[0] for row in rows] == ["1"] * (len(inst.hard) + len(inst.soft))
    assert out.elimination == eliminate_pure_literals(inst.hard, inst.n_vars, inst.soft_vars())
    none = solve_instance(apply_strategy("wcnf", inst, "none"), "oll")
    assert solve_instance(out, "oll").cost == none.cost


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


def node_names(kind, inst):
    """("v", variable) or ("c", clause index) for each node id of a build, the
    names under which the golden digests were recorded."""
    variables = [("v", v) for v in range(1, inst.n_vars + 1)]
    clauses = [("c", i) for i in range(len(inst.hard) + len(inst.soft))]
    return {"vig": variables, "cvig": clauses + variables, "res": clauses}[kind]


# (instance, graph) -> (soft labels, phases, sha256 of the sorted node ->
# community map, phase_q, final Q of the full-sweep local moves), recorded
# from the queue-driven local moves with community seed 0. The last field is
# the Q that detection reached when every phase swept all nodes until none
# moved; the queue must stay within 0.95x of it per graph, 0.99x on average.
GOLDEN = {
    ('seating-15', 'vig'): (
        '1 2 3 1 4 2 3 3 5 2 3 2',
        5, 'fec0dc25d97cbcfa2119edcf15980cbbf8788a824c6423f22611afcc6b2e8b49',
        (0.3001287294, 0.5781833548, 0.6046113822, 0.6050680923, 0.6050680923),
        0.607718511,
    ),
    ('seating-15', 'cvig'): (
        '5 4 1 1 3 2 1 4 5 4 1 4',
        6, '3f1673b2ee58dcaff7bade8b3c44562e1f5316bafe5fa785ca27d3b55f4318ac',
        (0.4748399314, 0.6254000553, 0.7353524179, 0.7537217782, 0.7540308687, 0.7540308687),
        0.7539625925,
    ),
    ('seating-15', 'res'): (
        '3 2 4 1 7 6 5 1 8 9 10 8',
        4, '6c5cdf6717ca82984e44c78f6835c0b80893228fa85c192d4fbc364d99a78036',
        (0.5687386998, 0.7414753105, 0.7424241583, 0.7424241583),
        0.7462076775,
    ),
    ('seating-16', 'vig'): (
        '1 2 3 4 5 5 3 4 4 3 3 3',
        4, 'ea59836d6f0235cdbf470e78f5e87f3c05451d888f30054ef6fda5a7a535477f',
        (0.3002485455, 0.6260610056, 0.6440992823, 0.6440992823),
        0.638763962,
    ),
    ('seating-16', 'cvig'): (
        '5 1 3 3 2 6 3 4 4 6 3 4',
        6, 'de50ac76d4dacca62a0a60c63ce842e829c5ca4548efeea81d437f058460ff8c',
        (0.474325941, 0.6225257965, 0.737408106, 0.7592250224, 0.759371706, 0.759371706),
        0.7600134983,
    ),
    ('seating-16', 'res'): (
        '1 2 2 1 3 5 2 4 8 6 8 7',
        4, 'fa9fdd4c2bbd7c6495482410e0f41d5854fb13ad5e1376ac08e4a075d2da5b88',
        (0.6324447441, 0.759663566, 0.7597803995, 0.7597803995),
        0.7585606437,
    ),
    ('seating-17', 'vig'): (
        '1 2 3 4 1 1 3 3 1 1 5 6',
        5, '3351ccb187aa995063e7ece147aba0468fd7c05dec24379158fd919ccbe87fb2',
        (0.2956897224, 0.6307607309, 0.6580402848, 0.6584274534, 0.6584274534),
        0.6609431384,
    ),
    ('seating-17', 'cvig'): (
        '1 6 3 5 1 1 7 4 1 6 7 2',
        6, '366409e4d02e29d53863866658f389cf57c2a94347c85dfef3f634e16b1e5b9e',
        (0.4694160725, 0.620350025, 0.7413683664, 0.7617770321, 0.7617834802, 0.7617834802),
        0.7627695115,
    ),
    ('seating-17', 'res'): (
        '2 1 1 1 5 5 4 3 8 6 7 6',
        4, '0c76a03b6ece0f306cc37326de44d0d7c493ad2204948c18126f9073fa31fce1',
        (0.6728535427, 0.7685370429, 0.7697301318, 0.7697301318),
        0.7690058846,
    ),
    ('msc-8', 'vig'): (
        '1 1 1 1 1 1 1 1 2 2 2 2 2 2 2 2 3 3 3 3 4 4 4 4 3 3 3 3 2 2 2 2',
        3, '32cba6adca8eca0e90fcfb8ab71e2d4f05f6dd3f22fc17536175b7fb0a26119d',
        (0.4328, 0.4674, 0.4674),
        0.4674,
    ),
    ('msc-8', 'cvig'): (
        '1 1 1 1 2 2 2 2 3 3 3 3 4 4 4 4 5 5 5 5 6 6 6 6 7 7 7 7 8 8 8 8',
        3, '537699a42e8b2e1478a7abd638e3b92a2ad03941300ee923c41bf05b9cd60e85',
        (0.5744949495, 0.7075585399, 0.7075585399),
        0.707587236,
    ),
    ('msc-8', 'res'): (
        '1 1 1 1 2 2 2 2 3 3 3 3 4 4 4 4 5 5 5 5 6 6 6 6 5 5 5 5 7 7 7 7',
        3, 'bc018dd18170b9acdd6612be95287ad2946c7363384ee17682a3f6eb957dc506',
        (0.5355711162, 0.5484824032, 0.5484824032),
        0.5484824032,
    ),
    ('msc-9', 'vig'): (
        '1 1 1 1 2 2 2 2 1 1 1 1 3 3 3 3 2 2 2 2 3 3 3 3 4 4 4 4 5 5 5 5 3 3 3 3',
        3, '5c8e6db3c30e9bb322545ec0397d0b465cbd4779fc388b0eb4da42ecab15b94d',
        (0.4748012927, 0.534369814, 0.534369814),
        0.534369814,
    ),
    ('msc-9', 'cvig'): (
        '1 1 1 1 2 2 2 2 3 3 3 3 4 4 4 4 5 5 5 5 6 6 6 6 7 7 7 7 8 8 8 8 9 9 9 9',
        3, '8dca1270f1ba3d806b1e09582c6be29d332a6beafb820683a22e5dff0e5d7704',
        (0.5821219864, 0.7344857939, 0.7344857939),
        0.7347303047,
    ),
    ('msc-9', 'res'): (
        '1 1 1 1 2 2 2 2 1 1 1 1 3 3 3 3 4 4 4 4 3 3 3 3 4 4 4 4 5 5 5 5 3 3 3 3',
        3, 'f460b0840fdfd8874e0de5fce8f9d3ba035f74b69172ffe35f0250911600a644',
        (0.564410323, 0.5897611496, 0.5897611496),
        0.5897611496,
    ),

}


@pytest.mark.parametrize("name", sorted(GOLDEN_INSTANCES))
def test_partitions_match_golden_labels(name):
    inst = GOLDEN_INSTANCES[name]()
    for kind, build in BUILDS.items():
        labels, n_phases, digest, phase_q, sweep_q = GOLDEN[(name, kind)]
        ca = detect_communities(build(inst), seed=0)
        assert ca.q >= 0.95 * sweep_q, kind
        pinst = derive_partitions(inst, ca, kind)
        assert " ".join(str(s.part) for s in pinst.base.soft) == labels, kind
        assert len(ca.phase_q) == n_phases, kind
        names = node_names(kind, inst)
        assert len(names) == len(ca.communities), kind
        sorted_map = repr(sorted(zip(names, ca.communities))).encode()
        assert hashlib.sha256(sorted_map).hexdigest() == digest, kind
        assert ca.phase_q == pytest.approx(phase_q, abs=1e-9), kind


def test_golden_q_mean_not_below_full_sweep():
    qs, sweep_qs = [], []
    for name, make in GOLDEN_INSTANCES.items():
        inst = make()
        for kind, build in BUILDS.items():
            qs.append(detect_communities(build(inst), seed=0).q)
            sweep_qs.append(GOLDEN[(name, kind)][4])
    assert len(qs) == len(GOLDEN) == 15
    assert sum(qs) >= 0.99 * sum(sweep_qs)


def test_detected_q_matches_exact_modularity_on_weighted_graphs():
    inst = GOLDEN_INSTANCES["seating-15"]()
    for kind, build in BUILDS.items():
        g = build(inst)
        ca = detect_communities(g, seed=0)
        assert len(ca.phase_q) > 2, kind
        edges = [(u, v, Fraction(w, g.scale)) for u, v, w in g.edges()]
        exact = exact_modularity(edges, dict(enumerate(ca.communities)))
        assert ca.q == pytest.approx(float(exact), abs=1e-9), kind
        assert all(b >= a - 1e-12 for a, b in zip(ca.phase_q, ca.phase_q[1:])), kind
