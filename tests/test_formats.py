import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import TWO_TRIANGLES_PWCNF, TWO_TRIANGLES_WCNF
from partmax.cnf import MaxSatInstance, PartitionedInstance, SoftClause
from partmax.formats import (
    FormatWarning,
    ParseError,
    detect_and_parse,
    parse_pwcnf,
    parse_wcnf,
    semantically_equal,
    write_pwcnf,
    write_solution,
)
from partmax.maxsat import SolveResult, SolveStats, Status


def test_parse_pwcnf_reference_instance():
    pinst = parse_pwcnf(TWO_TRIANGLES_PWCNF)
    base = pinst.base
    assert base.n_vars == 6
    assert base.top == 7
    assert pinst.n_part == 3
    assert len(base.hard) == 7
    assert len(base.soft) == 4
    labels = {s.lits: s.part for s in base.soft}
    assert labels == {(-1,): 1, (-3,): 2, (-4,): 3, (-6,): 3}
    assert all(s.weight == 1 for s in base.soft)
    assert set(map(frozenset, base.hard)) == {
        frozenset({1, 2}),
        frozenset({-2, 3}),
        frozenset({-1, -3}),
        frozenset({4, 5}),
        frozenset({-5, 6}),
        frozenset({-4, -6}),
        frozenset({-3, -6}),
    }


def test_parse_pwcnf_hard_labels_are_retained():
    pinst = parse_pwcnf(TWO_TRIANGLES_PWCNF)
    by_clause = dict(zip(map(frozenset, pinst.base.hard), pinst.hard_labels))
    assert by_clause[frozenset({-1, -3})] == 1
    assert by_clause[frozenset({-3, -6})] == 2
    assert by_clause[frozenset({4, 5})] == 3


def test_parse_pwcnf_empty_instance():
    pinst = parse_pwcnf("p pwcnf 0 0 1 1\n")
    assert pinst.base.n_vars == 0
    assert pinst.base.hard == []
    assert pinst.base.soft == []
    assert pinst.n_part == 1


def test_parse_pwcnf_weight_above_top_is_an_error():
    text = "p pwcnf 3 1 7 3\n2 8 -3 0\n"
    with pytest.raises(ParseError, match="exceeds top"):
        parse_pwcnf(text)


def test_parse_pwcnf_label_out_of_range():
    with pytest.raises(ParseError, match="partition label"):
        parse_pwcnf("p pwcnf 1 1 2 1\n2 1 1 0\n")


def test_parse_wcnf_reference_instance():
    inst = parse_wcnf(TWO_TRIANGLES_WCNF)
    assert inst.n_vars == 6
    assert inst.top == 8
    assert len(inst.hard) == 7
    assert len(inst.soft) == 4
    assert all(s.part == 0 for s in inst.soft)
    assert all(s.weight == 1 for s in inst.soft)


def test_comments_ignored_anywhere():
    text = "c header comment\np wcnf 1 2 3\nc between clauses\n3 1 0\nc tail\n1 -1 0\n"
    inst = parse_wcnf(text)
    assert len(inst.hard) == 1 and len(inst.soft) == 1


def test_clause_count_mismatch_is_an_error():
    with pytest.raises(ParseError, match="declares 2 clauses"):
        parse_wcnf("p wcnf 1 2 3\n3 1 0\n")
    with pytest.raises(ParseError, match="declares 1 clauses"):
        parse_wcnf("p wcnf 1 1 3\n3 1 0\n1 -1 0\n")


def test_literal_out_of_range_is_an_error():
    with pytest.raises(ParseError, match="outside declared variables"):
        parse_wcnf("p wcnf 1 1 3\n3 2 0\n")


def test_missing_and_duplicate_headers():
    with pytest.raises(ParseError, match="missing header"):
        parse_wcnf("")
    with pytest.raises(ParseError, match="missing header"):
        parse_wcnf("3 1 0\n")
    with pytest.raises(ParseError, match="duplicate header"):
        parse_wcnf("p wcnf 1 2 3\n3 1 0\np wcnf 1 1 3\n")


def test_unterminated_clause_is_an_error():
    with pytest.raises(ParseError, match="not terminated"):
        parse_wcnf("p wcnf 2 1 3\n3 1 2\n")


def test_wrapped_clause_tokens_parse():
    inst = parse_wcnf("p wcnf 3 1 5\n5 1\n 2 3\n 0\n")
    assert inst.hard == [(1, 2, 3)]


def test_zero_weight_rejected():
    with pytest.raises(ParseError, match="weight"):
        parse_wcnf("p wcnf 1 1 3\n0 1 0\n")


def test_tautology_dropped_with_warning():
    with pytest.warns(FormatWarning, match="tautological"):
        inst = parse_wcnf("p wcnf 2 2 3\n3 1 -1 0\n3 2 0\n")
    assert inst.hard == [(2,)]


def test_duplicate_literals_silently_deduped():
    inst = parse_wcnf("p wcnf 2 1 3\n3 1 1 2 0\n")
    assert inst.hard == [(1, 2)]


def test_parse_diagnostics_carry_line_numbers():
    try:
        parse_wcnf("p wcnf 1 1 3\nc comment\n3 junk 0\n")
    except ParseError as exc:
        assert exc.diagnostic.line == 3
        assert exc.diagnostic.severity == "error"
    else:
        pytest.fail("expected a ParseError")


def test_detect_and_parse_picks_dialect():
    kind, inst = detect_and_parse(TWO_TRIANGLES_WCNF)
    assert kind == "wcnf" and isinstance(inst, MaxSatInstance)
    kind, pinst = detect_and_parse(TWO_TRIANGLES_PWCNF.encode())
    assert kind == "pwcnf" and isinstance(pinst, PartitionedInstance)
    # the header's tokens may wrap across lines, as the parsers allow
    wrapped = "p\nwcnf 1 1 3\n3 1 0\n"
    assert detect_and_parse(wrapped) == ("wcnf", parse_wcnf(wrapped))
    with pytest.raises(ParseError, match="unknown format 'cnf'"):
        detect_and_parse("p cnf 1 1\n1 0\n")


def test_roundtrip_of_reference_instance_is_a_fixpoint():
    first = parse_pwcnf(TWO_TRIANGLES_PWCNF)
    text = write_pwcnf(first)
    second = parse_pwcnf(text)
    assert semantically_equal(first, second)
    assert write_pwcnf(second) == text


def test_write_pwcnf_empty_instance_is_header_only():
    pinst = PartitionedInstance(MaxSatInstance(0, [], [], top=1), n_part=1)
    assert write_pwcnf(pinst) == "p pwcnf 0 0 1 1\n"


def test_write_pwcnf_rejects_unassigned_labels():
    base = MaxSatInstance(1, [], [SoftClause((1,), 1, part=0)], top=2)
    with pytest.raises(ValueError, match="unassigned"):
        write_pwcnf(PartitionedInstance(base, n_part=1))


def test_roundtrip_two_partitions():
    base = MaxSatInstance(
        3,
        hard=[(1, 2, 3)],
        soft=[SoftClause((-1,), 2, part=1), SoftClause((-2,), 1, part=2)],
        top=4,
    )
    pinst = PartitionedInstance(base, n_part=2)
    again = parse_pwcnf(write_pwcnf(pinst))
    assert semantically_equal(pinst, again)
    assert again.blocks() == pinst.blocks()


small_instances = st.builds(
    lambda n_vars, hard, soft_specs, n_extra: _build_instance(n_vars, hard, soft_specs, n_extra),
    st.integers(min_value=1, max_value=6),
    st.lists(st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3), max_size=4),
    st.lists(
        st.tuples(
            st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=3),
            st.integers(min_value=1, max_value=9),
            st.integers(min_value=1, max_value=3),
        ),
        max_size=5,
    ),
    st.integers(min_value=0, max_value=2),
)


def _build_instance(n_vars, hard_raw, soft_specs, n_extra):
    from partmax.cnf import TAUTOLOGY, make_clause

    hard = []
    for raw in hard_raw:
        cl = make_clause([v if v % 2 else -v for v in [min(v, n_vars) for v in raw]])
        if cl is not TAUTOLOGY:
            hard.append(cl)
    soft = []
    max_part = 1
    for raw, w, part in soft_specs:
        cl = make_clause([-min(v, n_vars) if v % 2 else min(v, n_vars) for v in raw])
        if cl is not TAUTOLOGY:
            soft.append(SoftClause(cl, w, part))
            max_part = max(max_part, part)
    base = MaxSatInstance(n_vars, hard, soft, top=sum(s.weight for s in soft) + 1)
    return PartitionedInstance(base, n_part=max_part + n_extra)


@given(small_instances)
def test_roundtrip_property(pinst):
    again = parse_pwcnf(write_pwcnf(pinst))
    assert semantically_equal(pinst, again)


@settings(max_examples=200)
@given(st.binary(max_size=120))
def test_parser_totality_on_arbitrary_bytes(data):
    try:
        parse_pwcnf(data)
    except ParseError as exc:
        assert exc.diagnostic.line >= 1


def _result(status, cost=None, model=None):
    return SolveResult(status=status, cost=cost, model=model, lower_bound=0, stats=SolveStats())


def test_write_solution_optimum():
    model = [False, False, True, True, True, False, False]
    text = write_solution(_result(Status.OPTIMUM, cost=2, model=model))
    lines = text.splitlines()
    assert lines[0] == "o 2"
    assert lines[1] == "s OPTIMUM FOUND"
    assert lines[2] == "v -1 2 3 4 -5 -6"
    assert len(lines[2].split()) == 7  # marker plus one literal per variable


def test_write_solution_hard_unsat():
    assert write_solution(_result(Status.HARD_UNSAT)) == "s UNSATISFIABLE\n"


def test_write_solution_zero_cost():
    text = write_solution(_result(Status.OPTIMUM, cost=0, model=[False, True]))
    assert text.splitlines()[0] == "o 0"
    assert "s OPTIMUM FOUND" in text


def test_write_solution_timeout_reports_best_known():
    text = write_solution(_result(Status.TIMEOUT, cost=5, model=[False, True]))
    assert text.splitlines() == ["o 5", "s UNKNOWN", "v 1"]
