"""The parser's fast route and the lines it works out after the fact.

formats._parse splits the whole text at once. Only input with a comment, or
with a first line that is not a lone 'p' line, runs formats._tokens (every
token with its line) before parsing; other input runs it the first time a
diagnostic or a tautology warning names a line. These tests pin which input
runs it, and that each input class gives the instance and warnings written
here: the readings of the token-cursor parser this one replaced.
"""

import importlib.util
import inspect
import os
import sys
import warnings
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

from partmax import encoders, formats
from partmax.cnf import MaxSatInstance, PartitionedInstance, SoftClause
from partmax.formats import FormatWarning, detect_and_parse, parse_pwcnf, parse_wcnf, write_pwcnf

WORKLOADS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")


def outcome(parse, text):
    """What parse returns or raises, and the warnings it emits; each warning
    must name the line that calls parse."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call_line = inspect.currentframe().f_lineno + 2
        try:
            result = parse(text)
        except formats.ParseError as exc:
            result = ("ParseError", exc.line, exc.message)
    assert all((w.filename, w.lineno) == (__file__, call_line) for w in caught)
    return result, [(w.category, str(w.message)) for w in caught]


@contextmanager
def counting_line_maps():
    """Count the runs of formats._tokens inside the block."""
    runs = []
    tokens = formats._tokens

    def counted(text):
        runs.append(text)
        return tokens(text)

    with mock.patch.object(formats, "_tokens", counted):
        yield runs


@contextmanager
def without_line_map():
    """Fail if a parse inside the block works out token lines."""
    with mock.patch.object(formats, "_tokens", side_effect=AssertionError("_tokens ran")):
        yield


# (name, text, whether the parse runs _tokens). {H} is the header and {L} a
# clause's partition label: "p wcnf 3 <clauses> 9" and "" in wcnf,
# "p pwcnf 3 <clauses> 9 2" and "2 " in pwcnf. Every class but the last two
# reads as the canonical one.
CLASSES = [
    ("canonical", "{H}\n{L}9 1 2 0\n{L}1 -3 0\n{L}2 3 0\n", False),
    ("leading comment", "c lead\n{H}\n{L}9 1 2 0\n{L}1 -3 0\n{L}2 3 0\n", True),
    ("comment between clauses", "{H}\n{L}9 1 2 0\nc mid\n{L}1 -3 0\n{L}2 3 0\n", True),
    ("CRLF line ends", "{H}\r\n{L}9 1 2 0\r\n{L}1 -3 0\r\n{L}2 3 0\r\n", False),
    ("clause wrapped over two lines", "{H}\n{L}9 1\n2 0\n{L}1 -3 0\n{L}2 3 0\n", False),
    ("repeated literal", "{H}\n{L}9 1 2 1 0\n{L}1 -3 0\n{L}2 3 0\n", False),
    ("plus sign", "{H}\n{L}9 +1 2 0\n{L}1 -3 0\n{L}2 3 0\n", False),
    ("clause tokens on the header line", "{H} {L}9 1 2 0\n{L}1 -3 0\n{L}2 3 0\n", False),
    ("no final newline", "{H}\n{L}9 1 2 0\n{L}1 -3 0\n{L}2 3 0", False),
    ("tautology", "{H}\n{L}9 1 2 0\n{L}1 -3 3 0\n{L}2 3 0\n", True),
    ("header alone without newline", "{H}", False),
]
DIALECTS = {
    "wcnf": ("p wcnf 3 {} 9", "", parse_wcnf, 0),
    "pwcnf": ("p pwcnf 3 {} 9 2", "2 ", parse_pwcnf, 2),
}


def expected_instance(name, dialect):
    """The instance each class reads as: hard (1, 2), then the soft clauses
    (-3,) of weight 1 and (3,) of weight 2, all labelled 2 in pwcnf."""
    label = DIALECTS[dialect][3]
    hard, soft = [(1, 2)], [SoftClause((-3,), 1, label), SoftClause((3,), 2, label)]
    if name == "tautology":
        soft = soft[1:]
    elif name == "header alone without newline":
        hard, soft = [], []
    base = MaxSatInstance(3, hard, soft, top=9)
    if dialect == "wcnf":
        return base
    return PartitionedInstance(base, n_part=2, hard_labels=[label] * len(hard))


@pytest.mark.parametrize("dialect", DIALECTS)
@pytest.mark.parametrize("name, template, line_map", CLASSES, ids=[c[0] for c in CLASSES])
def test_each_input_class_parses_as_the_cursor_parser_reads_it(dialect, name, template, line_map):
    header, label, parse, _ = DIALECTS[dialect]
    header = header.format(template.split().count("0"))
    text = template.replace("{H}", header).replace("{L}", label)
    expected = expected_instance(name, dialect)
    caught = []
    if name == "tautology":
        caught = [(FormatWarning, "line 3: tautological clause dropped")]
    for data in (text, text.encode()):
        for entry, result in ((parse, expected), (detect_and_parse, (dialect, expected))):
            with counting_line_maps() as runs:
                assert outcome(entry, data) == (result, caught)
            assert bool(runs) is line_map


@st.composite
def canonical_instances(draw):
    """Instances of clauses of distinct variables, empty ones included, soft
    weights up to top - 1 and hard-clause labels."""
    n_vars = draw(st.integers(0, 6))
    n_part = draw(st.integers(1, 4))
    top = draw(st.integers(1, 2**64))
    clause = st.lists(st.integers(1, n_vars), unique=True, max_size=4).flatmap(
        lambda vs: st.tuples(*[st.sampled_from((v, -v)) for v in vs])
    ) if n_vars else st.just(())
    hard = draw(st.lists(clause, max_size=4))
    hard_labels = draw(st.lists(st.integers(1, n_part), min_size=len(hard), max_size=len(hard)))
    soft = []
    if top > 1:
        weight = st.integers(max(1, top - 3), top - 1) | st.integers(1, top - 1)
        soft = draw(st.lists(st.builds(SoftClause, clause, weight, st.integers(1, n_part)),
                             max_size=4))
    if sum(s.weight for s in soft) >= 2**64:
        soft = soft[:1]
    base = MaxSatInstance(n_vars, hard, soft, top=top)
    return PartitionedInstance(base, n_part=n_part, hard_labels=hard_labels)


@given(canonical_instances())
def test_parse_pwcnf_reads_back_write_pwcnf_without_the_line_map(pinst):
    text = write_pwcnf(pinst)
    with without_line_map():
        for data in (text, text.encode()):
            parsed = parse_pwcnf(data)
            assert parsed == pinst
            assert parsed.hard_labels == pinst.hard_labels


# str.splitlines breaks lines at \x0b, \x0c, \u2028 and a lone \r too; the
# fast route's str.split breaks there, and the lines worked out afterwards
# must count them as line ends.
BREAKS = "p wcnf 3 4 9\n9 1 2 0\x0b1 -3 0\x0c\u20282 3 -3 0\r9 1 0\n"


def splitlines_line(text, fragment):
    """The 1-based str.splitlines line of text that holds fragment."""
    return next(ln for ln, line in enumerate(text.splitlines(), 1) if fragment in line)


@pytest.mark.parametrize("tail", ["", "c the only comment\n"], ids=["fast route", "comment last"])
def test_lines_worked_out_after_the_fact_count_every_line_break(tail):
    tautology = BREAKS + tail
    valid = BREAKS.replace("2 3 -3 0", "2 3 0") + tail
    bad_literal = valid.replace("9 1 0", "9 4 0")
    assert splitlines_line(tautology, "2 3 -3 0") == 5
    assert splitlines_line(bad_literal, "9 4 0") == 6
    expected = MaxSatInstance(3, [(1, 2), (1,)], [SoftClause((-3,), 1), SoftClause((3,), 2)], top=9)
    for encode in (str, str.encode):
        with counting_line_maps() as runs:
            assert outcome(parse_wcnf, encode(valid)) == (expected, [])
        assert bool(runs) is bool(tail)  # only the comment runs _tokens up front
        with counting_line_maps() as runs:
            result, warned = outcome(parse_wcnf, encode(tautology))
        assert result == MaxSatInstance(3, [(1, 2), (1,)], [SoftClause((-3,), 1)], top=9)
        assert warned == [(FormatWarning, "line 5: tautological clause dropped")]
        assert len(runs) == 1
        assert outcome(parse_wcnf, encode(bad_literal)) == (
            ("ParseError", 6, "literal 4 outside declared variables 1..3"), []
        )


def load_workloads(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def corpus(wl, seed, stride):
    """The benchmark's instances of one workload for a seed (perfbench/run.py's draw)."""
    if wl.family == "msc":
        config, gen, encode = encoders.MscGenConfig, encoders.gen_msc, encoders.encode_msc
    else:
        config, gen, encode = (
            encoders.SeatingGenConfig, encoders.gen_seating, encoders.encode_seating
        )
    for i in range(wl.corpus_size):
        cfg = config(**wl.gen, **wl.strata[i % len(wl.strata)])
        yield encode(gen(cfg, seed * stride + i), encoders.SchemeChoice(wl.scheme))


def test_every_seed0_benchmark_instance_parses_without_the_line_map(monkeypatch):
    workloads = load_workloads(monkeypatch)
    count = 0
    with without_line_map():
        for wl in workloads.WORKLOADS.values():
            for pinst in corpus(wl, 0, workloads.SEED_STRIDE):
                text = write_pwcnf(pinst)
                labels = pinst.hard_labels or [1] * len(pinst.base.hard)
                for data in (text, text.encode()):
                    kind, parsed = detect_and_parse(data)
                    assert kind == "pwcnf" and parsed.base == pinst.base
                    assert parsed.hard_labels == labels
                count += 1
    assert count == sum(wl.corpus_size for wl in workloads.WORKLOADS.values())
