"""The bulk reader agrees with the token-cursor parser.

formats._parse tries formats._parse_bulk first and hands any input that
reader declines to formats._parse_tokens whole. These tests pin which input
each path takes and that both paths give the same instance and warnings.
"""

import importlib.util
import os
import sys
import warnings

import pytest
from hypothesis import given
from hypothesis import strategies as st

from partmax import encoders, formats
from partmax.cnf import MaxSatInstance, PartitionedInstance, SoftClause
from partmax.formats import detect_and_parse, parse_pwcnf, parse_wcnf, write_pwcnf

WORKLOADS_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")


def outcome(parse, text):
    """What parse returns or raises, and the warnings it emits."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = parse(text)
        except formats.ParseError as exc:
            result = ("ParseError", exc.line, exc.message)
    return result, [(w.category, str(w.message)) for w in caught]


# (name, text, whether the bulk reader takes it). {H} is the header and {L}
# a clause's partition label: "p wcnf 3 <clauses> 9" and "" in wcnf,
# "p pwcnf 3 <clauses> 9 2" and "2 " in pwcnf.
CLASSES = [
    ("canonical", "{H}\n{L}9 1 2 0\n{L}1 -3 0\n{L}2 3 0\n", True),
    ("leading comment", "c lead\n{H}\n{L}9 1 2 0\n{L}1 -3 0\n{L}2 3 0\n", False),
    ("comment between clauses", "{H}\n{L}9 1 2 0\nc mid\n{L}1 -3 0\n{L}2 3 0\n", False),
    ("CRLF line ends", "{H}\r\n{L}9 1 2 0\r\n{L}1 -3 0\r\n{L}2 3 0\r\n", True),
    ("clause wrapped over two lines", "{H}\n{L}9 1\n2 0\n{L}1 -3 0\n{L}2 3 0\n", True),
    ("repeated literal", "{H}\n{L}9 1 2 1 0\n{L}1 -3 0\n{L}2 3 0\n", False),
    ("tautology", "{H}\n{L}9 1 2 0\n{L}1 -3 3 0\n{L}2 3 0\n", False),
    ("plus sign", "{H}\n{L}9 +1 2 0\n{L}1 -3 0\n{L}2 3 0\n", False),
    ("clause tokens on the header line", "{H} {L}9 1 2 0\n{L}1 -3 0\n{L}2 3 0\n", False),
    ("no final newline", "{H}\n{L}9 1 2 0\n{L}1 -3 0\n{L}2 3 0", True),
    ("header alone without newline", "{H}", False),
]
DIALECTS = {
    "wcnf": ("p wcnf 3 {} 9", "", parse_wcnf),
    "pwcnf": ("p pwcnf 3 {} 9 2", "2 ", parse_pwcnf),
}


@pytest.mark.parametrize("dialect", DIALECTS)
@pytest.mark.parametrize("name, template, bulk", CLASSES, ids=[c[0] for c in CLASSES])
def test_each_input_class_parses_as_the_cursor_parser_reads_it(dialect, name, template, bulk):
    header, label, parse = DIALECTS[dialect]
    header = header.format(template.split().count("0"))
    text = template.replace("{H}", header).replace("{L}", label)
    for data in (text, text.encode()):
        assert (formats._parse_bulk(data, dialect) is not None) is bulk
        assert (formats._parse_bulk(data, None) is not None) is bulk
        expected = outcome(lambda t: formats._parse_tokens(t, dialect), data)
        assert not isinstance(expected[0], tuple)  # each class is well formed
        assert outcome(parse, data) == expected
        assert outcome(lambda t: detect_and_parse(t)[1], data) == expected


@st.composite
def canonical_instances(draw):
    """Instances whose write_pwcnf text the bulk reader takes: clauses of
    distinct variables, empty ones included, soft weights up to top - 1."""
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
def test_bulk_reader_reads_write_pwcnf_as_the_cursor_parser_does(pinst):
    text = write_pwcnf(pinst)
    for data in (text, text.encode()):
        parsed = formats._parse_bulk(data, "pwcnf")
        assert parsed is not None
        assert parsed == formats._parse_tokens(data, "pwcnf") == pinst
        assert parsed.hard_labels == pinst.hard_labels


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


def test_every_seed0_benchmark_instance_takes_the_bulk_path(monkeypatch):
    def cursor(text, fmt):
        raise AssertionError("the bulk reader declined a generated instance")

    monkeypatch.setattr(formats, "_parse_tokens", cursor)
    workloads = load_workloads(monkeypatch)
    count = 0
    for wl in workloads.WORKLOADS.values():
        for pinst in corpus(wl, 0, workloads.SEED_STRIDE):
            data = write_pwcnf(pinst).encode()
            kind, parsed = detect_and_parse(data)
            assert kind == "pwcnf" and parsed.base == pinst.base
            count += 1
    assert count == sum(wl.corpus_size for wl in workloads.WORKLOADS.values())
