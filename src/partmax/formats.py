"""Reading and writing of DIMACS wcnf, the partition-annotated pwcnf
dialect, and evaluation-style solution output.

pwcnf grammar:

    p pwcnf n_vars n_clauses topw n_part
    [part] [weight] [literals*] 0        (one per clause)

Clauses with weight == topw are hard; all others are soft and must have
weight below topw. Partition labels run 1..n_part. Comment lines starting
with 'c' are allowed anywhere. The header is one line; clause tokens may
wrap across lines until the terminating 0. Every number is spelled in ASCII
as [+-]?[0-9]+.

One parser reads both dialects. It splits the whole text at once, converts
the clause tokens with one map(int, ...), finds each clause's 0 with
tuple.index and checks each clause once. The line of each token takes a
second pass, _tokens. It runs first only when the text up to the first
newline does not start with 'p' or holds another line break, or when a 'c'
follows it (a comment line, say); otherwise it runs the first time a
diagnostic or a tautology warning names a line.
"""

from __future__ import annotations

import re
import warnings
from itertools import islice

from .cnf import (
    MAX_WEIGHT_SUM,
    TAUTOLOGY,
    MaxSatInstance,
    PartitionedInstance,
    SoftClause,
    make_clause,
)


class ParseError(Exception):
    """Malformed input: `message` at 1-based `line`; str() reads 'line N: message'."""

    def __init__(self, line: int, message: str):
        super().__init__(line, message)  # pickle rebuilds the error from these
        self.line = line
        self.message = message

    def __str__(self):
        return f"line {self.line}: {self.message}"


class FormatWarning(UserWarning):
    pass


_INT = re.compile(r"[+-]?[0-9]+")
_FIELDS = ("variable count", "clause count", "top weight", "partition count")


def _int(tok: str) -> int | None:
    """tok as an int when spelled [+-]?[0-9]+ in ASCII, else None.

    int() alone would also read 1_0 and non-ASCII digits, and raises
    ValueError on more digits than it converts.
    """
    if _INT.fullmatch(tok):
        try:
            return int(tok)
        except ValueError:
            pass
    return None


def _tokens(text: str):
    """The tokens outside comment lines, and the 1-based line of each."""
    toks, lines = [], []
    for ln, line in enumerate(text.splitlines(), start=1):
        words = line.split()
        if words and not words[0].startswith("c"):
            toks += words
            lines += [ln] * len(words)
    return toks, lines


def _parse(text, fmt: str | None):
    """Parse wcnf or pwcnf; with fmt None, the header's format tag decides."""
    if isinstance(text, (bytes, bytearray)):
        text = text.decode("utf-8", errors="replace")
    nl = text.find("\n")
    head = text if nl < 0 else text[:nl]
    if head.startswith("p") and len(head.splitlines()) == 1 and text.find("c", len(head)) < 0:
        # the header leads line 1 and no line is a comment, so the tokens are
        # _tokens': str.split breaks at every line boundary splitlines knows
        line_map = None
        toks = text.split()
        ln, on_header_line = 1, len(head.split(None, 5))  # counted up to 6
    else:
        line_map = toks, lines = _tokens(text)
        if not toks:
            raise ParseError(1, "missing header")
        ln = lines[0]
        on_header_line = lines[:6].count(ln)

    if toks[0] != "p":
        raise ParseError(ln, f"missing header: expected 'p', got {toks[0]!r}")
    # the header's fields sit on its line; tokens after them start a clause
    if on_header_line < 2:
        raise ParseError(ln, "truncated header")
    tag = toks[1]
    if fmt is None:
        if tag not in ("wcnf", "pwcnf"):
            raise ParseError(ln, f"unknown format {tag!r}")
        fmt = tag
    pwcnf = fmt == "pwcnf"
    n_fields = 6 if pwcnf else 5
    if on_header_line < n_fields:
        raise ParseError(ln, "truncated header")
    if tag != fmt:
        raise ParseError(ln, f"expected '{fmt}' header, got {tag!r}")
    header = []
    for what, tok in zip(_FIELDS, toks[2:n_fields]):
        if (value := _int(tok)) is None:
            raise ParseError(ln, f"expected {what}, got {tok!r}")
        header.append(value)
    n_vars, n_clauses, top = header[:3]
    n_part = header[3] if pwcnf else 0
    if n_vars < 0 or n_clauses < 0:
        raise ParseError(ln, "header counts must be nonnegative")
    if top < 1:
        raise ParseError(ln, f"top weight must be >= 1, got {top}")
    if pwcnf and n_part < 1:
        raise ParseError(ln, f"n_part must be >= 1, got {n_part}")

    # the clause tokens as ints; a token that is no number becomes -n_vars - 1,
    # which fails every range check, and fail() then reads the token itself
    ints = None
    if text.isascii() and "_" not in text:  # then int() takes exactly _INT
        try:
            ints = tuple(map(int, islice(toks, n_fields, None)))
        except ValueError:  # a token that is no number, or too long for int()
            pass
    if ints is None:
        bad = -n_vars - 1
        ints = tuple(bad if (v := _int(tok)) is None else v for tok in islice(toks, n_fields, None))
    del toks  # a diagnostic reads them from line_map
    n = len(ints)
    if n and ints[-1]:
        ints += (0,)  # ends the last clause, which fail() reports unterminated
    skip = 2 if pwcnf else 1  # label and weight precede the literals

    def line(i: int) -> int:
        """The line of clause token i, or of the last token for i -1."""
        nonlocal line_map
        line_map = line_map or _tokens(text)
        return line_map[1][i if i < 0 else n_fields + i]

    def fail(start: int, i: int, what: str):
        """Raise the ParseError of clause token i, the `what` of the clause
        that starts at token start, which failed its check."""
        start_line = line(start)  # fills line_map
        if i == n:
            raise ParseError(start_line, "clause not terminated by 0")
        tok, value = line_map[0][n_fields + i], ints[i]
        if i == start and tok == "p":
            raise ParseError(start_line, "duplicate header")
        if _int(tok) is None:
            raise ParseError(line(i), f"expected {what}, got {tok!r}")
        if what == "literal":
            raise ParseError(line(i), f"literal {value} outside declared variables 1..{n_vars}")
        if what == "partition label":
            raise ParseError(start_line, f"partition label {value} outside 1..{n_part}")
        if value > top:
            raise ParseError(start_line, f"soft weight {value} exceeds top {top}")
        raise ParseError(start_line, f"clause weight must be >= 1, got {value}")

    # literals are checked per clause against a bound only if a token is past it
    check_hi, check_lo = (max(ints) > n_vars, min(ints) < -n_vars) if n else (False, False)
    hard, hard_labels, soft = [], [], []
    pos = part = n_read = weight_sum = 0
    index = ints.index
    while pos < n:
        start = pos
        if pwcnf:
            part = ints[pos]
            if not 1 <= part <= n_part:
                fail(start, pos, "partition label")
        weight = ints[pos + skip - 1]
        if not 1 <= weight <= top:
            fail(start, pos + skip - 1, "clause weight")
        end = index(0, pos + skip)
        cl = ints[pos + skip : end]
        if cl and ((check_hi and max(cl) > n_vars) or (check_lo and min(cl) < -n_vars)):
            fail(start, next(i for i in range(pos + skip, end) if abs(ints[i]) > n_vars), "literal")
        if end == n:
            fail(start, end, "literal")
        pos = end + 1
        n_read += 1
        if len(cl) > 1 and len(set(map(abs, cl))) < len(cl):
            cl = make_clause(cl)  # drops a repeated literal
            if cl is TAUTOLOGY:
                warnings.warn(
                    f"line {line(start)}: tautological clause dropped", FormatWarning, stacklevel=3
                )
                continue
        if weight == top:
            hard.append(cl)
            hard_labels.append(part)
        else:
            soft.append(SoftClause(cl, weight, part))
            weight_sum += weight
            if weight_sum > MAX_WEIGHT_SUM:
                raise ParseError(line(start), "sum of soft weights exceeds the 64-bit range")
    if n_read != n_clauses:
        # every token is read by now, so the last one's line ends the input
        raise ParseError(line(-1), f"header declares {n_clauses} clauses but {n_read} were read")
    inst = MaxSatInstance(n_vars=n_vars, hard=hard, soft=soft, top=top)
    if pwcnf:
        return PartitionedInstance(base=inst, n_part=n_part, hard_labels=hard_labels)
    return inst


def parse_pwcnf(text) -> PartitionedInstance:
    """Parse pwcnf text or bytes into a PartitionedInstance.

    Raises ParseError (with its line and message) on malformed input;
    emits FormatWarning for dropped tautological clauses.
    """
    return _parse(text, "pwcnf")


def parse_wcnf(text) -> MaxSatInstance:
    """Parse classic DIMACS wcnf; soft partition labels are left unassigned (0)."""
    return _parse(text, "wcnf")


def detect_and_parse(text):
    """Return ("pwcnf", PartitionedInstance) or ("wcnf", MaxSatInstance),
    as the header's format tag says."""
    parsed = _parse(text, None)
    return ("pwcnf" if isinstance(parsed, PartitionedInstance) else "wcnf"), parsed


def write_pwcnf(pinst: PartitionedInstance) -> str:
    """Canonical pwcnf text: header, hard clauses in order, then soft clauses.

    Hard clauses carry their stored advisory labels when present, else 1.
    parse_pwcnf(write_pwcnf(x)) is semantically equal to x.
    """
    base = pinst.base
    for i, s in enumerate(base.soft):
        if s.part == 0:
            raise ValueError(f"soft clause {i} has unassigned partition label")
    pinst.validate()
    n_clauses = len(base.hard) + len(base.soft)
    lines = [f"p pwcnf {base.n_vars} {n_clauses} {base.top} {pinst.n_part}"]
    labels = pinst.hard_labels if pinst.hard_labels is not None else [1] * len(base.hard)
    for lbl, cl in zip(labels, base.hard):
        lines.append(" ".join([str(lbl), str(base.top), *map(str, cl), "0"]))
    for s in base.soft:
        lines.append(" ".join([str(s.part), str(s.weight), *map(str, s.lits), "0"]))
    return "\n".join(lines) + "\n"


def write_solution(result) -> str:
    """Evaluation-style output: cost line, status line, then a model line
    with one literal per original variable."""
    from .maxsat import Status  # local import to avoid a cycle

    if result.status == Status.HARD_UNSAT:
        return "s UNSATISFIABLE\n"
    lines = []
    if result.cost is not None:
        lines.append(f"o {result.cost}")
    lines.append("s OPTIMUM FOUND" if result.status == Status.OPTIMUM else "s UNKNOWN")
    if result.model is not None:
        lits = [str(v if result.model[v] else -v) for v in range(1, len(result.model))]
        lines.append("v " + " ".join(lits))
    return "\n".join(lines) + "\n"
