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

Well-formed input, as writers such as write_pwcnf produce it, is read by a
bulk reader at the speed of bytes.split and int; anything it does not
accept in full goes to the token-cursor parser, which owns every
diagnostic and warning.
"""

from __future__ import annotations

import re
import warnings

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
# a header line the bulk reader takes: the letters of its tag, digits, blanks
_HEADER_BYTES = b"pwcnf0123456789 \t"
_HEADER_FIELDS = {"wcnf": 5, "pwcnf": 6}
# the body the bulk reader takes: no comment, sign other than '-', or line
# break other than CR and LF, so its tokens and their lines are the cursor's
_BODY_BYTES = b"0123456789- \t\r\n"


def _parse(text, fmt: str | None):
    """Parse wcnf or pwcnf; with fmt None, the header's format tag decides."""
    parsed = _parse_bulk(text, fmt)
    return _parse_tokens(text, fmt) if parsed is None else parsed


def _parse_bulk(text, fmt: str | None):
    """The instance _parse_tokens would return without a warning, or None
    when the input is not in the canonical form this reader takes.

    It takes a header alone on the first line, with exactly its fields, then
    clauses of ASCII integers with no comment, '+' sign, repeated variable
    or tautology; every range, count and weight-sum check of _parse_tokens
    holds. Input that fails any check goes to _parse_tokens whole, so the
    diagnostics and warnings are always _parse_tokens'.
    """
    if isinstance(text, str):
        if not text.isascii():
            return None
        text = text.encode("ascii")
    nl = text.find(b"\n")
    if nl < 0:
        return None
    head = text[:nl].removesuffix(b"\r")
    fields = head.split()
    if head.translate(None, _HEADER_BYTES) or len(fields) < 2 or fields[0] != b"p":
        return None
    tag = fields[1].decode()
    fmt = fmt or tag
    if tag != fmt or len(fields) != _HEADER_FIELDS.get(fmt) or not all(
        f.isdigit() for f in fields[2:]
    ):
        return None
    body = text[nl + 1 :]
    if body.translate(None, _BODY_BYTES):
        return None
    try:  # ValueError: a '-' that is not a sign, or more digits than int() converts
        n_vars, n_clauses, top, n_part = map(int, (fields + [b"0"])[2:6])  # wcnf: n_part 0
        ints = tuple(map(int, body.split()))
    except ValueError:
        return None
    pwcnf = fmt == "pwcnf"
    if top < 1 or (pwcnf and n_part < 1):
        return None
    # literals are the only tokens that may be negative; labels and weights
    # are checked per clause, so literals need a check of their own only when
    # a label or weight exceeds n_vars too
    if ints and min(ints) < -n_vars:
        return None
    check_lits = bool(ints) and max(ints) > n_vars
    hard, hard_labels, soft = [], [], []
    n, pos, part, weight_sum = len(ints), 0, 0, 0
    skip = 2 if pwcnf else 1  # label and weight precede the literals
    index = ints.index
    try:
        while pos < n:
            end = index(0, pos + skip)
            if pwcnf:
                part = ints[pos]
                if not 1 <= part <= n_part:
                    return None
            weight = ints[pos + skip - 1]
            cl = ints[pos + skip : end]
            pos = end + 1
            if not 1 <= weight <= top:
                return None
            if len(cl) > 1 and len(set(map(abs, cl))) < len(cl):
                return None  # a repeated literal or a tautology
            if check_lits and cl and max(cl) > n_vars:
                return None
            if weight == top:
                hard.append(cl)
                hard_labels.append(part)
            else:
                soft.append(SoftClause(cl, weight, part))
                weight_sum += weight
    except ValueError:  # a clause without its terminating 0
        return None
    if len(hard) + len(soft) != n_clauses or weight_sum > MAX_WEIGHT_SUM:
        return None
    inst = MaxSatInstance(n_vars=n_vars, hard=hard, soft=soft, top=top)
    if pwcnf:
        return PartitionedInstance(base=inst, n_part=n_part, hard_labels=hard_labels)
    return inst


def _parse_tokens(text, fmt: str | None):
    """The token-cursor parser: any input, every diagnostic and warning."""
    if isinstance(text, (bytes, bytearray)):
        text = text.decode("utf-8", errors="replace")
    toks, lines = [], []  # every non-comment token, and the line it sits on
    for ln, line in enumerate(text.splitlines(), start=1):
        words = line.split()
        if words and not words[0].startswith("c"):
            toks += words
            lines += [ln] * len(words)
    n_toks = len(toks)
    pos = 0

    def take(what: str, line: int, missing: str) -> int:
        """The next token as an int named `what` in its diagnostic;
        ParseError(line, missing) at end of input."""
        nonlocal pos
        if pos == n_toks:
            raise ParseError(line, missing)
        tok = toks[pos]
        pos += 1
        try:
            if _INT.fullmatch(tok):  # int() alone would also read 1_0 and non-ASCII digits
                return int(tok)
        except ValueError:  # more digits than int() converts
            pass
        raise ParseError(lines[pos - 1], f"expected {what}, got {tok!r}")

    if not toks:
        raise ParseError(1, "missing header")
    ln = lines[0]
    if toks[0] != "p":
        raise ParseError(ln, f"missing header: expected 'p', got {toks[0]!r}")
    # the header's fields sit on its line; tokens after them start a clause
    on_header_line = lines[:6].count(ln)
    if on_header_line < 2:
        raise ParseError(ln, "truncated header")
    tag = toks[1]
    if fmt is None:
        if tag not in ("wcnf", "pwcnf"):
            raise ParseError(ln, f"unknown format {tag!r}")
        fmt = tag
    if on_header_line < (6 if fmt == "pwcnf" else 5):
        raise ParseError(ln, "truncated header")
    if tag != fmt:
        raise ParseError(ln, f"expected '{fmt}' header, got {tag!r}")
    pos = 2
    n_vars = take("variable count", ln, "truncated header")
    n_clauses = take("clause count", ln, "truncated header")
    top = take("top weight", ln, "truncated header")
    n_part = take("partition count", ln, "truncated header") if fmt == "pwcnf" else 0
    if n_vars < 0 or n_clauses < 0:
        raise ParseError(ln, "header counts must be nonnegative")
    if top < 1:
        raise ParseError(ln, f"top weight must be >= 1, got {top}")
    if fmt == "pwcnf" and n_part < 1:
        raise ParseError(ln, f"n_part must be >= 1, got {n_part}")

    hard, hard_labels, soft = [], [], []
    clauses_read = 0
    soft_weight_sum = 0
    unterminated = "clause not terminated by 0"
    while pos < n_toks:
        start_line = lines[pos]
        if toks[pos] == "p":
            raise ParseError(start_line, "duplicate header")
        part = 0
        if fmt == "pwcnf":
            part = take("partition label", start_line, unterminated)
            if not 1 <= part <= n_part:
                raise ParseError(start_line, f"partition label {part} outside 1..{n_part}")
        weight = take("clause weight", start_line, unterminated)
        if weight > top:
            raise ParseError(start_line, f"soft weight {weight} exceeds top {top}")
        if weight < 1:
            raise ParseError(start_line, f"clause weight must be >= 1, got {weight}")
        lits = []
        while lit := take("literal", start_line, unterminated):
            if abs(lit) > n_vars:
                raise ParseError(
                    lines[pos - 1], f"literal {lit} outside declared variables 1..{n_vars}"
                )
            lits.append(lit)
        clauses_read += 1
        cl = make_clause(lits)
        if cl is TAUTOLOGY:
            warnings.warn(
                f"line {start_line}: tautological clause dropped", FormatWarning, stacklevel=4
            )
            continue
        if weight == top:
            hard.append(cl)
            hard_labels.append(part)
        else:
            soft.append(SoftClause(cl, weight, part))
            soft_weight_sum += weight
            if soft_weight_sum > MAX_WEIGHT_SUM:
                raise ParseError(start_line, "sum of soft weights exceeds the 64-bit range")
    if clauses_read != n_clauses:
        # every token is read by now, so the last one's line ends the input
        raise ParseError(
            lines[-1], f"header declares {n_clauses} clauses but {clauses_read} were read"
        )
    inst = MaxSatInstance(n_vars=n_vars, hard=hard, soft=soft, top=top)
    if fmt == "pwcnf":
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
