"""Reading and writing of DIMACS wcnf, the partition-annotated pwcnf
dialect, and evaluation-style solution output.

pwcnf grammar:

    p pwcnf n_vars n_clauses topw n_part
    [part] [weight] [literals*] 0        (one per clause)

Clauses with weight == topw are hard; all others are soft and must have
weight below topw. Partition labels run 1..n_part. Comment lines starting
with 'c' are allowed anywhere, and a clause's tokens may wrap across lines
until the terminating 0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .cnf import (
    MAX_WEIGHT_SUM,
    TAUTOLOGY,
    MaxSatInstance,
    PartitionedInstance,
    SoftClause,
    make_clause,
)


@dataclass(frozen=True)
class ParseDiagnostic:
    line: int
    severity: str  # "error" | "warning"
    message: str

    def __str__(self):
        return f"line {self.line}: {self.message}"


class ParseError(Exception):
    def __init__(self, line: int, message: str):
        self.diagnostic = ParseDiagnostic(line, "error", message)
        super().__init__(str(self.diagnostic))


class FormatWarning(UserWarning):
    pass


def _token_stream(text):
    if isinstance(text, (bytes, bytearray)):
        text = text.decode("utf-8", errors="replace")
    for ln, line in enumerate(text.splitlines(), start=1):
        stripped = line.lstrip()
        if not stripped or stripped.startswith("c"):
            continue
        for tok in stripped.split():
            yield ln, tok


def _int_token(ln: int, tok: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(ln, f"expected {what}, got {tok!r}") from None


def _parse(text, fmt: str | None):
    """Parse wcnf or pwcnf; with fmt None, the header's format tag decides."""
    toks = _token_stream(text)
    try:
        ln, tok = next(toks)
    except StopIteration:
        raise ParseError(1, "missing header") from None
    if tok != "p":
        raise ParseError(ln, f"missing header: expected 'p', got {tok!r}")

    def header_token():
        try:
            return next(toks)
        except StopIteration:
            raise ParseError(ln, "truncated header") from None

    tag_ln, tag = header_token()
    if fmt is None:
        if tag not in ("wcnf", "pwcnf"):
            raise ParseError(tag_ln, f"unknown format {tag!r}")
        fmt = tag
    fields = [header_token() for _ in range(4 if fmt == "pwcnf" else 3)]
    if tag != fmt:
        raise ParseError(tag_ln, f"expected '{fmt}' header, got {tag!r}")
    n_vars = _int_token(*fields[0], "variable count")
    n_clauses = _int_token(*fields[1], "clause count")
    top = _int_token(*fields[2], "top weight")
    n_part = _int_token(*fields[3], "partition count") if fmt == "pwcnf" else 0
    if n_vars < 0 or n_clauses < 0:
        raise ParseError(ln, "header counts must be nonnegative")
    if top < 1:
        raise ParseError(ln, f"top weight must be >= 1, got {top}")
    if fmt == "pwcnf" and n_part < 1:
        raise ParseError(ln, f"n_part must be >= 1, got {n_part}")

    hard, hard_labels, soft = [], [], []
    clauses_read = 0
    soft_weight_sum = 0
    last_line = ln
    while True:
        try:
            ln, tok = next(toks)
        except StopIteration:
            break
        last_line = ln
        if tok == "p":
            raise ParseError(ln, "duplicate header")
        start_line = ln
        if fmt == "pwcnf":
            part = _int_token(ln, tok, "partition label")
            if not 1 <= part <= n_part:
                raise ParseError(ln, f"partition label {part} outside 1..{n_part}")
            try:
                ln, tok = next(toks)
            except StopIteration:
                raise ParseError(start_line, "clause not terminated by 0") from None
            weight = _int_token(ln, tok, "clause weight")
        else:
            part = 0
            weight = _int_token(ln, tok, "clause weight")
        if weight > top:
            raise ParseError(start_line, f"soft weight {weight} exceeds top {top}")
        if weight < 1:
            raise ParseError(start_line, f"clause weight must be >= 1, got {weight}")
        lits = []
        while True:
            try:
                ln, tok = next(toks)
            except StopIteration:
                raise ParseError(start_line, "clause not terminated by 0") from None
            last_line = ln
            lit = _int_token(ln, tok, "literal")
            if lit == 0:
                break
            if abs(lit) > n_vars:
                raise ParseError(ln, f"literal {lit} outside declared variables 1..{n_vars}")
            lits.append(lit)
        clauses_read += 1
        cl = make_clause(lits)
        if cl is TAUTOLOGY:
            warnings.warn(
                f"line {start_line}: tautological clause dropped", FormatWarning, stacklevel=3
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
        raise ParseError(
            last_line, f"header declares {n_clauses} clauses but {clauses_read} were read"
        )
    inst = MaxSatInstance(n_vars=n_vars, hard=hard, soft=soft, top=top)
    if fmt == "pwcnf":
        return PartitionedInstance(base=inst, n_part=n_part, hard_labels=hard_labels)
    return inst


def parse_pwcnf(text) -> PartitionedInstance:
    """Parse pwcnf text or bytes into a PartitionedInstance.

    Raises ParseError (carrying a line-numbered diagnostic) on malformed
    input; emits FormatWarning for dropped tautological clauses.
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


def semantically_equal(a: PartitionedInstance, b: PartitionedInstance) -> bool:
    """Same hard clause set, same (clause, weight, label) soft multiset,
    same variable count and partition count."""
    ka = sorted(sorted(cl) for cl in a.base.hard)
    kb = sorted(sorted(cl) for cl in b.base.hard)
    if ka != kb:
        return False
    sa = sorted((tuple(sorted(s.lits)), s.weight, s.part) for s in a.base.soft)
    sb = sorted((tuple(sorted(s.lits)), s.weight, s.part) for s in b.base.soft)
    return (
        sa == sb
        and a.base.n_vars == b.base.n_vars
        and a.base.top == b.base.top
        and a.n_part == b.n_part
    )


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
