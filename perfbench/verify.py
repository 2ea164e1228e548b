"""Verification gate: a job counts only when its verdict is checked.

The checks use the instance the encoder produced in set-up, not the one the
program parsed, and compute costs here rather than through the package, so
a defect in the parser or in cost bookkeeping cannot vouch for itself.
"""

from __future__ import annotations

from collections import Counter

OPTIMUM = "optimum"
HARD_UNSAT = "hard-unsat"


def lit_true(model, lit) -> bool:
    return model[lit] if lit > 0 else not model[-lit]


def cost_of(inst, model) -> int:
    return sum(s.weight for s in inst.soft if not any(lit_true(model, l) for l in s.lits))


def verdict(rec):
    """The job's verdict as recorded in golden.json: a cost or HARD_UNSAT."""
    return HARD_UNSAT if rec.get("status") == HARD_UNSAT else rec.get("cost")


def expected_text(status, cost, model, n_vars) -> str:
    """Solution text the o/s/v conventions require for this verdict."""
    if status == HARD_UNSAT:
        return "s UNSATISFIABLE\n"
    vals = " ".join(str(v if model[v] else -v) for v in range(1, n_vars + 1))
    return f"o {cost}\ns OPTIMUM FOUND\nv {vals}\n"


class Gate:
    """Collects per-job checks; a job passes when every check on it passed."""

    def __init__(self):
        self.checks = Counter()  # check name -> times made
        self.failures = Counter()  # check name -> times failed
        self.failed_jobs: set = set()
        self.messages: list = []

    def check(self, name, ok, job, detail="") -> bool:
        self.checks[name] += 1
        if not ok:
            self.failures[name] += 1
            self.failed_jobs.add(job)
            if len(self.messages) < 20:
                self.messages.append(f"job {job}: {name} failed {detail}".rstrip())
        return ok

    def job(self, rec, ref) -> None:
        """rec: the job record; ref: the encoder's PartitionedInstance."""
        j = rec["job"]
        if not self.check("completed", rec["error"] is None, j, rec["error"] or ""):
            return
        status, cost, model = rec["status"], rec["cost"], rec["model"]
        if not self.check("verdict", status in (OPTIMUM, HARD_UNSAT), j, status):
            return
        base = ref.base
        if status == OPTIMUM:
            if not self.check("model", model is not None and len(model) > base.n_vars, j):
                return
            hard_ok = all(any(lit_true(model, l) for l in cl) for cl in base.hard)
            self.check("hard-clauses", hard_ok, j)
            got = cost_of(base, model)
            self.check("cost", got == cost, j, f"(model costs {got}, reported {cost})")
        text = expected_text(status, cost, model, base.n_vars)
        self.check("solution-text", rec["text"] == text, j)

    def agreement(self, records) -> None:
        """Every job on one instance reaches the same verdict and cost."""
        by_inst: dict = {}
        for rec in records:
            if rec["error"] is None:
                by_inst.setdefault(rec["instance"], []).append(rec)
        for recs in by_inst.values():
            verdicts = {(r["status"], r["cost"]) for r in recs}
            for r in recs:
                self.check("agreement", len(verdicts) == 1, r["job"], str(sorted(verdicts)))

    def golden(self, records, golden: dict) -> int:
        """Compare with recorded verdicts; returns how many jobs were covered."""
        n = 0
        for rec in records:
            want = golden.get(rec["instance"])
            if want is None or rec["error"] is not None:
                continue
            got = verdict(rec)
            self.check("golden", got == want, rec["job"], f"(want {want}, got {got})")
            n += 1
        return n

    def report(self) -> list:
        lines = [
            f"verify: {name} checked {n}, failed {self.failures[name]}"
            for name, n in sorted(self.checks.items())
        ]
        return lines + [f"verify: {m}" for m in self.messages]
