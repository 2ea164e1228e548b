"""The benchmark's three workloads and why each exists.

BENCHMARK.json gates seating-graph and seating-trend. msc-weighted runs the
same way and is kept for traced runs of the weighted case, but it is not
gated: its jobs_per_s spread by 12-25% of the median across ten seeds.

Every workload is a seeded draw of generated instances. The benchmark turns
the draw into pwcnf bytes during set-up; the program under test only ever
sees those bytes. Each instance is solved once per (algorithm, strategy)
pair of the workload's matrix, instance by instance.

Layer names follow the package's modules: formats, graphs, cards, sat,
maxsat, encoders.
"""

from __future__ import annotations

from dataclasses import dataclass

# Highest instance index a corpus may use; instance seeds are
# seed * SEED_STRIDE + index, so draws of different seeds never overlap.
SEED_STRIDE = 1000


def _strata(**axes) -> tuple:
    """Every combination of the given generator settings, each pinned to
    one value. Instance i is drawn with combination i mod len, so every seed
    runs the same mix of sizes and only the random structure changes; this
    keeps seed-to-seed spread of the metrics small."""
    combos = [{}]
    for key, values in axes.items():
        combos = [{**c, **_pin(key, v)} for c in combos for v in values]
    return tuple(combos)


def _pin(key, value) -> dict:
    return {f"min_{key}": value, f"max_{key}": value}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    family: str  # "msc" or "seating": which generator and encoder to use
    gen: dict  # keyword arguments of MscGenConfig / SeatingGenConfig
    strata: tuple  # per-instance overrides of gen, taken in turn
    scheme: str  # SchemeChoice value that sets the user partitions
    matrix: tuple  # (algorithm, strategy) pairs run on every instance
    corpus_size: int  # instances made in set-up, a multiple of len(strata); the loop wraps
    job_budget_s: float  # per-job solver budget; hitting it is a failure
    tail_pct: float  # job_tail_s percentile; a run of today's code has >= 10 jobs beyond it
    exercises: tuple  # layers whose spans must fire in the traced run
    bypasses: tuple  # layers whose spans must read exactly zero

    def __post_init__(self):
        if self.corpus_size % len(self.strata):
            raise ValueError(f"{self.name}: corpus_size is not a multiple of len(strata)")


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="msc-weighted",
            why=(
                "SAT-bound weighted search: minimum-sum colouring, where msu3's "
                "weighted totalizer and oll's per-core totalizers feed the SAT "
                "search; no graph partitioning"
            ),
            family="msc",
            gen={},
            # 9 vertices with 5 colours is left out: its msu3 jobs take 3-4 s,
            # and one such instance moves a run's throughput by about 15%.
            # Density 0.45 is kept only for 8 vertices with 4 colours: at 9
            # vertices, or with 5 colours, single instances took 1.2-2.6 s
            # over their four jobs, and the runs' jobs_per_s then spread by
            # 11% of its median across five seeds.
            # The last two strata are dense enough to be non-4-colourable
            # almost always, so every run checks hard-UNSAT agreement on a
            # fixed share of its instances.
            strata=(
                _strata(vertices=(8, 9), density=(0.3,), colors=(4,))
                + _strata(vertices=(8,), density=(0.45,), colors=(4,))
                + _strata(vertices=(8,), density=(0.3,), colors=(5,))
                + _strata(vertices=(8, 9), density=(0.9,), colors=(4,))
            ),
            scheme="vertex",
            matrix=(("oll", "user"), ("oll", "none"), ("msu3", "user"), ("msu3", "none")),
            corpus_size=402,
            job_budget_s=60.0,
            tail_pct=90,
            exercises=("formats", "cards", "sat", "maxsat"),
            bypasses=("graphs",),
        ),
        Workload(
            name="seating-graph",
            why=(
                "graph-bound: seating instances partitioned from vig, cvig and res "
                "graphs, where graph build and community detection cost more than "
                "the solve"
            ),
            family="seating",
            gen=dict(min_tags_per_person=1, max_tags_per_person=2),
            # four tables are left out: some oll solves on them take 2-3 s and
            # 40 MB, which makes peak_rss_mb depend on the seed. Person counts
            # are adjacent so that the latencies of the nine (size, graph)
            # pairs overlap: with 14/16/18 persons the median job fell in a
            # gap between them and job_p50_s moved with each seed's draw.
            strata=_strata(persons=(15, 16, 17), tables=(3,), tag_universe=(4,)),
            scheme="tables",
            matrix=(("oll", "vig"), ("oll", "cvig"), ("oll", "res")),
            corpus_size=42,
            job_budget_s=60.0,
            tail_pct=70,
            exercises=("formats", "graphs", "sat", "maxsat"),
            bypasses=(),
        ),
        Workload(
            name="seating-trend",
            why=(
                "the paper's partitioned-versus-whole experiment at desk scale: "
                "hundreds of short jobs of about ten incremental SAT calls each, "
                "user partitions against the whole instance"
            ),
            family="seating",
            # the generator settings of acceptance criterion 8
            gen=dict(
                min_tables=3, max_tables=3,
                min_tag_universe=4, max_tag_universe=5,
                min_tags_per_person=1, max_tags_per_person=2,
            ),
            strata=_strata(persons=(10, 11, 12, 13, 14)),
            scheme="tables",
            matrix=(
                ("msu3", "user"), ("msu3", "none"),
                ("oll", "user"), ("oll", "none"),
            ),
            corpus_size=250,
            job_budget_s=60.0,
            tail_pct=90,
            # msu3 builds a unit-weight totalizer here, so the cards layer is
            # measured on a gated workload too
            exercises=("formats", "cards", "sat", "maxsat"),
            bypasses=("graphs",),
        ),
    )
}
