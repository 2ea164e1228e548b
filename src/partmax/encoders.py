"""MaxSAT encoders and random generators for the two benchmark problems.

Minimum-sum coloring: find a proper coloring minimizing the sum of the
1-based color indices over all vertices. One Boolean per (vertex, color);
unit soft clauses against each such variable, weighted by the color index.
User partition schemes group the softs per vertex or per color.

Seating assignment: seat everyone at exactly one table respecting per-table
minimum/maximum occupancy; a table acquires every tag of every person
seated there; minimize the number of (table, tag) pairs in use. Unit soft
clauses against the table-has-tag variables, weight 1. User partition
schemes group the softs per tag or per table.
"""

from __future__ import annotations

import math
import os
import random
import warnings
from dataclasses import dataclass
from enum import Enum

from .cards import encode_at_least_k, encode_at_most_k
from .cnf import MaxSatInstance, PartitionedInstance, SoftClause, VarAllocator
from .formats import write_pwcnf


class SchemeChoice(str, Enum):
    NONE = "none"
    MSC_VERTEX = "vertex"
    MSC_COLOR = "color"
    SEAT_TAGS = "tags"
    SEAT_TABLES = "tables"


@dataclass(frozen=True)
class MscProblem:
    n_vertices: int
    edges: frozenset  # of (u, v) pairs with u < v, 1-based
    n_colors: int

    def __post_init__(self):
        if self.n_colors < 1:
            raise ValueError("need at least one color")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-edge on vertex {u}")
            if not (1 <= u < v <= self.n_vertices):
                raise ValueError(f"edge ({u},{v}) is not normalized or out of range")


@dataclass(frozen=True)
class SeatingProblem:
    person_tags: tuple  # per person: frozenset of tag names
    n_tables: int
    min_per_table: int
    max_per_table: int
    tags: tuple  # the full tag universe, sorted

    def __post_init__(self):
        if self.n_tables < 1:
            raise ValueError("need at least one table")
        if not 0 <= self.min_per_table <= self.max_per_table:
            raise ValueError("need 0 <= min_per_table <= max_per_table")
        universe = set(self.tags)
        for i, ts in enumerate(self.person_tags):
            if not ts <= universe:
                raise ValueError(f"person {i + 1} has tags outside the universe")
        n = len(self.person_tags)
        if not self.n_tables * self.min_per_table <= n <= self.n_tables * self.max_per_table:
            warnings.warn(
                f"{n} persons cannot fill {self.n_tables} tables with "
                f"{self.min_per_table}..{self.max_per_table} seats each; "
                "the hard part will be unsatisfiable",
                stacklevel=2,
            )


def msc_color_var(p: MscProblem, v: int, c: int) -> int:
    """Variable that is true when vertex v (1-based) gets color c (1-based)."""
    return (v - 1) * p.n_colors + c


def encode_msc(p: MscProblem, scheme: SchemeChoice = SchemeChoice.NONE) -> PartitionedInstance:
    if scheme not in (SchemeChoice.NONE, SchemeChoice.MSC_VERTEX, SchemeChoice.MSC_COLOR):
        raise ValueError(f"scheme {scheme.value} does not apply to coloring problems")
    hard = []
    for v in range(1, p.n_vertices + 1):
        hard.append(tuple(msc_color_var(p, v, c) for c in range(1, p.n_colors + 1)))
        for c in range(1, p.n_colors + 1):
            for k in range(c + 1, p.n_colors + 1):
                hard.append((-msc_color_var(p, v, c), -msc_color_var(p, v, k)))
    for u, v in sorted(p.edges):
        for c in range(1, p.n_colors + 1):
            hard.append((-msc_color_var(p, u, c), -msc_color_var(p, v, c)))
    soft = []
    for v in range(1, p.n_vertices + 1):
        for c in range(1, p.n_colors + 1):
            if scheme == SchemeChoice.MSC_VERTEX:
                part = v
            elif scheme == SchemeChoice.MSC_COLOR:
                part = c
            else:
                part = 1
            soft.append(SoftClause((-msc_color_var(p, v, c),), weight=c, part=part))
    n_part = {
        SchemeChoice.NONE: 1,
        SchemeChoice.MSC_VERTEX: p.n_vertices,
        SchemeChoice.MSC_COLOR: p.n_colors,
    }[scheme]
    inst = MaxSatInstance(n_vars=p.n_vertices * p.n_colors, hard=hard, soft=soft)
    return PartitionedInstance(base=inst, n_part=n_part)


def decode_msc(p: MscProblem, model) -> tuple:
    """Color per vertex (1-based colors) from a model."""
    out = []
    for v in range(1, p.n_vertices + 1):
        chosen = [c for c in range(1, p.n_colors + 1) if model[msc_color_var(p, v, c)]]
        if len(chosen) != 1:
            raise ValueError(f"vertex {v} has {len(chosen)} colors in the model")
        out.append(chosen[0])
    return tuple(out)


def seat_tag_var(p: SeatingProblem, t: int, g: str) -> int:
    """Variable that is true when table t (1-based) carries tag g."""
    return (t - 1) * len(p.tags) + p.tags.index(g) + 1


def seat_person_var(p: SeatingProblem, t: int, i: int) -> int:
    """Variable that is true when person i (1-based) sits at table t."""
    n_y = p.n_tables * len(p.tags)
    return n_y + (t - 1) * len(p.person_tags) + i


def encode_seating(
    p: SeatingProblem, scheme: SchemeChoice = SchemeChoice.NONE
) -> PartitionedInstance:
    if scheme not in (SchemeChoice.NONE, SchemeChoice.SEAT_TAGS, SchemeChoice.SEAT_TABLES):
        raise ValueError(f"scheme {scheme.value} does not apply to seating problems")
    n_persons = len(p.person_tags)
    alloc = VarAllocator(p.n_tables * len(p.tags) + p.n_tables * n_persons)
    hard = []
    for t in range(1, p.n_tables + 1):
        seats = [seat_person_var(p, t, i) for i in range(1, n_persons + 1)]
        hard.extend(encode_at_most_k(seats, p.max_per_table, alloc))
        hard.extend(encode_at_least_k(seats, p.min_per_table, alloc))
    for i in range(1, n_persons + 1):
        tables = [seat_person_var(p, t, i) for t in range(1, p.n_tables + 1)]
        hard.append(tuple(tables))
        for a in range(len(tables)):
            for b in range(a + 1, len(tables)):
                hard.append((-tables[a], -tables[b]))
    for t in range(1, p.n_tables + 1):
        for i, ts in enumerate(p.person_tags, start=1):
            for g in sorted(ts):
                hard.append((-seat_person_var(p, t, i), seat_tag_var(p, t, g)))
    soft = []
    for t in range(1, p.n_tables + 1):
        for g in p.tags:
            if scheme == SchemeChoice.SEAT_TAGS:
                part = p.tags.index(g) + 1
            elif scheme == SchemeChoice.SEAT_TABLES:
                part = t
            else:
                part = 1
            soft.append(SoftClause((-seat_tag_var(p, t, g),), weight=1, part=part))
    n_part = {
        SchemeChoice.NONE: 1,
        SchemeChoice.SEAT_TAGS: len(p.tags),
        SchemeChoice.SEAT_TABLES: p.n_tables,
    }[scheme]
    inst = MaxSatInstance(n_vars=alloc.top, hard=hard, soft=soft)
    return PartitionedInstance(base=inst, n_part=n_part)


def decode_seating(p: SeatingProblem, model) -> tuple:
    """Table per person (1-based) from a model."""
    out = []
    for i in range(1, len(p.person_tags) + 1):
        chosen = [t for t in range(1, p.n_tables + 1) if model[seat_person_var(p, t, i)]]
        if len(chosen) != 1:
            raise ValueError(f"person {i} sits at {len(chosen)} tables in the model")
        out.append(chosen[0])
    return tuple(out)


# ------------------------------------------------------------- generators


def _check_ranges(cfg, bounds: dict) -> None:
    """Each key k names the field pair min_k/max_k of cfg and maps to the
    (least, most) values both may take. Raises ValueError naming the field
    that leaves its bounds or its pair empty."""
    for key, (least, most) in bounds.items():
        lo, hi = getattr(cfg, f"min_{key}"), getattr(cfg, f"max_{key}")
        for name, x in ((f"min_{key}", lo), (f"max_{key}", hi)):
            if not least <= x <= most:
                want = f"at least {least}" if most == math.inf else f"in [{least}, {most}]"
                raise ValueError(f"{name} must be {want}, got {x}")
        if lo > hi:
            raise ValueError(f"min_{key} ({lo}) exceeds max_{key} ({hi})")


@dataclass(frozen=True)
class MscGenConfig:
    min_vertices: int = 10
    max_vertices: int = 60
    min_density: float = 0.1
    max_density: float = 0.5
    min_colors: int = 3
    max_colors: int = 8

    def __post_init__(self):
        _check_ranges(self, {"vertices": (1, math.inf), "density": (0, 1), "colors": (1, math.inf)})


@dataclass(frozen=True)
class SeatingGenConfig:
    min_persons: int = 8
    max_persons: int = 40
    min_tables: int = 2
    max_tables: int = 6
    min_tag_universe: int = 3
    max_tag_universe: int = 10
    min_tags_per_person: int = 1
    max_tags_per_person: int = 3

    def __post_init__(self):
        _check_ranges(self, {
            "persons": (1, math.inf), "tables": (1, math.inf),
            "tag_universe": (1, math.inf),
            "tags_per_person": (0, math.inf),  # a person may have no tags
        })
        # every drawn universe must hold a person's fewest tags
        if self.min_tags_per_person > self.min_tag_universe:
            raise ValueError(
                f"min_tags_per_person ({self.min_tags_per_person}) exceeds "
                f"min_tag_universe ({self.min_tag_universe})"
            )


def gen_msc(cfg: MscGenConfig, seed: int) -> MscProblem:
    """Random coloring instance: uniform vertex/color counts, independent
    edge sampling at a uniform density. Deterministic per seed."""
    rng = random.Random(seed)
    n = rng.randint(cfg.min_vertices, cfg.max_vertices)
    density = rng.uniform(cfg.min_density, cfg.max_density)
    colors = rng.randint(cfg.min_colors, cfg.max_colors)
    edges = set()
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if rng.random() < density:
                edges.add((u, v))
    return MscProblem(n_vertices=n, edges=frozenset(edges), n_colors=colors)


def gen_seating(cfg: SeatingGenConfig, seed: int) -> SeatingProblem:
    """Random seating instance; per-table occupancy bounds are derived from
    the person/table counts so the hard part stays satisfiable."""
    rng = random.Random(seed)
    n_persons = rng.randint(cfg.min_persons, cfg.max_persons)
    n_tables = rng.randint(cfg.min_tables, cfg.max_tables)
    n_tags = rng.randint(cfg.min_tag_universe, cfg.max_tag_universe)
    tags = tuple(f"g{k}" for k in range(1, n_tags + 1))
    person_tags = []
    for _ in range(n_persons):
        k = rng.randint(cfg.min_tags_per_person, min(cfg.max_tags_per_person, n_tags))
        person_tags.append(frozenset(rng.sample(tags, k)))
    lo = len(person_tags) // (2 * n_tables)
    hi = -(-2 * len(person_tags) // n_tables)  # ceil
    return SeatingProblem(
        person_tags=tuple(person_tags),
        n_tables=n_tables,
        min_per_table=lo,
        max_per_table=hi,
        tags=tags,
    )


def generate_corpus(kind, cfg, count, scheme, seed, out_dir):
    """Write `count` encoded pwcnf files plus a key=value manifest recording
    the seed and parameters of every instance, for exact reproducibility."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = [f"kind={kind}", f"count={count}", f"seed={seed}", f"scheme={scheme.value}"]
    paths = []
    for i in range(count):
        inst_seed = seed + i
        name = f"{kind}_{i:04d}.pwcnf"
        if kind == "msc":
            prob = gen_msc(cfg, inst_seed)
            pinst = encode_msc(prob, scheme)
            extra = [
                f"vertices={prob.n_vertices}",
                f"edges={len(prob.edges)}",
                f"colors={prob.n_colors}",
            ]
        elif kind == "seating":
            prob = gen_seating(cfg, inst_seed)
            pinst = encode_seating(prob, scheme)
            extra = [
                f"persons={len(prob.person_tags)}",
                f"tables={prob.n_tables}",
                f"tags={len(prob.tags)}",
                f"min_per_table={prob.min_per_table}",
                f"max_per_table={prob.max_per_table}",
            ]
        else:
            raise ValueError(f"unknown problem kind {kind!r}")
        path = os.path.join(out_dir, name)
        with open(path, "w") as fh:
            fh.write(write_pwcnf(pinst))
        manifest.append("")
        manifest.append(f"instance={name}")
        manifest.append(f"instance_seed={inst_seed}")
        manifest.extend(extra)
        paths.append(path)
    with open(os.path.join(out_dir, "manifest.txt"), "w") as fh:
        fh.write("\n".join(manifest) + "\n")
    return paths
