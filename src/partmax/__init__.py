"""Partition-aware MaxSAT toolkit.

Parses and writes the pwcnf format (wcnf extended with per-clause partition
labels), derives soft-clause partitions from graph representations of a
formula, and solves via core-guided algorithms that merge partitions while
carrying solver state.
"""

from .cnf import (
    TAUTOLOGY,
    MaxSatInstance,
    PartitionedInstance,
    SoftClause,
    VarAllocator,
    make_clause,
)
from .formats import ParseError, parse_pwcnf, parse_wcnf, write_pwcnf, write_solution
from .graphs import (
    CommunityAssignment,
    WeightedGraph,
    build_cvig,
    build_res,
    build_vig,
    detect_communities,
    derive_partitions,
    random_partition,
)
from .maxsat import (
    AlgorithmKind,
    SolveResult,
    Status,
    solve_instance,
)
from .sat import SolveOutcome, Solver, SolverTimeout

__all__ = [
    "TAUTOLOGY",
    "MaxSatInstance",
    "PartitionedInstance",
    "SoftClause",
    "VarAllocator",
    "make_clause",
    "ParseError",
    "parse_pwcnf",
    "parse_wcnf",
    "write_pwcnf",
    "write_solution",
    "CommunityAssignment",
    "WeightedGraph",
    "build_cvig",
    "build_res",
    "build_vig",
    "detect_communities",
    "derive_partitions",
    "random_partition",
    "AlgorithmKind",
    "SolveResult",
    "Status",
    "solve_instance",
    "SolveOutcome",
    "Solver",
    "SolverTimeout",
]
