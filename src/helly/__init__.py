"""Exact feasibility certificates for overdetermined linear systems and
planar disk families.

Everything decision-like runs over exact rationals (plus exact sign tests
in quadratic extensions for circle intersections); no predicate ever
consumes a float or an epsilon.
"""

from .errors import InvariantViolation
from .exactq import AffineSolutionSet, rank, solve_affine
from .linear import (
    Consistent,
    Equation,
    EquationClass,
    HellyCertificate,
    Inconsistent,
    LinearSystem,
    SamplingReport,
    all_subsystems_consistent,
    check_subsystem,
    classify,
    helly_certify,
    linear_system,
    sample_consistency,
    witness_satisfies,
)
from .disks import (
    Arc,
    ArcRegion,
    CommonPoint,
    Disk,
    PairKind,
    PairRelation,
    RegionKind,
    ViolatingTriple,
    disk,
    disk_side,
    in_disk,
    intersect_region,
    minimalist_helly_check,
    pair_relation,
    triple_meet,
)
from .separation import (
    ArcInterior,
    ClosestPairResult,
    Corner,
    SeparatingLine,
    closest_pair,
    separating_line,
)
from .radicals import QuadPoint, QuadVal, qpoint, same_point

__version__ = "0.1.0"

__all__ = [
    "AffineSolutionSet",
    "Arc",
    "ArcInterior",
    "ArcRegion",
    "ClosestPairResult",
    "CommonPoint",
    "Consistent",
    "Corner",
    "Disk",
    "Equation",
    "EquationClass",
    "HellyCertificate",
    "Inconsistent",
    "InvariantViolation",
    "LinearSystem",
    "PairKind",
    "PairRelation",
    "QuadPoint",
    "QuadVal",
    "RegionKind",
    "SamplingReport",
    "SeparatingLine",
    "ViolatingTriple",
    "all_subsystems_consistent",
    "check_subsystem",
    "classify",
    "closest_pair",
    "disk",
    "disk_side",
    "helly_certify",
    "in_disk",
    "intersect_region",
    "linear_system",
    "minimalist_helly_check",
    "pair_relation",
    "qpoint",
    "rank",
    "same_point",
    "sample_consistency",
    "separating_line",
    "solve_affine",
    "triple_meet",
    "witness_satisfies",
]
