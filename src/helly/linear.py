"""Equation taxonomy, subsystem feasibility, and smallest-certificate search.

The guarantee this module turns into executable form: for a system of
nondegenerate linear equations in ``k`` unknowns, if every subsystem of
``k + 1`` equations is consistent then the whole system is. Its
contrapositive bounds certificates: an inconsistent nondegenerate system
always contains an inconsistent subsystem of at most ``k + 1`` equations.

``helly_certify`` decides global consistency directly by rank comparison
and uses the bound only to cut off its search for a smallest inconsistent
subsystem. If the search ever ran past ``k + 1`` without a hit on an
inconsistent nondegenerate system, the guarantee itself would be false;
that case aborts loudly instead of degrading.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence, Union

from .errors import InvariantViolation
from .exactq import AffineSolutionSet, Rat, RatMatrix, bareiss, solve_affine

SAMPLING_GENERATOR = "python-mersenne-twister"


class EquationClass(Enum):
    NONDEGENERATE_CONSISTENT = "nondegenerate-consistent"
    DEGENERATE_CONSISTENT = "degenerate-consistent"
    DEGENERATE_INCONSISTENT = "degenerate-inconsistent"


@dataclass(frozen=True)
class Equation:
    """One linear equation ``coeffs . x = rhs``."""

    coeffs: tuple[Rat, ...]
    rhs: Rat


def equation(coeffs: Sequence[Rat | int], rhs: Rat | int) -> Equation:
    return Equation(tuple(Fraction(c) for c in coeffs), Fraction(rhs))


def classify(eq: Equation) -> EquationClass:
    """Degenerate means every unknown coefficient is zero; such an
    equation is consistent exactly when its right side is zero too."""
    if any(c != 0 for c in eq.coeffs):
        return EquationClass.NONDEGENERATE_CONSISTENT
    if eq.rhs == 0:
        return EquationClass.DEGENERATE_CONSISTENT
    return EquationClass.DEGENERATE_INCONSISTENT


@dataclass(frozen=True)
class LinearSystem:
    """An ordered list of equations over a fixed set of unknowns."""

    unknowns: int
    equations: tuple[Equation, ...]

    def __post_init__(self) -> None:
        if self.unknowns < 0:
            raise ValueError("unknown count must be nonnegative")
        for eq in self.equations:
            if len(eq.coeffs) != self.unknowns:
                raise ValueError("all equations must have exactly one coefficient per unknown")

    @property
    def n(self) -> int:
        return len(self.equations)

    def satisfied_by(self, point: Sequence[Rat | int]) -> bool:
        if len(point) != self.unknowns:
            raise ValueError("dimension mismatch")
        pt = [Fraction(p) for p in point]
        return all(
            sum(c * x for c, x in zip(eq.coeffs, pt)) == eq.rhs for eq in self.equations
        )


def linear_system(rows: Sequence[Sequence[Rat | int]], rhs: Sequence[Rat | int]) -> LinearSystem:
    if len(rows) != len(rhs):
        raise ValueError("one right-hand side per row required")
    k = len(rows[0]) if rows else 0
    return LinearSystem(k, tuple(equation(r, b) for r, b in zip(rows, rhs)))


def witness_satisfies(system: LinearSystem, witness: AffineSolutionSet) -> bool:
    """Every element of the witness set must solve every equation exactly."""
    if witness.unknowns != system.unknowns or not system.satisfied_by(witness.point):
        return False
    for eq in system.equations:
        for vec in witness.basis:
            if sum(c * x for c, x in zip(eq.coeffs, vec)) != 0:
                return False
    return True


def _consistent(aug_rows: Sequence[Sequence[Rat]], k: int) -> bool:
    """Rank comparison in one pass: eliminate on the coefficient columns
    only, then look for a leftover row reading 0 = nonzero."""
    a, pivots = bareiss(aug_rows, k)
    return all(row[k] == 0 for row in a[len(pivots):])


def _augmented_rows(system: LinearSystem) -> list[tuple[Rat, ...]]:
    return [eq.coeffs + (eq.rhs,) for eq in system.equations]


def _validated_indices(system: LinearSystem, indices: Iterable[int]) -> tuple[int, ...]:
    idx = sorted(set(indices))
    for i in idx:
        if not isinstance(i, int) or i < 0 or i >= system.n:
            raise ValueError(f"equation index {i!r} out of range for system of {system.n}")
    return tuple(idx)


def check_subsystem(system: LinearSystem, indices: Iterable[int]) -> AffineSolutionSet | None:
    """Exact consistency verdict for the selected equations.

    Returns the full solution set (deterministic witness) when the
    subsystem is consistent, ``None`` when it is not. The empty selection
    is consistent with the whole space as witness.
    """
    eqs = [system.equations[i] for i in _validated_indices(system, indices)]
    m = RatMatrix(len(eqs), system.unknowns, tuple(c for eq in eqs for c in eq.coeffs))
    return solve_affine(m, tuple(eq.rhs for eq in eqs))


def all_subsystems_consistent(system: LinearSystem, size: int) -> tuple[int, ...] | None:
    """Scan every ``size``-subset in lexicographic order.

    Returns ``None`` when all are consistent, else the lexicographically
    first inconsistent index set.
    """
    if size < 0 or size > system.n:
        raise ValueError("subsystem size must be between 0 and the equation count")
    aug = _augmented_rows(system)
    for idx in combinations(range(system.n), size):
        if not _consistent([aug[i] for i in idx], system.unknowns):
            return idx
    return None


@dataclass(frozen=True)
class Consistent:
    witness: AffineSolutionSet


@dataclass(frozen=True)
class Inconsistent:
    subsystem: tuple[int, ...]


HellyCertificate = Union[Consistent, Inconsistent]


def helly_certify(system: LinearSystem) -> HellyCertificate:
    """Global verdict with a checkable certificate either way.

    Consistent systems get their full solution set. Inconsistent systems
    get a minimum-cardinality inconsistent subsystem, found by searching
    sizes 1, 2, ..., k+1 in increasing size then lexicographic order. A
    degenerate equation ``0 = c`` with ``c != 0`` is itself a size-1
    certificate; ``0 = 0`` rows are inert and never appear in one.
    """
    witness = check_subsystem(system, range(system.n))
    if witness is not None:
        if not witness_satisfies(system, witness):
            raise InvariantViolation("computed witness fails to satisfy the system")
        return Consistent(witness)
    bound = min(system.unknowns + 1, system.n)
    for size in range(1, bound + 1):
        idx = all_subsystems_consistent(system, size)
        if idx is not None:
            return Inconsistent(idx)
    raise InvariantViolation(
        "inconsistent system with no inconsistent subsystem of size <= k+1; "
        "this contradicts the certification bound and indicates a bug"
    )


@dataclass(frozen=True)
class SamplingReport:
    """Outcome of randomized subsystem sampling, replayable from the seed."""

    samples_drawn: int
    subsystem_size: int
    inconsistent_samples: int
    first_hit: tuple[int, ...] | None
    seed: int
    generator: str = SAMPLING_GENERATOR


def sample_consistency(system: LinearSystem, size: int, trials: int, seed: int) -> SamplingReport:
    """Draw uniform random ``size``-subsets and test each for consistency.

    A deterministic generator seeded by ``seed`` drives the draws, so a
    report is reproducible bit for bit from its own fields.
    """
    if size < 0 or size > system.n:
        raise ValueError("subsystem size must be between 0 and the equation count")
    if trials < 1:
        raise ValueError("at least one trial required")
    rng = random.Random(seed)
    aug = _augmented_rows(system)
    bad = 0
    first_hit: tuple[int, ...] | None = None
    for _ in range(trials):
        idx = tuple(sorted(rng.sample(range(system.n), size)))
        if not _consistent([aug[i] for i in idx], system.unknowns):
            bad += 1
            if first_hit is None:
                first_hit = idx
    return SamplingReport(trials, size, bad, first_hit, seed)
