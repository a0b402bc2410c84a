"""Independent brute-force oracles for property tests.

Nothing here shares an elimination routine or a membership test with the
production modules; a correlated bug would defeat the point of checking
one against the other. One plain forward rational elimination serves
both the rank and the consistency oracle; the rest is exhaustive scans,
gated to desk-scale sizes. The command line also re-checks every
inconsistent certificate with ``is_minimal_inconsistent`` before it
prints one.

The disk oracles share only the pair classifier ``pair_relation`` with
``helly.disks``. They own the rational formulas for a lens corner
(``_lens_corners``) and for the side of a point against a disk
(``inside``), both on the ``QuadVal`` views of a point, as references
for the production kernel rather than a second path through it. The
command line re-checks a common point with ``inside`` against every
disk, and a violating triple with ``lowest_common_point``, before it
prints either.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .disks import Disk, PairKind, pair_relation
from .linear import LinearSystem
from .radicals import QuadPoint, qcmp, qpoint, quadpoint, quadval, sign_of, sign_one


def _forward(rows: list[list[Fraction]], ncols: int) -> int:
    """Forward rational elimination in place on the first ``ncols``
    columns; returns the pivot count. Rows below it are zero there."""
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        for row in rows[r + 1 :]:
            if row[c] != 0:
                f = Fraction(row[c]) / top[c]
                row[c:] = [x - f * y for x, y in zip(row[c:], top[c:])]
        r += 1
    return r


def naive_rank(rows: Sequence[Sequence[Fraction | int]]) -> int:
    """Rank as the pivot count of plain rational forward elimination."""
    return _forward([[Fraction(x) for x in row] for row in rows], len(rows[0]) if rows else 0)


def _oracle_consistent(system: LinearSystem, indices: Sequence[int]) -> bool:
    """Consistency by one forward elimination of the augmented rows.

    Pivots come from the coefficient columns only, so the system is
    inconsistent exactly when a leftover row reads 0 = nonzero.
    """
    k = system.unknowns
    rows = [[*system.equations[i].coeffs, system.equations[i].rhs] for i in indices]
    r = _forward(rows, k)
    return all(row[k] == 0 for row in rows[r:])


def is_minimal_inconsistent(system: LinearSystem, indices: Sequence[int]) -> bool:
    """True when the selected equations are inconsistent and dropping any
    one of them leaves a consistent subsystem, by ``_forward`` alone."""
    idx = tuple(indices)
    if any(not 0 <= i < system.n for i in idx) or _oracle_consistent(system, idx):
        return False
    return all(_oracle_consistent(system, idx[:i] + idx[i + 1 :]) for i in range(len(idx)))


def exhaustive_min_inconsistent(system: LinearSystem) -> tuple[int, ...] | None:
    """First inconsistent subset in size-then-lexicographic order, or None.

    Exponential by design; refuses systems with more than 14 equations.
    """
    if system.n > 14:
        raise ValueError("exhaustive search is gated to systems of at most 14 equations")
    for size in range(1, system.n + 1):
        for idx in combinations(range(system.n), size):
            if not _oracle_consistent(system, idx):
                return idx
    return None


@dataclass(frozen=True)
class GridSpec:
    """Rational sampling grid over a box: resolution subdivisions per axis."""

    x0: Fraction
    y0: Fraction
    x1: Fraction
    y1: Fraction
    resolution: int

    def __post_init__(self) -> None:
        if self.resolution < 1:
            raise ValueError("resolution must be at least 1")
        if self.x1 < self.x0 or self.y1 < self.y0:
            raise ValueError("box must be nonempty")

    def points(self):
        dx = (self.x1 - self.x0) / self.resolution
        dy = (self.y1 - self.y0) / self.resolution
        for i in range(self.resolution + 1):
            x = self.x0 + i * dx
            for j in range(self.resolution + 1):
                yield x, self.y0 + j * dy


def grid_meet_oracle(family: Sequence[Disk], grid: GridSpec) -> tuple[Fraction, Fraction] | None:
    """First grid point inside every disk, scanning x-major.

    One-sided: a found point certifies the family meets; an empty scan
    certifies nothing.
    """
    for x, y in grid.points():
        hit = True
        for d in family:
            ddx, ddy = x - d.x, y - d.y
            if ddx * ddx + ddy * ddy > d.r * d.r:
                hit = False
                break
        if hit:
            return (x, y)
    return None


def inside(p: QuadPoint, d: Disk) -> bool:
    """Is p in the closed disk d? The coordinates share one radicand e,
    so with u = p - center written as (ux + bx*sqrt(e), uy + by*sqrt(e)),
    the power |u|^2 - r^2 is A + B*sqrt(e) with A = ux^2 + uy^2 +
    (bx^2 + by^2)*e - r^2 and B = 2*(ux*bx + uy*by): one rational
    ``sign_one``."""
    x, y = p.x, p.y
    ux, uy = x.a - d.x, y.a - d.y
    a = ux * ux + uy * uy - d.r * d.r
    e = x.d or y.d
    if not e:
        return sign_of(a) <= 0
    return sign_one(a + (x.b * x.b + y.b * y.b) * e, 2 * (ux * x.b + uy * y.b), e) <= 0


def _lens_corners(a: Disk, b: Disk) -> tuple[QuadPoint, QuadPoint]:
    """The two points where the circles of a met pair cross or touch, in
    rational arithmetic: the foot of the chord on the line of centres,
    plus or minus the half chord along the normal."""
    dx, dy = b.x - a.x, b.y - a.y
    d2 = dx * dx + dy * dy
    t = (d2 + a.r * a.r - b.r * b.r) / (2 * d2)
    mx, my = a.x + t * dx, a.y + t * dy
    s2 = (a.r * a.r - t * t * d2) / d2  # squared ratio half-chord / center gap
    low = quadpoint(quadval(mx, dy, s2), quadval(my, -dx, s2))
    high = quadpoint(quadval(mx, -dy, s2), quadval(my, dx, s2))
    return low, high


def lowest_common_point(family: Sequence[Disk]) -> QuadPoint | None:
    """Lowest point common to every disk (least y, then least x), or None.

    O(n^3) brute force. The lowest point of the intersection is the bottom
    of a disk or a point where two circles cross or touch externally (at a
    point where the circles only touch from inside, the innermost disk is
    the intersection nearby, so the point is its bottom). So it is the
    lowest of those candidates that lies in every disk.
    """
    candidates = [qpoint(d.x, d.y - d.r) for d in family]
    for a, b in combinations(family, 2):
        if pair_relation(a, b).kind in (PairKind.PROPER_LENS, PairKind.EXTERNAL_OSCULATION):
            candidates.extend(_lens_corners(a, b))
    best = None
    for p in candidates:
        if all(inside(p, d) for d in family) and (
            best is None or (qcmp(p.y, best.y), qcmp(p.x, best.x)) < (0, 0)
        ):
            best = p
    return best
