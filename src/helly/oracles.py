"""Independent brute-force oracles for property tests.

Nothing here shares an elimination routine or a membership test with the
production modules; a correlated bug would defeat the point of checking
one against the other. One plain forward elimination in integers, by
cross-multiplication with each new row divided by the gcd of its entries
(``_forward``), serves both the rank and the consistency oracle; the
rest is exhaustive scans, gated to desk-scale sizes. Each equation is
scaled here from its ``coeffs`` and ``rhs`` (``_integers``), never read
as the integer row an ``Equation`` keeps. The command line also
re-checks every inconsistent certificate with
``is_minimal_inconsistent`` before it prints one.

The disk oracles share only the pair classifier ``pair_relation``, of
which they read only the ``kind``, and the sign tests ``sign_one`` and
``qcmp`` with the kernel. They scale each disk to integers themselves
(``_scale``), from its rational centre and radius rather than the
(X, Y, R, M) it keeps, and own the integer formulas for a lens corner
(``_lens_corners``) and for the side of a point against a disk
(``_side``, behind ``inside``), as references for the production kernel
rather than a second path through it. The command line re-checks a
common point with ``inside`` against every disk, and a violating triple
with ``lowest_common_point``, before it prints either.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import Sequence

from .disks import Disk, PairKind, pair_relation
from .linear import LinearSystem
from .radicals import QuadPoint, qcmp, sign_one
from .records import Record


def _integers(row: Sequence[Fraction | int]) -> list[int]:
    """A row of rationals times the lcm of its denominators."""
    m = lcm(*(x.denominator for x in row))
    return [x.numerator * (m // x.denominator) for x in row]


def _forward(rows: list[list[int]], ncols: int) -> int:
    """Forward integer elimination on the first ``ncols`` columns; returns
    the pivot count. Rows below it are zero there.

    A row is reduced by cross-multiplication, pivot times row minus entry
    times pivot row, and then divided by the gcd of its entries. Rows are
    replaced, never changed in place, so callers may pass a fresh list of
    shared rows.
    """
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        p = top[c]
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            if f:
                row = [p * x - f * y for x, y in zip(rows[i], top)]
                g = gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row
        r += 1
    return r


def naive_rank(rows: Sequence[Sequence[Fraction | int]]) -> int:
    """Rank as the pivot count of plain integer forward elimination."""
    return _forward([_integers(row) for row in rows], len(rows[0]) if rows else 0)


def _augmented(system: LinearSystem, indices: Sequence[int]) -> list[list[int]]:
    return [_integers([*system.equations[i].coeffs, system.equations[i].rhs]) for i in indices]


def _consistent(rows: list[list[int]], k: int) -> bool:
    """Consistency of augmented rows in k unknowns by one forward
    elimination. Pivots come from the coefficient columns only, so the
    rows are inconsistent exactly when a leftover row reads 0 = nonzero."""
    r = _forward(rows, k)
    return all(row[k] == 0 for row in rows[r:])


def _oracle_consistent(system: LinearSystem, indices: Sequence[int]) -> bool:
    """Consistency of the selected equations."""
    return _consistent(_augmented(system, indices), system.unknowns)


def is_minimal_inconsistent(system: LinearSystem, indices: Sequence[int]) -> bool:
    """True when the selected equations are inconsistent and dropping any
    one of them leaves a consistent subsystem, by ``_forward`` alone. The
    rows are scaled to integers once and each subset is eliminated from a
    fresh list of them."""
    idx = tuple(indices)
    if any(not 0 <= i < system.n for i in idx):
        return False
    rows, k = _augmented(system, idx), system.unknowns
    if _consistent(list(rows), k):
        return False
    return all(_consistent(rows[:i] + rows[i + 1 :], k) for i in range(len(rows)))


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


class GridSpec(Record):
    """Rational sampling grid over a box: resolution subdivisions per axis."""

    x0: Fraction
    y0: Fraction
    x1: Fraction
    y1: Fraction
    resolution: int

    def __init__(self, x0: Fraction, y0: Fraction, x1: Fraction, y1: Fraction, resolution: int) -> None:
        if resolution < 1:
            raise ValueError("resolution must be at least 1")
        if x1 < x0 or y1 < y0:
            raise ValueError("box must be nonempty")
        vars(self).update(x0=x0, y0=y0, x1=x1, y1=y1, resolution=resolution)

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


def _scale(d: Disk) -> tuple[int, int, int, int]:
    """d over one denominator m, the lcm of its three: (x, y, r, m) with
    centre (x/m, y/m) and radius r/m."""
    (xn, xd), (yn, yd), (rn, rd) = d.x.as_integer_ratio(), d.y.as_integer_ratio(), d.r.as_integer_ratio()
    m = lcm(xd, yd, rd)
    return xn * (m // xd), yn * (m // yd), rn * (m // rd), m


def _side(p: QuadPoint, s: tuple[int, int, int, int]) -> int:
    """Sign of the power of p against the disk with ``_scale`` s.

    p is ((xa + xb*sqrt(e))/w, (ya + yb*sqrt(e))/w). Times (w*m)^2, p minus
    the centre is (ux + bx*sqrt(e), uy + by*sqrt(e)) with ux = m*xa - w*x
    and bx = m*xb, and likewise for y; the power |u|^2 - (w*r)^2 is then
    A + B*sqrt(e) with A = ux^2 + uy^2 + (bx^2 + by^2)*e - (w*r)^2 and
    B = 2*(ux*bx + uy*by): one integer ``sign_one``."""
    x, y, r, m = s
    w, e = p.w, p.d
    ux, uy, bx, by, wr = m * p.xa - w * x, m * p.ya - w * y, m * p.xb, m * p.yb, w * r
    return sign_one(ux * ux + uy * uy + (bx * bx + by * by) * e - wr * wr, 2 * (ux * bx + uy * by), e)


def inside(p: QuadPoint, d: Disk) -> bool:
    """Is p in the closed disk d?"""
    return _side(p, _scale(d)) <= 0


def _lens_corners(a: Disk, b: Disk) -> tuple[QuadPoint, QuadPoint]:
    """The two points where the circles of a met pair cross or touch.

    Over the pair's common denominator m, with centres (ax, ay), (bx, by),
    radii ra, rb, the centre offset (dx, dy) = (bx - ax, by - ay) and
    d2 = dx^2 + dy^2: the chord's foot is a's centre plus k/(2*d2) of the
    offset, k = d2 + ra^2 - rb^2, and the half chord is (dy, -dx)*sqrt(e)
    over 2*d2*m, e = 4*d2*ra^2 - k^2. So a corner's x is
    (2*d2*ax + k*dx +- dy*sqrt(e))/(2*d2*m), and likewise for y.
    """
    (ax, ay, ra, ma), (bx, by, rb, mb) = _scale(a), _scale(b)
    m = lcm(ma, mb)
    fa, fb = m // ma, m // mb
    ax, ay, ra, bx, by, rb = ax * fa, ay * fa, ra * fa, bx * fb, by * fb, rb * fb
    dx, dy = bx - ax, by - ay
    d2 = dx * dx + dy * dy
    k = d2 + ra * ra - rb * rb
    x, y, e, w = 2 * d2 * ax + k * dx, 2 * d2 * ay + k * dy, 4 * d2 * ra * ra - k * k, 2 * d2 * m
    return QuadPoint(x, dy, y, -dx, e, w), QuadPoint(x, -dy, y, dx, e, w)


def lowest_common_point(family: Sequence[Disk]) -> QuadPoint | None:
    """Lowest point common to every disk (least y, then least x), or None.

    O(n^3) brute force. The lowest point of the intersection is the bottom
    of a disk or a point where two circles cross or touch externally (at a
    point where the circles only touch from inside, the innermost disk is
    the intersection nearby, so the point is its bottom). So it is the
    lowest of those candidates that lies in every disk.
    """
    scales = [_scale(d) for d in family]
    candidates = [QuadPoint(x, 0, y - r, 0, 0, m) for x, y, r, m in scales]
    for a, b in combinations(family, 2):
        if pair_relation(a, b).kind in (PairKind.PROPER_LENS, PairKind.EXTERNAL_OSCULATION):
            candidates.extend(_lens_corners(a, b))
    best = None
    for p in candidates:
        if all(_side(p, s) <= 0 for s in scales) and (
            best is None or (qcmp(p.y, best.y), qcmp(p.x, best.x)) < (0, 0)
        ):
            best = p
    return best
