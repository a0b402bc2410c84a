"""Exact planar disk geometry: pair relations, intersection regions, and
the three-disk criterion for a family-wide common point.

Disks are closed: "meet" means the closed intersection is nonempty, so a
single shared boundary point counts. Every decision below is made by
exact comparison of squared quantities or by exact sign tests on
circle-intersection coordinates; tangency is never detected by tolerance.

All of it runs in integers. Each disk keeps its centre and radius over
its own denominator M (``Disk.X``, ``Y``, ``R``, ``M``), and a pair works
at its common denominator lcm(Ma, Mb) (``_scaled``). ``pair_relation``
scales a pair once and gives its kind and the points where its circles
meet, from one chord formula that covers crossings and tangencies alike:
integer numerators over one positive denominator (``QuadPoint``). A
side test against a third disk is one integer ``sign_one``. No
family-wide scale is used: integer sizes depend only on the disks of one
predicate, as they would with ``Fraction``. A common denominator L of
the whole family would grow with every new prime in it. For 600 disks
over distinct primes L has about 6,300 bits, and clipping them at that
scale took 23 s, against 0.84 s in ``Fraction`` arithmetic and 0.04 s
with one denominator per disk (CPython 3.11 on a 2-core x86 host).

The structural guarantee exercised here: for at least three disks, if
every three of them meet then they all meet. Read as an LP-type problem
(Amenta 1994), it is a statement about the lowest point of the
intersection K, least y and then least x, which is unique because K is
strictly convex. A nonempty K has its lowest point fixed by a basis of
at most two disks (one disk's bottom, or a point on two circles), and an
empty K already has an empty sub-family of at most three disks: a
disjoint pair or a failing triple. ``minimalist_helly_check`` finds one
or the other with the Sharir-Welzl walk (``_walk``) over a seeded order
of the disks, without clipping.

Step lemma. Let p be the lowest point of K, the intersection of some
disks, and let p miss the disk D_h. Then the lowest point q of K ∩ D_h
lies on h's circle. Proof: p and q lie in K, so the segment from q
toward p stays in K, and its points near q are lower than q. Were q
inside D_h, those points would lie in K ∩ D_h, against the choice of q.
So h belongs to every basis of B + h, where B is a basis of K, and the
new basis is one of (h,) and (b, h) for b in B: the one whose own lowest
point is highest, because the lowest point of each subset lies at or
below q and that of a basis lies on it (``_step``). If that point misses
a disk of B + h, those two or three disks have no common point.

The walk ends with a point inside every disk that is the lowest point
of a sub-family, so it is the lowest point of the whole family too.

Prefix search. The violating triple must hold m, the first index whose
prefix 0..m has no common point. When the walk returns an empty set F,
its largest index M has an empty prefix 0..M, so m <= M. The walk over
the disks before M either meets, and then m = M is in F, or returns an
empty set F' whose largest index is below M, and the search goes on from
F'. A pair F is completed by the smallest index outside it, and one
``triple_meet`` confirms the triple.
"""

from __future__ import annotations

import random
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Sequence, Union

from .errors import InvariantViolation
from .exactq import Rat
from .radicals import QuadPoint, ccw_in_span, point_cmp, same_point, sign_one
from .records import Record, cached_view


class Disk(Record):
    """Closed disk with exact rational center and positive radius.

    It keeps itself over its own denominator, M = lcm of the three
    reduced denominators: x = X/M, y = Y/M and r = R/M. The parser and
    the generators build these integers directly (``_of``); the
    constructor scales the rationals it is given. ``x``, ``y`` and ``r``
    are exact ``Fraction`` views, built when first read. The reduced
    values fix (X, Y, R, M), so equality and hashing use those four.
    """

    X: int
    Y: int
    R: int
    M: int

    def __init__(self, x: Rat, y: Rat, r: Rat) -> None:
        (xn, xd), (yn, yd), (rn, rd) = (v.as_integer_ratio() for v in (x, y, r))
        if rn <= 0:
            raise ValueError("radius must be strictly positive")
        m = lcm(xd, yd, rd)
        # the instance is frozen, so its fields go straight into its dict
        vars(self).update(X=xn * (m // xd), Y=yn * (m // yd), R=rn * (m // rd), M=m)

    @classmethod
    def _of(cls, X: int, Y: int, R: int, M: int) -> Disk:
        """The disk (X/M, Y/M) of radius R/M, for R > 0, M > 0 and
        ``gcd(X, Y, R, M) == 1``."""
        d = cls.__new__(cls)
        vars(d).update(X=X, Y=Y, R=R, M=M)
        return d

    @cached_view
    def x(self) -> Rat:
        return Fraction(self.X, self.M)

    @cached_view
    def y(self) -> Rat:
        return Fraction(self.Y, self.M)

    @cached_view
    def r(self) -> Rat:
        return Fraction(self.R, self.M)

    def __repr__(self) -> str:
        return f"Disk(x={self.x!r}, y={self.y!r}, r={self.r!r})"


def disk(x, y, r) -> Disk:
    return Disk(Fraction(x), Fraction(y), Fraction(r))


class PairKind(Enum):
    DISJOINT = "disjoint"
    EXTERNAL_OSCULATION = "external-osculation"
    PROPER_LENS = "proper-lens"
    INTERNAL_TANGENCY = "internal-tangency"
    PROPER_CONTAINMENT = "proper-containment"
    EQUAL = "equal"


class PairRelation(Record):
    kind: PairKind
    corners: tuple[QuadPoint, QuadPoint] | None  # (low, high), when the circles meet
    inner: int | None  # 0/1: which argument is the enclosed disk

    def __init__(
        self, kind: PairKind, corners: tuple[QuadPoint, QuadPoint] | None = None, inner: int | None = None
    ) -> None:
        vars(self).update(kind=kind, corners=corners, inner=inner)


def _scaled(a: Disk, b: Disk) -> tuple[int, int, int, int, int, int, int]:
    """a and b over their common denominator m = lcm(Ma, Mb), as (ax, ay,
    ra, bx, by, rb, m)."""
    if a.M == b.M:
        return a.X, a.Y, a.R, b.X, b.Y, b.R, a.M
    m = lcm(a.M, b.M)
    fa, fb = m // a.M, m // b.M
    return a.X * fa, a.Y * fa, a.R * fa, b.X * fb, b.Y * fb, b.R * fb, m


def pair_relation(a: Disk, b: Disk) -> PairRelation:
    """Classify two disks by comparing d^2 against (r1+r2)^2 and (r1-r2)^2,
    and give the points where their circles meet.

    ``corners`` is (low, high), where the portion of a's circle inside b
    runs counterclockwise from low to high, and None when the circles
    share no point (disjoint, properly contained or equal). At the common
    scale m, with the centre offset (dx, dy), d2 = dx^2 + dy^2 and
    c = d2 + ra^2 - rb^2, the chord's foot is (X, Y)/W for
    X = 2*d2*ax + c*dx, Y = 2*d2*ay + c*dy and W = 2*d2*m, and the half
    chord is (dy, -dx)*sqrt(D)/W for D = 4*d2*ra^2 - c^2. At a tangency
    D = 0, and low and high are the one rational point the circles share.
    """
    ax, ay, ra, bx, by, rb, m = _scaled(a, b)
    dx, dy = bx - ax, by - ay
    d2 = dx * dx + dy * dy
    rsum, rdiff = ra + rb, ra - rb
    if d2 > rsum * rsum:
        return PairRelation(PairKind.DISJOINT)
    if d2 < rdiff * rdiff:
        return PairRelation(PairKind.PROPER_CONTAINMENT, inner=0 if ra < rb else 1)
    if d2 == 0:
        return PairRelation(PairKind.EQUAL)
    c = d2 + ra * ra - rb * rb
    x, y, e, w = 2 * d2 * ax + c * dx, 2 * d2 * ay + c * dy, 4 * d2 * ra * ra - c * c, 2 * d2 * m
    corners = QuadPoint(x, dy, y, -dx, e, w), QuadPoint(x, -dy, y, dx, e, w)
    if d2 == rsum * rsum:
        return PairRelation(PairKind.EXTERNAL_OSCULATION, corners)
    if d2 > rdiff * rdiff:
        return PairRelation(PairKind.PROPER_LENS, corners)
    return PairRelation(PairKind.INTERNAL_TANGENCY, corners, inner=0 if ra < rb else 1)


def disk_side(p: QuadPoint, d: Disk) -> int:
    """-1 strictly inside, 0 on the boundary circle, +1 strictly outside.

    With p = ((X + X'*sqrt(D))/W, (Y + Y'*sqrt(D))/W) and d = (Xd, Yd, R)/M,
    let ux = M*X - W*Xd and uy = M*Y - W*Yd. Then (W*M)^2 times the power
    |p - center|^2 - r^2 is A + B*sqrt(D), with A = ux^2 + uy^2 +
    M^2*(X'^2 + Y'^2)*D - W^2*R^2 and B = 2*M*(ux*X' + uy*Y'): one integer
    ``sign_one`` call.
    """
    m, w, e = d.M, p.w, p.d
    ux, uy = m * p.xa - w * d.X, m * p.ya - w * d.Y
    wr = w * d.R
    a = ux * ux + uy * uy - wr * wr
    if e:
        a += m * m * (p.xb * p.xb + p.yb * p.yb) * e
    return sign_one(a, 2 * m * (ux * p.xb + uy * p.yb), e)


def in_disk(p: QuadPoint, d: Disk) -> bool:
    return disk_side(p, d) <= 0


class RegionKind(Enum):
    EMPTY = "empty"
    POINT = "point"
    FULL = "full-disk"
    REGION = "region"


class Arc(Record):
    """CCW arc of the boundary circle of ``family[disk]`` from start to end."""

    disk: int
    start: QuadPoint
    end: QuadPoint

    def __init__(self, disk: int, start: QuadPoint, end: QuadPoint) -> None:
        vars(self).update(disk=disk, start=start, end=end)


class ArcRegion(Record):
    """Intersection of a disk family: empty, one point, a full disk, or a
    convex region bounded by cyclically contiguous CCW arcs."""

    family: tuple[Disk, ...]
    kind: RegionKind
    point: QuadPoint | None
    full_index: int | None
    arcs: tuple[Arc, ...]

    def __init__(
        self,
        family: tuple[Disk, ...],
        kind: RegionKind,
        point: QuadPoint | None = None,
        full_index: int | None = None,
        arcs: tuple[Arc, ...] = (),
    ) -> None:
        vars(self).update(family=family, kind=kind, point=point, full_index=full_index, arcs=arcs)

    @property
    def is_empty(self) -> bool:
        return self.kind is RegionKind.EMPTY

    def corners(self) -> tuple[QuadPoint, ...]:
        if self.kind is RegionKind.POINT:
            return (self.point,)
        if self.kind is RegionKind.REGION:
            return tuple(arc.start for arc in self.arcs)
        return ()

    def contains(self, p: QuadPoint) -> bool:
        return all(in_disk(p, d) for d in self.family)


def _pair_region(i: int, j: int, family: tuple[Disk, ...]) -> ArcRegion:
    """Intersection of ``family[i]`` and ``family[j]``, indexed into ``family``."""
    rel = pair_relation(family[i], family[j])
    if rel.kind is PairKind.DISJOINT:
        return ArcRegion(family, RegionKind.EMPTY)
    if rel.kind is PairKind.EXTERNAL_OSCULATION:
        return ArcRegion(family, RegionKind.POINT, point=rel.corners[0])
    if rel.kind is PairKind.PROPER_LENS:
        low, high = rel.corners
        return ArcRegion(family, RegionKind.REGION, arcs=(Arc(i, low, high), Arc(j, high, low)))
    return ArcRegion(family, RegionKind.FULL, full_index=j if rel.inner == 1 else i)


# ---------------------------------------------------------------------------
# Incremental clipping


def _span_pieces(
    u: QuadPoint,
    v: QuadPoint,
    a: QuadPoint,
    b: QuadPoint,
    u_in: bool,
    v_in: bool,
    carrier: Disk,
) -> list[tuple[QuadPoint, QuadPoint]]:
    """Intersect the CCW arc [u, v] of the carrier circle with the closed
    CCW span [a, b] of that circle inside the new disk. Returns pieces in
    order from u; single points come back as degenerate (p, p) pairs.

    u and v lie on the carrier circle, so each is in [a, b] exactly when
    it lies in the new disk; ``u_in`` and ``v_in`` are those two tests,
    made once per region corner by the caller. As [a, b] is one interval
    of the circle, they leave four cases and at most one span test.

    a == b when the circles only touch. Then [a, b] is the touch point,
    and it comes back as one degenerate piece when the arc holds it, or
    not at all.
    """
    if u_in and v_in:
        # Either the arc stays inside, or it leaves at b and comes back at a.
        if not same_point(b, v) and ccw_in_span(b, u, v, carrier.X, carrier.Y, carrier.M):
            return [(u, b), (a, v)]
        return [(u, v)]
    if u_in:
        return [(u, b)]
    if v_in:
        return [(a, v)]
    if ccw_in_span(a, u, v, carrier.X, carrier.Y, carrier.M):
        return [(a, b)]
    return []


def _clip(region: ArcRegion, new_index: int) -> ArcRegion:
    """Intersect ``region`` with ``region.family[new_index]``. A proper
    region is the intersection of its carrier disks; no other disk is read."""
    family = region.family
    new = family[new_index]
    if region.kind is RegionKind.EMPTY:
        return region
    if region.kind is RegionKind.POINT:
        return region if in_disk(region.point, new) else ArcRegion(family, RegionKind.EMPTY)
    if region.kind is RegionKind.FULL:
        return _pair_region(region.full_index, new_index, family)

    pieces: list[Arc] = []
    touches: list[QuadPoint] = []
    # each arc ends where the next one starts, so one test per corner
    inside = [in_disk(arc.start, new) for arc in region.arcs]
    rels = [pair_relation(family[arc.disk], new) for arc in region.arcs]
    for i, (arc, rel) in enumerate(zip(region.arcs, rels)):
        carrier = family[arc.disk]
        if rel.kind is PairKind.EQUAL or rel.inner == 0:
            # the carrier circle lies in the new disk
            pieces.append(arc)
        elif rel.corners is not None:
            # a lens, or one touch point when low and high coincide
            low, high = rel.corners
            u_in, v_in = inside[i], inside[(i + 1) % len(inside)]
            for s, e in _span_pieces(arc.start, arc.end, low, high, u_in, v_in, carrier):
                if same_point(s, e):
                    touches.append(s)
                else:
                    pieces.append(Arc(arc.disk, s, e))

    if not pieces:
        # Containment first: a new disk inside every carrier lies inside
        # the region, may touch its boundary from inside, and is then the
        # whole intersection.
        if all(rel.inner == 1 for rel in rels):
            return ArcRegion(family, RegionKind.FULL, full_index=new_index)
        if touches:
            first = touches[0]
            for other in touches[1:]:
                if not same_point(first, other):
                    raise InvariantViolation("disconnected touch points in a convex clip")
            return ArcRegion(family, RegionKind.POINT, point=first)
        return ArcRegion(family, RegionKind.EMPTY)

    # Touch points beside surviving pieces are already members of the new
    # region: either a piece endpoint or an interior point of a bridge arc
    # (the new circle passing straight through an old corner or tangency).

    out: list[Arc] = []
    count = len(pieces)
    for i, piece in enumerate(pieces):
        out.append(piece)
        nxt = pieces[(i + 1) % count]
        if not same_point(piece.end, nxt.start):
            out.append(Arc(new_index, piece.end, nxt.start))
    return ArcRegion(family, RegionKind.REGION, arcs=tuple(out))


def intersect_region(family: Sequence[Disk]) -> ArcRegion:
    """Intersection of every disk in the family, by incremental clipping.

    Starts from the first disk as a full-disk region and clips with each
    subsequent one, stopping once the region is empty. Arc and full-disk
    indices refer to the family as given; a clip by a copy of a carrier
    keeps the carrier, so an index names the first of equal disks.
    """
    disks = tuple(family)
    if not disks:
        raise ValueError("family must be nonempty")
    region = ArcRegion(disks, RegionKind.FULL, full_index=0)
    for idx in range(1, len(disks)):
        region = _clip(region, idx)
        if region.is_empty:
            break
    return region


# ---------------------------------------------------------------------------
# Triples and the family-wide check


def triple_meet(a: Disk, b: Disk, c: Disk) -> bool:
    """Exact emptiness test for a three-disk intersection.

    Case split: a missing pair settles it; a contained disk reduces the
    triple to a pair; with every pair crossing or touching externally,
    the triple meets exactly when some pair's meeting point lies in the
    third disk.
    """
    trio = (a, b, c)
    rels = []
    for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        rel = pair_relation(trio[i], trio[j])
        if rel.kind is PairKind.DISJOINT:
            return False
        rels.append((i, j, k, rel))
    for i, j, k, rel in rels:
        if rel.kind in (PairKind.EQUAL, PairKind.INTERNAL_TANGENCY, PairKind.PROPER_CONTAINMENT):
            inner = trio[i] if (rel.kind is PairKind.EQUAL or rel.inner == 0) else trio[j]
            return pair_relation(inner, trio[k]).kind is not PairKind.DISJOINT
    return any(in_disk(corner, trio[k]) for _, _, k, rel in rels for corner in rel.corners)


class CommonPoint(Record):
    point: QuadPoint


class ViolatingTriple(Record):
    indices: tuple[int, int, int]


MinimalistVerdict = Union[CommonPoint, ViolatingTriple]


WALK_SEED = 1992  # fixes the order of the walk, and so its work counts


def walk_order(n: int) -> list[int]:
    """The order in which the walk visits disks 0..n-1: sorted by keys
    drawn from ``random.Random(WALK_SEED).random()``, whose output Python
    pins for a given seed. The first n keys do not depend on later ones,
    so the order of a prefix is this order restricted to it."""
    rng = random.Random(WALK_SEED)
    keys = [rng.random() for _ in range(n)]
    return sorted(range(n), key=keys.__getitem__)


def _bottom(d: Disk) -> QuadPoint:
    return QuadPoint(d.X, 0, d.Y - d.R, 0, 0, d.M)


def _pair_lowest(a: Disk, b: Disk) -> QuadPoint | None:
    """Lowest point of a ∩ b, or None when the two are disjoint: a bottom
    that lies in the other disk, or else the lower lens corner (both
    corners are the touch point of an external osculation)."""
    rel = pair_relation(a, b)
    if rel.kind is PairKind.DISJOINT:
        return None
    for c, o in ((a, b), (b, a)):
        p = _bottom(c)
        if in_disk(p, o):
            return p
    low, high = rel.corners
    return high if point_cmp(high, low) < 0 else low


Basis = tuple[int, ...]


def _step(disks: Sequence[Disk], basis: Basis, h: int) -> tuple[Basis, QuadPoint | None]:
    """Basis and lowest point of basis + (h,), given that the lowest point
    of ``basis`` misses disk h (the step lemma of the module docstring);
    or an empty set of at most three of those disks, and None."""
    best, point = (h,), _bottom(disks[h])
    for b in basis:
        q = _pair_lowest(disks[b], disks[h])
        if q is None:
            return (b, h), None
        if point_cmp(point, q) < 0:
            best, point = (b, h), q
    if all(in_disk(point, disks[i]) for i in basis if i not in best):
        return best, point
    return (*basis, h), None


def _walk(family: Sequence[Disk], order: Sequence[int]) -> tuple[Basis, QuadPoint | None]:
    """Lowest point of the disks of ``order`` and its basis, or an empty
    set of at most three of them and None; indices refer to ``family``.

    This is Sharir and Welzl's recursion lp(G, C), for a set G of disks
    and a basis C inside it: with h the last disk of G outside C in the
    walk order, B = lp(G - h, C), and then lp(G, basis(B + h)) when B's
    lowest point misses h, else B. Unrolled, lp(G, C) tests the disks of
    G outside C in order against the current point, and a violation by
    disk e runs lp on the disks of G up to e and those of C after e, with
    the new basis. An explicit stack of frames [G in walk order, next
    test, C, current basis, its lowest point] replaces the recursion.
    """
    ds = [family[i] for i in order]
    stack = [[range(len(ds)), 0, (0,), (0,), _bottom(ds[0])]]
    while stack:
        frame = stack[-1]
        g, start, hint, basis, p = frame
        for k in range(start, len(g)):
            e = g[k]
            if e in hint or in_disk(p, ds[e]):
                continue
            new, q = _step(ds, basis, e)
            if q is None:
                return tuple(sorted(order[i] for i in new)), None
            frame[1] = k + 1
            stack.append([[*g[: k + 1], *sorted(c for c in hint if c > e)], 0, new, new, q])
            break
        else:
            stack.pop()
            if stack:
                stack[-1][3:] = [basis, p]
    return tuple(order[i] for i in basis), p


def minimalist_helly_check(family: Sequence[Disk]) -> MinimalistVerdict:
    """Either the lowest point common to every disk (least y, then least
    x), or three disks with no common point, among them the first disk m
    whose prefix 0..m has none.

    Both come from ``_walk`` over ``walk_order``; the triple from the
    prefix search of the module docstring. One ``triple_meet`` confirms
    the triple; an empty set from the walk that it does not confirm would
    be a bug, and the check aborts loudly.
    """
    disks = tuple(family)
    if len(disks) < 3:
        raise ValueError("at least three disks required")
    order = walk_order(len(disks))
    empty, point = _walk(disks, order)
    if point is not None:
        return CommonPoint(point)
    while True:
        m = max(empty)
        prefix_empty, point = _walk(disks, [i for i in order if i < m])
        if point is not None:
            break
        empty = prefix_empty
    ids = set(empty)
    if len(ids) < 3:
        ids.add(min({0, 1, 2} - ids))
    i, j, k = sorted(ids)
    if not triple_meet(disks[i], disks[j], disks[k]):
        return ViolatingTriple((i, j, k))
    raise InvariantViolation(
        f"the walk named disks {sorted(empty)} as having no common point, but "
        f"triple {(i, j, k)} meets; this indicates a bug"
    )
