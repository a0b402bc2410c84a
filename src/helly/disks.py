"""Exact planar disk geometry: pair relations, intersection regions, and
the three-disk criterion for a family-wide common point.

Disks are closed: "meet" means the closed intersection is nonempty, so a
single shared boundary point counts. Every decision below is made by
exact rational comparison of squared quantities or by exact sign tests on
circle-intersection coordinates; tangency is never detected by tolerance.

The structural guarantee exercised here: for at least three disks, if
every three of them meet then they all meet. ``minimalist_helly_check``
clips the disks in order. When the clip by disk m empties the region R
of the disks before it, the violating triple is read from R's relation
to D_m, by the separation argument of the three-disk proof:

- R is a full disk f: f and D_m are disjoint, and the smallest index
  not in {f, m} completes the triple.
- R is a proper region: the line through R's point closest to D_m,
  normal to the connecting segment, separates R from D_m
  (``separation.separating_line``). At an arc interior point the line is
  tangent to the arc's carrier, so that carrier misses D_m; the smallest
  other index completes the triple. At a corner the lens of the two
  carriers lies in the corner's tangent wedge, which the line also
  separates from D_m.
- R is a point p: the disks before m whose circles pass through p (the
  carriers) are tried in pairs, in lexicographic order, with D_m. Some
  pair fails: every carrier contains p, and every other disk before m
  contains p in its interior, so if the carriers shared a second point
  q, R would hold the points of the segment pq near p. So the carriers
  meet only in p, which is not in D_m, and the three-disk statement on
  the carriers and D_m gives a failing triple. It holds m, because any
  three carriers meet at p.

Each candidate triple is confirmed by the exact ``triple_meet``. If none
fails, the guarantee itself would be false, and the check aborts loudly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from typing import Sequence, Union

from .errors import InvariantViolation
from .exactq import Rat
from .radicals import (
    QuadPoint,
    ccw_in_span,
    point_lex_cmp,
    qpoint,
    quadval,
    same_point,
)


@dataclass(frozen=True)
class Disk:
    """Closed disk with exact rational center and positive radius."""

    x: Rat
    y: Rat
    r: Rat

    def __post_init__(self) -> None:
        if self.r <= 0:
            raise ValueError("radius must be strictly positive")


def disk(x, y, r) -> Disk:
    return Disk(Fraction(x), Fraction(y), Fraction(r))


class PairKind(Enum):
    DISJOINT = "disjoint"
    EXTERNAL_OSCULATION = "external-osculation"
    PROPER_LENS = "proper-lens"
    INTERNAL_TANGENCY = "internal-tangency"
    PROPER_CONTAINMENT = "proper-containment"
    EQUAL = "equal"


@dataclass(frozen=True)
class PairRelation:
    kind: PairKind
    point: tuple[Rat, Rat] | None = None  # single shared point, when there is one
    inner: int | None = None  # 0/1: which argument is the enclosed disk


def pair_relation(a: Disk, b: Disk) -> PairRelation:
    """Classify two disks by comparing d^2 against (r1+r2)^2 and (r1-r2)^2.

    The shared point of a tangency is always rational: when d^2 equals a
    squared rational the distance itself is rational.
    """
    dx, dy = b.x - a.x, b.y - a.y
    d2 = dx * dx + dy * dy
    rsum = a.r + b.r
    if d2 > rsum * rsum:
        return PairRelation(PairKind.DISJOINT)
    if d2 == rsum * rsum:
        t = a.r / rsum
        return PairRelation(PairKind.EXTERNAL_OSCULATION, point=(a.x + t * dx, a.y + t * dy))
    rdiff = a.r - b.r
    if d2 > rdiff * rdiff:
        return PairRelation(PairKind.PROPER_LENS)
    if d2 == rdiff * rdiff:
        if d2 == 0:
            return PairRelation(PairKind.EQUAL)
        t = a.r / rdiff
        pt = (a.x + t * dx, a.y + t * dy)
        return PairRelation(PairKind.INTERNAL_TANGENCY, point=pt, inner=0 if a.r < b.r else 1)
    return PairRelation(PairKind.PROPER_CONTAINMENT, inner=0 if a.r < b.r else 1)


def disk_side(p: QuadPoint, d: Disk) -> int:
    """-1 strictly inside, 0 on the boundary circle, +1 strictly outside."""
    ux = p.x - d.x
    uy = p.y - d.y
    return (ux * ux + uy * uy - d.r * d.r).sign()


def in_disk(p: QuadPoint, d: Disk) -> bool:
    return disk_side(p, d) <= 0


def _lens_corners(a: Disk, b: Disk) -> tuple[QuadPoint, QuadPoint]:
    """The two boundary-circle intersection points of a properly-met pair.

    Returned as (low, high) where the portion of a's circle inside b runs
    counterclockwise from low to high.
    """
    dx, dy = b.x - a.x, b.y - a.y
    d2 = dx * dx + dy * dy
    t = (d2 + a.r * a.r - b.r * b.r) / (2 * d2)
    mx, my = a.x + t * dx, a.y + t * dy
    s2 = (a.r * a.r - t * t * d2) / d2  # squared ratio half-chord / center gap
    low = QuadPoint(quadval(mx, dy, s2), quadval(my, -dx, s2))
    high = QuadPoint(quadval(mx, -dy, s2), quadval(my, dx, s2))
    return low, high


class RegionKind(Enum):
    EMPTY = "empty"
    POINT = "point"
    FULL = "full-disk"
    REGION = "region"


@dataclass(frozen=True)
class Arc:
    """CCW arc of the boundary circle of ``family[disk]`` from start to end."""

    disk: int
    start: QuadPoint
    end: QuadPoint


@dataclass(frozen=True)
class ArcRegion:
    """Intersection of a disk family: empty, one point, a full disk, or a
    convex region bounded by cyclically contiguous CCW arcs."""

    family: tuple[Disk, ...]
    kind: RegionKind
    point: QuadPoint | None = None
    full_index: int | None = None
    arcs: tuple[Arc, ...] = ()

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

    def representative_point(self) -> QuadPoint | None:
        """A deterministic point of the region (lex-least corner for a
        proper region, the center for a full disk)."""
        if self.kind is RegionKind.EMPTY:
            return None
        if self.kind is RegionKind.FULL:
            d = self.family[self.full_index]
            return qpoint(d.x, d.y)
        return min(self.corners(), key=cmp_to_key(point_lex_cmp))


def _pair_region(i: int, j: int, family: tuple[Disk, ...]) -> ArcRegion:
    """Intersection of ``family[i]`` and ``family[j]``, indexed into ``family``."""
    a, b = family[i], family[j]
    rel = pair_relation(a, b)
    if rel.kind is PairKind.DISJOINT:
        return ArcRegion(family, RegionKind.EMPTY)
    if rel.kind is PairKind.EXTERNAL_OSCULATION:
        return ArcRegion(family, RegionKind.POINT, point=qpoint(*rel.point))
    if rel.kind is PairKind.PROPER_LENS:
        low, high = _lens_corners(a, b)
        return ArcRegion(family, RegionKind.REGION, arcs=(Arc(i, low, high), Arc(j, high, low)))
    return ArcRegion(family, RegionKind.FULL, full_index=j if rel.inner == 1 else i)


def pair_lens(a: Disk, b: Disk) -> ArcRegion:
    """Two-disk intersection: a two-arc lens, a point, a full disk, or empty."""
    return _pair_region(0, 1, (a, b))


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
    """
    if u_in and v_in:
        # Either the arc stays inside, or it leaves at b and comes back at a.
        if not same_point(b, v) and ccw_in_span(b, u, v, carrier.x, carrier.y):
            return [(u, b), (a, v)]
        return [(u, v)]
    if u_in:
        return [(u, b)]
    if v_in:
        return [(a, v)]
    if ccw_in_span(a, u, v, carrier.x, carrier.y):
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
        elif rel.kind in (PairKind.DISJOINT, PairKind.PROPER_CONTAINMENT):
            continue
        elif rel.kind is PairKind.PROPER_LENS:
            low, high = _lens_corners(carrier, new)
            u_in, v_in = inside[i], inside[(i + 1) % len(inside)]
            for s, e in _span_pieces(arc.start, arc.end, low, high, u_in, v_in, carrier):
                if same_point(s, e):
                    touches.append(s)
                else:
                    pieces.append(Arc(arc.disk, s, e))
        else:
            # external osculation, or the new disk inside the carrier
            # touching it: one shared point
            p = qpoint(*rel.point)
            if ccw_in_span(p, arc.start, arc.end, carrier.x, carrier.y):
                touches.append(p)

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


def _clip_until_empty(disks: tuple[Disk, ...]) -> tuple[ArcRegion, int | None]:
    """Clip the disks in order and stop before the first clip that would
    empty the region. Returns the last nonempty region and the index of
    the disk whose clip emptied it, or None when the whole family meets.
    Duplicates are skipped (first occurrence kept)."""
    if not disks:
        raise ValueError("family must be nonempty")
    first: dict[Disk, int] = {}
    for i, d in enumerate(disks):
        first.setdefault(d, i)
    keep = list(first.values())
    region = ArcRegion(disks, RegionKind.FULL, full_index=keep[0])
    for idx in keep[1:]:
        clipped = _clip(region, idx)
        if clipped.is_empty:
            return region, idx
        region = clipped
    return region, None


def intersect_region(family: Sequence[Disk]) -> ArcRegion:
    """Intersection of every disk in the family, by incremental clipping.

    Starts from the first disk as a full-disk region and clips with each
    subsequent one. Duplicates are removed up front (first occurrence
    kept); arc and full-disk indices refer to the family as given.
    """
    disks = tuple(family)
    region, emptied_by = _clip_until_empty(disks)
    return region if emptied_by is None else ArcRegion(disks, RegionKind.EMPTY)


# ---------------------------------------------------------------------------
# Triples and the family-wide check


def triple_meet(a: Disk, b: Disk, c: Disk) -> bool:
    """Exact emptiness test for a three-disk intersection.

    Case split: a missing pair settles it; a contained disk reduces the
    triple to a pair; an osculating pair pins the candidate point; with
    all pairs properly met, the triple meets exactly when some pair's
    circle-intersection point lies in the third disk.
    """
    trio = (a, b, c)
    pairs = ((0, 1, 2), (0, 2, 1), (1, 2, 0))
    rels = {}
    for i, j, k in pairs:
        rel = pair_relation(trio[i], trio[j])
        if rel.kind is PairKind.DISJOINT:
            return False
        rels[(i, j)] = (rel, k)
    for (i, j), (rel, k) in rels.items():
        if rel.kind in (PairKind.EQUAL, PairKind.INTERNAL_TANGENCY, PairKind.PROPER_CONTAINMENT):
            inner = trio[i] if (rel.kind is PairKind.EQUAL or rel.inner == 0) else trio[j]
            return pair_relation(inner, trio[k]).kind is not PairKind.DISJOINT
    for (i, j), (rel, k) in rels.items():
        if rel.kind is PairKind.EXTERNAL_OSCULATION:
            return in_disk(qpoint(*rel.point), trio[k])
    for (i, j), (rel, k) in rels.items():
        for corner in _lens_corners(trio[i], trio[j]):
            if in_disk(corner, trio[k]):
                return True
    return False


@dataclass(frozen=True)
class CommonPoint:
    point: QuadPoint


@dataclass(frozen=True)
class ViolatingTriple:
    indices: tuple[int, int, int]


MinimalistVerdict = Union[CommonPoint, ViolatingTriple]


def minimalist_helly_check(family: Sequence[Disk]) -> MinimalistVerdict:
    """Either a point common to every disk, or three disks with no common
    point: a triple containing the disk whose clip emptied the region,
    read from the closest feature (see the module docstring).

    Each triple is confirmed by ``triple_meet``. An empty intersection
    with no failing candidate would contradict the three-disk guarantee,
    so that case aborts loudly.
    """
    disks = tuple(family)
    if len(disks) < 3:
        raise ValueError("at least three disks required")
    region, m = _clip_until_empty(disks)
    if m is None:
        return CommonPoint(region.representative_point())
    if region.kind is RegionKind.FULL:
        groups = [(region.full_index,)]
    elif region.kind is RegionKind.POINT:
        carriers = [i for i in range(m) if disk_side(region.point, disks[i]) == 0]
        groups = combinations(carriers, 2)
    else:
        # separation imports this module, so it can only be imported here
        from .separation import separating_line

        groups = [separating_line(disks[m], region).carriers]
    for group in groups:
        ids = {*group, m}
        if len(ids) < 3:
            ids.add(min({0, 1, 2} - ids))
        i, j, k = sorted(ids)
        if not triple_meet(disks[i], disks[j], disks[k]):
            return ViolatingTriple((i, j, k))
    raise InvariantViolation(
        "empty intersection but no triple named by the separation argument "
        "fails; this contradicts the three-disk guarantee and indicates a bug"
    )
