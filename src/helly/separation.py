"""Closest point-pair between a disk and an arc region, and the
perpendicular separating line at the region-side closest point.

The closest region point to a disjoint disk T is the closest point to T's
center, and over each boundary arc the center-distance is unimodal with
its minimum at the "foot" (the carrier-circle point in the direction of
T's center). So the exact minimizer is found by one scan over finitely
many candidates, the same for every region kind: first every region
corner (a point region is its own corner), then the foot of the full
disk or of every arc whose angular span contains the foot direction. The
first strict minimum wins, so a foot at an arc end, which is that corner
exactly, loses the tie to the corner. One rule decides disjointness for
every kind: T meets the region exactly when the region contains T's
center or the minimum center gap is at most T's radius. Each candidate
is built in integers: a corner's center gap by ``radicals.dist_sq``, a
foot and its gaps at the common denominator of T and the carrier, as
``QuadPoint``s and ``QuadVal``s (p + q*sqrt(d))/w, and compared by
exact integer sign tests (``qcmp``). Nested radicals are certified dyadic
enclosures: the matching point on T, from the same ``radicals._arm``
offset as the line's normal, and the pair distance for a corner minimizer.

The line through the region-side closest point, perpendicular to the
connecting segment, always has the whole region on its closed far side
and the whole query disk strictly on the near side (projection onto a
convex set). The carrier disks of the closest feature are natural
candidates for disks that miss T entirely; each is verified by the exact
pair predicate before being reported, because a wide corner angle with a
large carrier disk can wrap around the line and still reach T. For a
corner feature the joint intersection of T with both carriers is empty
even then: each carrier lies inside its tangent half-plane at the corner,
so their lens stays inside the corner's tangent wedge, which the line
separates from T.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .disks import Arc, ArcRegion, Disk, PairKind, RegionKind, _scaled, disk_side, pair_relation
from .radicals import (
    QuadPoint,
    QuadVal,
    Vec,
    _arm,
    _normalize,
    ccw_in_span,
    dist_sq,
    qcmp,
    quad_bounds,
    sqrt_bounds,
)
from .records import Record

Interval = tuple[Fraction, Fraction]


class ArcInterior(Record):
    arc: int


class Corner(Record):
    corner: int


GFeature = Union[ArcInterior, Corner]


class ClosestPairResult(Record):
    """Closest pair between a query disk and a disjoint region.

    ``on_g`` and ``center_gap_sq`` (the squared distance from the region
    point to the query disk's center) are exact. The matching point on
    the query disk boundary and the squared pair distance involve one
    more square root; they are exact when that root collapses to a
    rational and certified enclosures otherwise.
    """

    query: Disk
    on_g: QuadPoint
    feature: GFeature
    center_gap_sq: QuadVal
    on_t_exact: QuadPoint | None
    gap_sq_exact: QuadVal | None

    def _gap_enclosures(self, bits: int):
        """Yield ``(work, (s_lo, s_hi), (r_lo, r_hi))``: enclosures of
        ``center_gap_sq`` and of its square root at ``work`` bits, from
        ``bits + 8`` on, doubling ``work`` on each step."""
        work = bits + 8
        while True:
            s_lo, s_hi = quad_bounds(self.center_gap_sq, work)
            r_lo, _ = sqrt_bounds(max(s_lo, Fraction(0)), work)
            _, r_hi = sqrt_bounds(s_hi, work)
            yield work, (s_lo, s_hi), (r_lo, r_hi)
            work *= 2

    def squared_distance(self, bits: int = 53) -> Interval:
        """Certified enclosure of the squared pair distance, width <= 2**-bits."""
        if self.gap_sq_exact is not None:
            return quad_bounds(self.gap_sq_exact, bits)
        rt = self.query.r
        for _, (s_lo, s_hi), (r_lo, r_hi) in self._gap_enclosures(bits):
            lo = s_lo + rt * rt - 2 * rt * r_hi
            hi = s_hi + rt * rt - 2 * rt * r_lo
            if hi - lo <= Fraction(1, 2**bits):
                return lo, hi

    def on_t(self, bits: int = 53) -> tuple[Interval, Interval]:
        """Certified enclosure of the closest point on the query boundary."""
        if self.on_t_exact is not None:
            return quad_bounds(self.on_t_exact.x, bits), quad_bounds(self.on_t_exact.y, bits)
        t = self.query
        ux, uxr, uy, uyr, e = _arm(self.on_g, t.X, t.Y, t.M)  # on_g minus t's centre
        wm = self.on_g.w * t.M
        offsets = ((_normalize(ux, uxr, e, wm), t.x), (_normalize(uy, uyr, e, wm), t.y))
        for work, _, (den_lo, den_hi) in self._gap_enclosures(bits):
            if den_lo <= 0:
                continue
            out = []
            for offset, c in offsets:
                u_lo, u_hi = quad_bounds(offset, work)
                quots = [u_lo / den_lo, u_lo / den_hi, u_hi / den_lo, u_hi / den_hi]
                out.append((c + t.r * min(quots), c + t.r * max(quots)))
            if all(hi - lo <= Fraction(1, 2**bits) for lo, hi in out):
                return out[0], out[1]


def _corner(t: Disk, corner: QuadPoint, i: int) -> ClosestPairResult:
    center_gap_sq = dist_sq(corner, t.X, t.Y, t.M)
    gap_sq = None
    if center_gap_sq.is_rational:
        # (sqrt(s) - R/M)^2 for s = P/W, where sqrt(s) = sqrt(P*W)/W
        P, W, R, M = center_gap_sq.p, center_gap_sq.w, t.R, t.M
        gap_sq = _normalize(M * M * P + R * R * W, -2 * R * M, P * W, W * M * M)
    return ClosestPairResult(t, corner, Corner(i), center_gap_sq, None, gap_sq)


def _foot(
    t: Disk, center: QuadPoint, carrier: Disk, arc: Arc | None, i: int
) -> ClosestPairResult | None:
    """The carrier-circle point facing t's center (``center``), or None
    when that direction misses the arc's span or t's center is the
    carrier's."""
    cx, cy, r, tx, ty, rt, m = _scaled(carrier, t)
    wx, wy = tx - cx, ty - cy
    if not (wx or wy):
        return None
    if arc is not None and not ccw_in_span(center, arc.start, arc.end, carrier.X, carrier.Y, carrier.M):
        return None
    # At the pair's scale m the centre offset is (wx, wy), of length sqrt(d2)
    d2 = wx * wx + wy * wy
    on_g = QuadPoint(cx * d2, r * wx, cy * d2, r * wy, d2, m * d2)
    # t's center outside the carrier circle: its nearest boundary point is
    # back toward the carrier; inside: away from it.
    sign = -1 if d2 > r * r else 1
    on_t = QuadPoint(tx * d2, sign * rt * wx, ty * d2, sign * rt * wy, d2, m * d2)
    a = sign * r - rt  # |sqrt(d2) - r| - r_t is (a - sign*sqrt(d2))/m
    # its square and |sqrt(d2) - r|^2, exact in the extension by sqrt(d2)
    center_gap_sq = _normalize(d2 + r * r, -2 * r, d2, m * m)
    gap_sq = _normalize(a * a + d2, -2 * sign * a, d2, m * m)
    return ClosestPairResult(t, on_g, ArcInterior(i), center_gap_sq, on_t, gap_sq)


def closest_pair(t: Disk, g: ArcRegion) -> ClosestPairResult:
    """Closest pair between the disk t and the region g; they must be
    disjoint (checked exactly, a meeting pair raises ValueError)."""
    if g.kind is RegionKind.EMPTY:
        raise ValueError("region is empty; no closest pair exists")
    center = QuadPoint(t.X, 0, t.Y, 0, 0, t.M)
    if g.contains(center):
        raise ValueError("query disk meets the region")
    if g.kind is RegionKind.FULL:
        feet = [(g.family[g.full_index], None)]
    else:
        feet = [(g.family[arc.disk], arc) for arc in g.arcs]
    # Corners come first: a foot at an arc end is that corner exactly, so
    # its gap ties and the strict comparison keeps the corner.
    candidates = [_corner(t, c, i) for i, c in enumerate(g.corners())]
    candidates += [_foot(t, center, carrier, arc, i) for i, (carrier, arc) in enumerate(feet)]
    best = None
    for cand in candidates:
        if cand is not None and (best is None or qcmp(cand.center_gap_sq, best.center_gap_sq) < 0):
            best = cand
    if qcmp(best.center_gap_sq, _normalize(t.R * t.R, 0, 0, t.M * t.M)) <= 0:
        raise ValueError("query disk meets the region")
    return best


class SeparatingLine(Record):
    """Line through the region-side closest point, normal to the segment.

    ``normal`` points from the region toward the query disk; the region is
    in the closed half-plane ``normal . (p - point) <= 0`` and the query
    disk strictly in the other one. ``carriers`` are the disks whose
    circles carry the closest feature; ``separated`` is the subset of them
    verified disjoint from the query disk by the exact pair predicate.
    For a corner feature the query disk and the two carriers never have a
    joint common point, even when a carrier alone still reaches the disk.
    """

    point: QuadPoint
    normal: Vec
    feature: GFeature
    carriers: tuple[int, ...]
    separated: tuple[int, ...]
    closest: ClosestPairResult


def separating_line(t: Disk, g: ArcRegion) -> SeparatingLine:
    res = closest_pair(t, g)
    # t's centre minus the point: the point's arm about t's centre, negated
    ux, uxr, uy, uyr, e = _arm(res.on_g, t.X, t.Y, t.M)
    wm = res.on_g.w * t.M
    normal: Vec = (_normalize(-ux, -uxr, e, wm), _normalize(-uy, -uyr, e, wm))

    if g.kind is RegionKind.POINT:
        carriers = tuple(i for i, d in enumerate(g.family) if disk_side(g.point, d) == 0)
    elif g.kind is RegionKind.FULL:
        carriers = (g.full_index,)
    elif isinstance(res.feature, ArcInterior):
        carriers = (g.arcs[res.feature.arc].disk,)
    else:
        k = res.feature.corner
        carriers = tuple(sorted({g.arcs[k - 1].disk, g.arcs[k].disk}))

    separated = tuple(
        i for i in carriers if pair_relation(t, g.family[i]).kind is PairKind.DISJOINT
    )
    return SeparatingLine(
        point=res.on_g,
        normal=normal,
        feature=res.feature,
        carriers=carriers,
        separated=separated,
        closest=res,
    )
