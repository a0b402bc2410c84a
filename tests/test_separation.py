import random
from collections import Counter
from fractions import Fraction
from math import isqrt

import pytest

from helly import (
    ArcInterior,
    Corner,
    Disk,
    PairKind,
    closest_pair,
    disk,
    in_disk,
    intersect_region,
    pair_relation,
    qpoint,
    same_point,
    separating_line,
    triple_meet,
)
from helly.disks import RegionKind
from helly.instances import gen_helly_disks
from helly.radicals import ccw_in_span, qcmp, quadpoint, quadval, turn_about
from helly.separation import _corner
from helpers import (
    beyond_foot_sign,
    cross_sign,
    lattice_family,
    prime_family,
    random_family,
    ring_family,
    sign_nested,
    vec_from,
    vec_in_ccw_span,
)


def _symmetric_lens(a, r):
    return intersect_region([disk(0, -a, r), disk(0, a, r)])


def test_full_disk_collinear_golden():
    g = intersect_region([disk(0, 0, 1)])
    res = closest_pair(disk(4, 0, 1), g)
    assert res.feature == ArcInterior(0)
    assert same_point(res.on_g, qpoint(1, 0))
    assert same_point(res.on_t_exact, qpoint(3, 0))
    assert res.gap_sq_exact.rational() == 4
    lo, hi = res.squared_distance(30)
    assert lo == hi == 4


def test_corner_closest_golden():
    g = _symmetric_lens(1, Fraction(3, 2))
    t = disk(4, 0, 1)
    res = closest_pair(t, g)
    assert isinstance(res.feature, Corner)
    expected = quadpoint(quadval(0, Fraction(1, 2), 5), quadval(0))
    assert same_point(res.on_g, expected)
    # squared pair distance encloses (4 - sqrt(5)/2 - 1)^2
    lo, hi = res.squared_distance(40)
    approx = (4 - 5 ** 0.5 / 2 - 1) ** 2
    assert float(lo) <= approx <= float(hi)
    assert hi - lo <= Fraction(1, 2**40)
    sep = separating_line(t, g)
    assert sep.carriers == (0, 1)
    assert sep.separated == (0, 1)
    for i in sep.separated:
        assert pair_relation(t, g.family[i]).kind is PairKind.DISJOINT


def test_arc_interior_golden_above():
    g = _symmetric_lens(1, Fraction(3, 2))
    t = disk(0, 4, 1)
    res = closest_pair(t, g)
    assert isinstance(res.feature, ArcInterior)
    # the minimizing arc is carried by the lower-centered disk
    assert g.arcs[res.feature.arc].disk == 0
    assert same_point(res.on_g, qpoint(0, Fraction(1, 2)))
    assert res.gap_sq_exact.rational() == Fraction(25, 4)
    sep = separating_line(t, g)
    assert sep.carriers == (0,)
    assert sep.separated == (0,)


def test_foot_at_arc_end_loses_the_tie_to_the_corner():
    # disk 0's foot toward (6, 7) is exactly the corner (3/4, 0): the two
    # candidates tie and the corner, scanned first, is kept
    g = _symmetric_lens(1, Fraction(5, 4))
    t = disk(6, 7, 1)
    res = closest_pair(t, g)
    assert res.feature == Corner(0)
    assert same_point(res.on_g, qpoint(Fraction(3, 4), 0))
    assert res.gap_sq_exact.rational() == Fraction(961, 16)
    sep = separating_line(t, g)
    assert sep.carriers == (0, 1)
    assert sep.separated == (0, 1)


def test_single_point_region():
    g = intersect_region([disk(0, 0, 1), disk(2, 0, 1)])
    assert g.kind is RegionKind.POINT
    t = disk(5, 0, 1)
    res = closest_pair(t, g)
    assert res.feature == Corner(0)
    assert same_point(res.on_g, qpoint(1, 0))
    assert res.gap_sq_exact is not None  # rational corner, exact output
    sep = separating_line(t, g)
    assert set(sep.carriers) == {0, 1}
    assert sep.separated == (0, 1)


def test_meeting_query_rejected():
    g = intersect_region([disk(0, 0, 1)])
    with pytest.raises(ValueError):
        closest_pair(disk(1, 0, 1), g)  # overlaps
    with pytest.raises(ValueError):
        closest_pair(disk(2, 0, 1), g)  # osculates: closed disks meet
    with pytest.raises(ValueError):
        closest_pair(disk(0, 0, Fraction(1, 4)), g)  # contained


def test_empty_region_rejected():
    g = intersect_region([disk(0, 0, 1), disk(5, 0, 1)])
    with pytest.raises(ValueError):
        closest_pair(disk(10, 0, 1), g)


def test_corner_query_touching_region_rejected():
    wide = [disk(0, Fraction(-3, 2), Fraction(5, 2)), disk(0, Fraction(3, 2), Fraction(5, 2))]
    g = intersect_region(wide)
    # osculates the region exactly at the rational corner (2, 0)
    with pytest.raises(ValueError):
        closest_pair(disk(3, 0, 1), g)


def test_wide_corner_carriers_can_meet_query_but_triple_is_empty():
    # corner angle wider than a right angle with huge carrier disks: the
    # carriers wrap around the separating line and reach the query disk,
    # yet the query disk and the two carriers still have no joint point
    di = disk(Fraction(-14, 5), Fraction(48, 5), 10)
    dj = disk(Fraction(-14, 5), Fraction(-48, 5), 10)
    t = disk(1, 0, Fraction(1, 2))
    g = intersect_region([di, dj])
    res = closest_pair(t, g)
    assert isinstance(res.feature, Corner)
    assert same_point(res.on_g, qpoint(0, 0))
    sep = separating_line(t, g)
    assert sep.carriers == (0, 1)
    assert sep.separated == ()  # both carriers meet t individually
    assert pair_relation(t, di).kind is PairKind.PROPER_LENS
    assert pair_relation(t, dj).kind is PairKind.PROPER_LENS
    assert not triple_meet(t, di, dj)


def _assert_line_guarantees(t, g, sep):
    nn = sep.normal[0] * sep.normal[0] + sep.normal[1] * sep.normal[1]
    # every corner of g on the closed region side: with u, v the vectors
    # from t's center to the corner and to the line point, the side test
    # (corner - point) . normal <= 0 reads (u - v) . v >= 0
    v = vec_from(sep.point, t.x, t.y)
    for c in g.corners():
        u = vec_from(c, t.x, t.y)
        assert beyond_foot_sign(u, v) >= 0
    # every arc stays on the region side: its extreme point along the
    # normal is either an endpoint (a corner, already checked) or the
    # normal-direction foot, checked via one nested-radical sign
    if g.kind is RegionKind.REGION:
        for arc in g.arcs:
            carrier = g.family[arc.disk]
            a = vec_from(arc.start, carrier.x, carrier.y)
            b = vec_from(arc.end, carrier.x, carrier.y)
            if vec_in_ccw_span(sep.normal, a, b):
                base = (quadval(carrier.x) - sep.point.x) * sep.normal[0] + (
                    quadval(carrier.y) - sep.point.y
                ) * sep.normal[1]
                assert sign_nested(base, carrier.r, nn) <= 0
    # the query disk strictly on the other side reduces to the exact
    # disjointness margin: |center gap|^2 > r_t^2
    assert qcmp(sep.closest.center_gap_sq, quadval(t.r * t.r)) > 0


def test_separation_guarantees_on_random_disjoint_instances():
    rng = random.Random(60601)
    built = 0
    while built < 60:
        fam = random_family(rng, n=rng.randint(1, 4), span=6, rhi=6)
        g = intersect_region(fam)
        if g.is_empty:
            continue
        t = Disk(
            Fraction(rng.randint(8, 30)), Fraction(rng.randint(-20, 20)), Fraction(rng.randint(1, 4))
        )
        try:
            sep = separating_line(t, g)
        except ValueError:
            continue
        built += 1
        _assert_line_guarantees(t, g, sep)
        for i in sep.separated:
            assert pair_relation(t, g.family[i]).kind is PairKind.DISJOINT
        if isinstance(sep.feature, Corner) and len(sep.carriers) == 2:
            assert not triple_meet(t, g.family[sep.carriers[0]], g.family[sep.carriers[1]])


def test_closest_pair_minimum_beats_all_corners():
    rng = random.Random(424242)
    built = 0
    while built < 40:
        fam = random_family(rng, n=rng.randint(2, 4), span=5, rhi=6)
        g = intersect_region(fam)
        if g.kind is not RegionKind.REGION:
            continue
        t = Disk(Fraction(rng.randint(10, 25)), Fraction(rng.randint(-12, 12)), Fraction(1))
        try:
            res = closest_pair(t, g)
        except ValueError:
            continue
        built += 1
        for c in g.corners():
            ux, uy = vec_from(c, t.x, t.y)
            assert qcmp(res.center_gap_sq, ux * ux + uy * uy) <= 0
    # Every region kind on tangency-heavy lattice families: the minimum is
    # attained at a region point and beats every corner and every sampled
    # rational point of the region's carrier circles.
    rng = random.Random(5150)
    seen = Counter()
    while min(seen[k] for k in (RegionKind.FULL, RegionKind.POINT, RegionKind.REGION)) < 15:
        fam = lattice_family(rng)
        g = intersect_region(fam[: rng.randint(1, len(fam))])
        if g.is_empty or seen[g.kind] >= 15:
            continue
        t = disk(rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(1, 3))
        try:
            res = closest_pair(t, g)
        except ValueError:
            continue
        seen[g.kind] += 1
        assert g.contains(res.on_g)
        assert qcmp(res.center_gap_sq, _center_gap_sq(t, res.on_g)) == 0
        for p in _sample_points(g):
            assert qcmp(res.center_gap_sq, _center_gap_sq(t, p)) <= 0, (fam, t)


def _center_gap_sq(t, p):
    ux, uy = vec_from(p, t.x, t.y)
    return ux * ux + uy * uy


def _sample_points(g):
    """The corners of g, plus the rational points of its carrier circles
    at half-angle tangents k/2 that lie in g."""
    points = list(g.corners())
    for d in g.family:
        for k in range(-4, 5):
            s = Fraction(k, 2)
            cos, sin = (1 - s * s) / (1 + s * s), 2 * s / (1 + s * s)
            for sign in (1, -1):
                p = qpoint(d.x + sign * d.r * cos, d.y + sign * d.r * sin)
                if g.contains(p):
                    points.append(p)
    return points


def test_one_disjointness_rule_matches_the_pair_predicates():
    # A full disk raises exactly when the exact pair predicate says it
    # meets the query; a point region exactly when the query contains it.
    rng = random.Random(7007)
    seen = Counter()
    while len(seen) < 4 or min(seen.values()) < 25:
        fam = lattice_family(rng)[: rng.randint(1, 2)]
        g = intersect_region(fam)
        if g.kind not in (RegionKind.FULL, RegionKind.POINT):
            continue
        if min(seen[g.kind, False], seen[g.kind, True]) >= 25:
            continue  # this kind is covered; keep drawing for the other
        for _ in range(4):
            t = disk(rng.randint(-6, 6), rng.randint(-6, 6), rng.randint(1, 4))
            try:
                closest_pair(t, g)
                raised = False
            except ValueError:
                raised = True
            if g.kind is RegionKind.FULL:
                meets = pair_relation(t, g.family[g.full_index]).kind is not PairKind.DISJOINT
            else:
                meets = in_disk(g.point, t)
            assert raised == meets, (fam, t)
            seen[g.kind, raised] += 1


def test_on_t_enclosure_tightens():
    g = _symmetric_lens(1, Fraction(3, 2))
    res = closest_pair(disk(4, 0, 1), g)
    (xlo, xhi), (ylo, yhi) = res.on_t(60)
    assert xhi - xlo <= Fraction(1, 2**60)
    assert yhi - ylo <= Fraction(1, 2**60)
    # geometric expectation: on_t = (4,0) - unit_x = (3, 0)
    assert abs(float(xlo) - 3.0) < 1e-9
    assert abs(float(ylo) - 0.0) < 1e-9


def test_on_t_retries_until_the_root_clears_zero():
    # a query disk of radius 2**-81 just above the lens corner (1/2, sqrt(3)/2):
    # the corner is closest, its centre gap is irrational and about 2**-79,
    # so the root's lower bound is 0 at work 61 and 122 and on_t doubles twice
    r, y = Fraction(1, 2**81), Fraction(isqrt(3 * 4**100), 2**101) + Fraction(1, 2**79)
    res = closest_pair(Disk(Fraction(1, 2), y, r), intersect_region([disk(0, 0, 1), disk(1, 0, 1)]))
    assert isinstance(res.feature, Corner)
    assert res.on_t_exact is None and not res.center_gap_sq.is_rational
    steps = res._gap_enclosures(53)
    roots = [(work, r_lo) for work, _, (r_lo, _) in (next(steps) for _ in range(3))]
    assert [work for work, _ in roots] == [61, 122, 244]
    assert [r_lo == 0 for _, r_lo in roots] == [True, True, False]
    width = Fraction(1, 2**53)
    (xlo, xhi), (ylo, yhi) = res.on_t(53)
    assert xlo <= Fraction(1, 2) <= xhi and ylo <= y - r <= yhi
    assert xhi - xlo <= width and yhi - ylo <= width
    # (y - sqrt(3)/2 - r)^2 from sqrt(3) in [s, s + 1]/2**200, independently
    s = isqrt(3 * 4**200)
    gap_lo, gap_hi = y - Fraction(s + 1, 2**201) - r, y - Fraction(s, 2**201) - r
    lo, hi = res.squared_distance(53)
    assert 0 < gap_lo and lo <= gap_hi * gap_hi and gap_lo * gap_lo <= hi
    assert hi - lo <= width


def _differential_regions():
    """Proper regions of ``gen_helly_disks`` in decreasing radius, of
    rings, of prime-denominator families and of radius-5 disks centred at
    sums of two lattice points of the radius-5 circle, whose lens corners
    are often rational."""
    rng = random.Random(2121)
    families = []
    for seed in range(32):
        fam = gen_helly_disks(rng.randint(6, 24), seed)
        fam.sort(key=lambda d: d.r, reverse=True)
        families.append(fam)
    families += [ring_family(n) for n in (5, 12, 24, 40)]
    families += [prime_family(rng, rng.randint(4, 10), planted=True) for _ in range(15)]
    on5 = [(a, b) for a in range(-5, 6) for b in range(-5, 6) if a * a + b * b == 25]
    sums = sorted({(a + c, b + d) for a, b in on5 for c, d in on5 if (a + c) ** 2 + (b + d) ** 2 <= 40})
    families += [[disk(*rng.choice(sums), 5) for _ in range(rng.randint(2, 5))] for _ in range(80)]
    # lenses with a half-turn arc: the chord runs through the first centre
    families += [[disk(0, 0, 5), disk(0, 12, 13)], [disk(0, 0, 3), disk(-4, 0, 5)]]
    regions = [intersect_region(fam) for fam in families]
    return [g for g in regions if g.kind is RegionKind.REGION]


def _query_centres(rng, arc, c):
    """Ten random rational points, and points on the lines from c's centre
    through the arc's rational ends, where the closed span test is tight."""
    def rat():
        return Fraction(rng.randint(-90, 90), rng.randint(1, 7))

    out = [(rat(), rat()) for _ in range(10)]
    for p in (arc.start, arc.end):
        if p.x.is_rational and p.y.is_rational:
            px, py = p.x.rational(), p.y.rational()
            out += [(c.x + s * (px - c.x), c.y + s * (py - c.y)) for s in (Fraction(1, 3), 2, -1)]
    return [q for q in out if q != (c.x, c.y)]


def test_integer_forms_agree_with_the_fraction_vector_forms():
    """The foot's span test, the drawing's large-arc flag and the corner's
    centre gap on integer arms agree with their ``QuadVal`` vector
    references, for rational query centres against every arc."""
    rng = random.Random(2122)
    flags, feet, on_rays, half_turns = 0, [], 0, 0
    for g in _differential_regions():
        for arc in g.arcs:
            c = g.family[arc.disk]
            a, b = vec_from(arc.start, c.x, c.y), vec_from(arc.end, c.x, c.y)
            large = turn_about(arc.start, arc.end, c.X, c.Y, c.M) < 0
            assert large == (cross_sign(a, b) < 0)
            flags += 1
            half_turns += cross_sign(a, b) == 0
            centres = _query_centres(rng, arc, c)
            on_rays += len(centres) - 10
            for x, y in centres:
                w = (quadval(x - c.x), quadval(y - c.y))
                inside = ccw_in_span(qpoint(x, y), arc.start, arc.end, c.X, c.Y, c.M)
                assert inside == vec_in_ccw_span(w, a, b)
                feet.append(inside)
                t = Disk(x, y, Fraction(1, rng.randint(1, 5)))
                ux, uy = vec_from(arc.start, x, y)
                assert qcmp(_corner(t, arc.start, 0).center_gap_sq, ux * ux + uy * uy) == 0
    assert len(feet) > 2000 and flags > 200 and on_rays > 300 and half_turns >= 2
    assert 0 < feet.count(True) < len(feet)
