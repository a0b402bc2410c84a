import itertools
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from helly import (
    CommonPoint,
    PairKind,
    RegionKind,
    ViolatingTriple,
    disk,
    in_disk,
    intersect_region,
    minimalist_helly_check,
    pair_relation,
    qpoint,
    same_point,
    triple_meet,
)
import helly.disks
import helly.radicals
from helly.disks import disk_side, walk_order
from helly.instances import gen_helly_disks, gen_random_disks, venn_triple
from helly.oracles import GridSpec, grid_meet_oracle, inside, lowest_common_point
from helly.radicals import quadpoint, quadval
from helly.separation import ArcInterior, separating_line
from helpers import (
    first_violating_triple,
    lattice_family,
    midpoint_side,
    prime_family,
    quadval_disk_side,
    random_family,
    ring_family,
)

EPS = Fraction(1, 10**9)


# -- pair relations ----------------------------------------------------------


def test_pair_disjoint():
    assert pair_relation(disk(0, 0, 1), disk(3, 0, 1)).kind is PairKind.DISJOINT


def test_pair_external_osculation_point():
    rel = pair_relation(disk(0, 0, 1), disk(2, 0, 1))
    assert rel.kind is PairKind.EXTERNAL_OSCULATION
    assert same_point(rel.corners[0], qpoint(1, 0)) and rel.corners[0].d == 0


def test_pair_proper_containment():
    rel = pair_relation(disk(0, 0, 2), disk(Fraction(1, 2), 0, 1))
    assert rel.kind is PairKind.PROPER_CONTAINMENT
    assert rel.inner == 1


def test_pair_internal_tangency_point():
    rel = pair_relation(disk(0, 0, 2), disk(1, 0, 1))
    assert rel.kind is PairKind.INTERNAL_TANGENCY
    assert same_point(rel.corners[0], qpoint(2, 0)) and rel.corners[0].d == 0
    assert rel.inner == 1


def test_pair_internal_tangency_point_mirrored():
    # the smaller disk first: the same point from the same formula
    rel = pair_relation(disk(1, 0, 1), disk(0, 0, 2))
    assert rel.kind is PairKind.INTERNAL_TANGENCY
    assert same_point(rel.corners[0], qpoint(2, 0)) and rel.corners[0].d == 0
    assert rel.inner == 0


def test_pair_equal():
    assert pair_relation(disk(1, 2, 3), disk(1, 2, 3)).kind is PairKind.EQUAL


def test_pair_proper_lens():
    assert pair_relation(disk(0, 0, 1), disk(1, 0, 1)).kind is PairKind.PROPER_LENS


def test_tangency_flips_exactly_under_tiny_radius_change():
    # external tangency at radius 1 flips to lens (+eps) or disjoint (-eps)
    base = disk(0, 0, 1)
    assert pair_relation(base, disk(2, 0, 1)).kind is PairKind.EXTERNAL_OSCULATION
    assert pair_relation(base, disk(2, 0, 1 + EPS)).kind is PairKind.PROPER_LENS
    assert pair_relation(base, disk(2, 0, 1 - EPS)).kind is PairKind.DISJOINT
    # internal tangency flips to lens (+eps on inner) or containment (-eps)
    outer = disk(0, 0, 2)
    assert pair_relation(outer, disk(1, 0, 1)).kind is PairKind.INTERNAL_TANGENCY
    assert pair_relation(outer, disk(1, 0, 1 + EPS)).kind is PairKind.PROPER_LENS
    assert pair_relation(outer, disk(1, 0, 1 - EPS)).kind is PairKind.PROPER_CONTAINMENT


def test_radius_must_be_positive():
    with pytest.raises(ValueError):
        disk(0, 0, 0)


# -- lenses ------------------------------------------------------------------


def test_unit_lens_corners_exact():
    lens = intersect_region([disk(0, 0, 1), disk(1, 0, 1)])
    assert lens.kind is RegionKind.REGION
    assert len(lens.arcs) == 2
    lower = quadpoint(quadval(Fraction(1, 2)), quadval(0, Fraction(-1, 2), 3))
    upper = quadpoint(quadval(Fraction(1, 2)), quadval(0, Fraction(1, 2), 3))
    assert same_point(lens.arcs[0].start, lower)
    assert same_point(lens.arcs[0].end, upper)
    assert same_point(lens.arcs[1].start, upper)
    assert same_point(lens.arcs[1].end, lower)
    assert lens.arcs[0].disk == 0 and lens.arcs[1].disk == 1


def test_identical_disks_lens_is_full_disk():
    assert intersect_region([disk(0, 0, 1), disk(0, 0, 1)]).kind is RegionKind.FULL


def test_osculating_lens_is_single_point():
    lens = intersect_region([disk(0, 0, 1), disk(2, 0, 1)])
    assert lens.kind is RegionKind.POINT
    assert same_point(lens.point, qpoint(1, 0))


def test_disjoint_lens_empty():
    assert intersect_region([disk(0, 0, 1), disk(5, 0, 1)]).kind is RegionKind.EMPTY


def test_disk_side_matches_the_quadval_form():
    # lens corners lie on their own two circles, and lattice families put
    # many of them on a third circle or at a tangency: sign 0 beside the
    # two strict signs
    rng = random.Random(14001)
    signs = Counter()
    for n in range(400):
        fam = lattice_family(rng, den=1 + n % 2)
        points = [qpoint(d.x, d.y - d.r) for d in fam]
        for a, b in itertools.combinations(fam, 2):
            rel = pair_relation(a, b)
            if rel.kind in (PairKind.PROPER_LENS, PairKind.EXTERNAL_OSCULATION):
                points.extend(rel.corners)
        for p in points:
            for d in fam:
                side = disk_side(p, d)
                assert side == quadval_disk_side(p, d), (p, d)
                signs[side, p.x.d != 0 or p.y.d != 0] += 1
    # every sign, at rational points and at points with a radical
    assert set(signs) == {(s, r) for s in (-1, 0, 1) for r in (False, True)}, signs


# -- intersect_region --------------------------------------------------------


def _assert_region_invariants(region, family):
    if region.kind is RegionKind.REGION:
        m = len(region.arcs)
        assert m >= 2
        for i in range(m):
            assert same_point(region.arcs[i].end, region.arcs[(i + 1) % m].start)
        for c in region.corners():
            for d in family:
                assert in_disk(c, d)
        corners = region.corners()
        for i, j in itertools.combinations(range(len(corners)), 2):
            for d in family:
                assert midpoint_side(corners[i], corners[j], d) <= 0
    elif region.kind is RegionKind.POINT:
        for d in family:
            assert in_disk(region.point, d)


def test_copies_of_one_disk_revert_to_full_circle():
    region = intersect_region([disk(0, 0, 1)] * 6)
    assert region.kind is RegionKind.FULL
    assert region.full_index == 0


def test_venn_triple_pairs_lens_but_empty():
    fam = venn_triple()
    for a, b in itertools.combinations(fam, 2):
        assert pair_relation(a, b).kind is PairKind.PROPER_LENS
    assert intersect_region(fam).kind is RegionKind.EMPTY
    assert not triple_meet(*fam)
    # circumradius^2 = 4225/3136 exceeds (21/20)^2 = 441/400
    assert Fraction(4225, 3136) > Fraction(441, 400)


def test_bigger_radius_gives_three_arc_region():
    fam = [disk(0, 0, Fraction(3, 2)), disk(2, 0, Fraction(3, 2)), disk(1, Fraction(7, 4), Fraction(3, 2))]
    region = intersect_region(fam)
    assert region.kind is RegionKind.REGION
    assert len(region.arcs) == 3
    assert sorted(a.disk for a in region.arcs) == [0, 1, 2]
    _assert_region_invariants(region, fam)
    # one-sided grid confirmation of nonemptiness
    g = GridSpec(Fraction(0), Fraction(0), Fraction(2), Fraction(2), 30)
    assert grid_meet_oracle(fam, g) is not None


def test_osculating_pair_with_disk_through_touch_point():
    fam = [disk(0, 0, 1), disk(2, 0, 1), disk(1, 1, 1)]
    region = intersect_region(fam)
    assert region.kind is RegionKind.POINT
    assert same_point(region.point, qpoint(1, 0))


def test_tangent_clip_collapses_to_corner():
    wide = [disk(0, Fraction(-3, 2), Fraction(5, 2)), disk(0, Fraction(3, 2), Fraction(5, 2))]
    for third in (disk(4, 0, 2), disk(3, 0, 1)):
        region = intersect_region(wide + [third])
        assert region.kind is RegionKind.POINT
        assert same_point(region.point, qpoint(2, 0))


def test_clip_through_both_corners_keeps_region():
    wide = [disk(0, Fraction(-3, 2), Fraction(5, 2)), disk(0, Fraction(3, 2), Fraction(5, 2))]
    region = intersect_region(wide + [disk(0, 0, 2)])
    assert region.kind is RegionKind.REGION
    assert len(region.arcs) == 2


def test_small_disk_inside_region_becomes_full():
    wide = [disk(0, Fraction(-3, 2), Fraction(5, 2)), disk(0, Fraction(3, 2), Fraction(5, 2))]
    region = intersect_region(wide + [disk(0, 0, Fraction(1, 2))])
    assert region.kind is RegionKind.FULL
    assert region.full_index == 2


def test_nested_tangent_disks_reduce_to_innermost():
    region = intersect_region([disk(0, 0, 2), disk(1, 0, 1), disk(Fraction(3, 2), 0, Fraction(1, 2))])
    assert region.kind is RegionKind.FULL
    assert region.full_index == 2


def test_disk_inside_region_tangent_to_its_boundary_becomes_full():
    # disk 2 lies in the lens of disks 0 and 1 and touches disk 0 from
    # inside at (-4, -3): the intersection is all of disk 2, not the point
    region = intersect_region([disk(0, -3, 4), disk(-2, -2, 4), disk(-2, -3, 2)])
    assert region.kind is RegionKind.FULL
    assert region.full_index == 2


def test_disk_inside_region_tangent_to_two_arcs_becomes_full():
    # disk 2 touches both lens arcs from inside, at (2, 0) and (1, -1)
    region = intersect_region([disk(0, 0, 2), disk(1, 1, 2), disk(1, 0, 1)])
    assert region.kind is RegionKind.FULL
    assert region.full_index == 2


def test_duplicates_do_not_change_result():
    fam = [disk(0, 0, 1), disk(1, 0, 1)]
    with_dups = [disk(0, 0, 1), disk(0, 0, 1), disk(1, 0, 1), disk(1, 0, 1)]
    a = intersect_region(fam)
    b = intersect_region(with_dups)
    assert a.kind == b.kind
    assert len(a.arcs) == len(b.arcs)
    for p in a.corners():
        assert any(same_point(p, q) for q in b.corners())
    # seeded families with 1-5 copies of their own disks, each after the
    # disk it copies: the same region, with every index naming the first
    # of equal disks
    rng = random.Random(2828)
    families = [gen_helly_disks(rng.randint(3, 16), seed) for seed in range(20)]
    families += [gen_random_disks(rng.randint(3, 6), seed) for seed in range(20)]
    families += [lattice_family(rng, rng.choice((1, 2))) for _ in range(120)]
    families.append(ring_family(40))
    for fam in families:
        with_dups = list(fam)
        for _ in range(rng.randint(1, 5)):
            i = rng.randrange(len(with_dups))
            with_dups.insert(rng.randint(i + 1, len(with_dups)), with_dups[i])
        a, b = intersect_region(fam), intersect_region(with_dups)
        assert a.kind == b.kind, fam
        if a.kind is RegionKind.FULL:
            assert fam[a.full_index] == with_dups[b.full_index], fam
        elif a.kind is RegionKind.POINT:
            assert same_point(a.point, b.point), fam
        assert len(a.arcs) == len(b.arcs), fam
        for x, y in zip(a.arcs, b.arcs):
            assert fam[x.disk] == with_dups[y.disk], fam
            assert same_point(x.start, y.start) and same_point(x.end, y.end), fam
        indices = [b.full_index] if b.kind is RegionKind.FULL else [arc.disk for arc in b.arcs]
        assert all(with_dups.index(with_dups[i]) == i for i in indices), fam


def test_empty_family_rejected():
    with pytest.raises(ValueError):
        intersect_region([])


def _assert_order_independent(region, fam, rng):
    """The region of a shuffled family is the same set: same kind, same
    full disk, same point, same corners."""
    perm = list(fam)
    rng.shuffle(perm)
    other = intersect_region(perm)
    assert other.kind == region.kind, fam
    if region.kind is RegionKind.FULL:
        assert fam[region.full_index] == perm[other.full_index], fam
    elif region.kind is RegionKind.POINT:
        assert same_point(region.point, other.point), fam
    elif region.kind is RegionKind.REGION:
        a, b = region.corners(), other.corners()
        assert len(a) == len(b), fam
        for p in a:
            assert any(same_point(p, q) for q in b), fam


def test_region_invariants_on_random_families():
    rng = random.Random(2024)
    for i in range(750):
        # 150 random rational families, then 600 tangency-heavy lattice ones
        fam = random_family(rng, n=rng.randint(2, 7)) if i < 150 else lattice_family(rng)
        region = intersect_region(fam)
        _assert_region_invariants(region, fam)
        _assert_order_independent(region, fam, rng)
        # one-sided grid oracle: a found point certifies nonemptiness
        xs = [d.x for d in fam]
        ys = [d.y for d in fam]
        g = GridSpec(min(xs) - 2, min(ys) - 2, max(xs) + 2, max(ys) + 2, 12)
        hit = grid_meet_oracle(fam, g)
        if hit is not None:
            assert not region.is_empty


# -- triple_meet -------------------------------------------------------------


def test_triple_meet_explicit_common_point():
    fam = [disk(0, 0, 2), disk(1, 0, 2), disk(0, 1, 2)]
    assert triple_meet(*fam)


def test_triple_meet_osculation_on_third_boundary():
    # disks osculate at (1,0); third disk's boundary passes through it
    assert triple_meet(disk(0, 0, 1), disk(2, 0, 1), disk(1, -2, 2))


def test_triple_meet_containment_reduction():
    inner = disk(0, 0, 1)
    outer = disk(0, 0, 5)
    assert triple_meet(inner, outer, disk(2, 0, 1))
    assert not triple_meet(inner, outer, disk(3, 0, 1))


def test_triple_meet_matches_region_on_randoms():
    rng = random.Random(31337)
    for _ in range(300):
        a, b, c = (random_family(rng, n=3, span=8, rhi=8))
        assert triple_meet(a, b, c) == (not intersect_region([a, b, c]).is_empty)


def test_triple_meet_matches_region_on_tangent_configurations():
    cases = [
        [disk(0, 0, 1), disk(2, 0, 1), disk(1, 5, 5)],
        [disk(0, 0, 1), disk(2, 0, 1), disk(4, 0, 1)],
        [disk(0, 0, 2), disk(1, 0, 1), disk(2, 0, 4)],
        [disk(0, 0, 2), disk(1, 0, 1), disk(5, 0, 1)],
        [disk(0, 0, 1), disk(0, 0, 1), disk(1, 0, 1)],
    ]
    for fam in cases:
        assert triple_meet(*fam) == (not intersect_region(fam).is_empty)


# -- minimalist_helly_check --------------------------------------------------


def test_check_requires_three_disks():
    with pytest.raises(ValueError):
        minimalist_helly_check([disk(0, 0, 1), disk(1, 0, 1)])


def test_check_radius_two_family_with_centroidal_disk():
    fam = [
        disk(0, 0, 2),
        disk(2, 0, 2),
        disk(1, Fraction(7, 4), 2),
        disk(1, Fraction(7, 12), 2),
    ]
    verdict = minimalist_helly_check(fam)
    assert isinstance(verdict, CommonPoint)
    for d in fam:
        assert in_disk(verdict.point, d)
    # the centroid itself lies in every disk: max center distance < 2
    centroid = qpoint(1, Fraction(7, 12))
    for d in fam:
        assert in_disk(centroid, d)


def test_check_venn_triple_with_huge_superset_disk():
    fam = venn_triple() + [disk(1, 1, 50)]
    verdict = minimalist_helly_check(fam)
    assert isinstance(verdict, ViolatingTriple)
    assert verdict.indices == (0, 1, 2)
    assert not triple_meet(fam[0], fam[1], fam[2])


def test_check_on_tangency_heavy_lattice_families():
    # Each verdict is checked by means independent of clipping.
    rng = random.Random(6000)
    grid = GridSpec(Fraction(-8), Fraction(-8), Fraction(8), Fraction(8), 16)
    for _ in range(1000):
        fam = lattice_family(rng)
        verdict = minimalist_helly_check(fam)
        if isinstance(verdict, CommonPoint):
            assert all(in_disk(verdict.point, d) for d in fam), fam
        else:
            triple = [fam[i] for i in verdict.indices]
            assert not triple_meet(*triple), fam
            # no lattice point of the triple, hence none of the family
            assert grid_meet_oracle(triple, grid) is None, fam


def test_check_planted_families_have_verified_common_point():
    for seed in range(20):
        fam = gen_helly_disks(8, seed=seed)
        verdict = minimalist_helly_check(fam)
        assert isinstance(verdict, CommonPoint)
        for d in fam:
            assert in_disk(verdict.point, d)


def test_check_point_is_the_lowest_point_of_the_oracle():
    rng = random.Random(14002)
    verdicts = Counter()
    for n in range(1200):
        if n % 3 == 2:
            fam = random_family(rng, n=rng.randint(3, 6), span=6, rhi=6)
        else:
            fam = lattice_family(rng, den=1 + n % 3)
        verdict = minimalist_helly_check(fam)
        lowest = lowest_common_point(fam)
        verdicts[type(verdict).__name__] += 1
        assert (lowest is None) == isinstance(verdict, ViolatingTriple), fam
        if lowest is not None:
            assert same_point(verdict.point, lowest), fam
            # the lowest point does not depend on the input order
            assert same_point(minimalist_helly_check(fam[::-1]).point, lowest), fam
    assert min(verdicts.values()) > 300, verdicts


def test_walk_order_golden():
    assert walk_order(10) == [8, 1, 7, 2, 6, 9, 0, 3, 4, 5]
    # a prefix is walked in the order restricted to it
    assert walk_order(6) == [i for i in walk_order(10) if i < 6]


def test_check_work_on_a_ring_is_linear(monkeypatch):
    # clipping these 200 disks takes quadratic time; the walk tests each
    # disk a few times
    calls = Counter()

    def counted(p, d):
        calls["in_disk"] += 1
        return in_disk(p, d)

    monkeypatch.setattr(helly.disks, "in_disk", counted)
    fam = ring_family(200)
    verdict = minimalist_helly_check(fam)
    assert isinstance(verdict, CommonPoint)
    assert calls["in_disk"] == 524
    # the lowest point is the bottom of the disk centred at (0, 1)
    assert same_point(verdict.point, qpoint(0, Fraction(-1, 2)))


# -- the violating triple from the emptying clip -----------------------------


@pytest.mark.parametrize(
    "fam, triple",
    [
        # full disk 0 misses disk 1; 2 is the smallest other index
        ([disk(0, 0, 5), disk(10, 10, 1), disk(0, 0, 1)], (0, 1, 2)),
        # the top of the lens is inside disk 0's arc, and disk 0 misses disk 2
        ([disk(0, -1, 2), disk(0, 1, 2), disk(0, 6, 1)], (0, 1, 2)),
        # a corner of the lens of disks 0 and 1 is closest to disk 2 (with a
        # superset disk after it: test_check_venn_triple_with_huge_superset_disk)
        (venn_triple(), (0, 1, 2)),
        # disks 0 and 1 touch at (1, 0), which disk 2 misses
        ([disk(0, 0, 1), disk(2, 0, 1), disk(0, 5, 1), disk(1, 3, 1)], (0, 1, 2)),
        # three circles through the origin; the first pair (0, 1) still meets disk 3
        (
            [disk(1, 0, 1), disk(Fraction(-3, 5), Fraction(4, 5), 1),
             disk(Fraction(-3, 5), Fraction(-4, 5), 1), disk(Fraction(-7, 4), 1, 2)],
            (0, 2, 3),
        ),
    ],
    ids=["full", "arc", "corner", "point-two", "point-three"],
)
def test_check_triple_goldens(fam, triple):
    verdict = minimalist_helly_check(fam)
    assert verdict == ViolatingTriple(triple)


def _emptying_clip(fam):
    """The index of the disk whose clip empties the region, and the region
    of the disks before it, found from prefixes."""
    for m in range(1, len(fam)):
        if intersect_region(fam[: m + 1]).is_empty:
            return m, intersect_region(fam[:m])
    raise AssertionError("the family meets")


def _branch(fam, m, before):
    if before.kind is RegionKind.FULL:
        return "full"
    if before.kind is RegionKind.POINT:
        carriers = sum(disk_side(before.point, d) == 0 for d in set(fam[:m]))
        return "point-two" if carriers == 2 else "point-three+"
    feature = separating_line(fam[m], before).feature
    return "arc" if isinstance(feature, ArcInterior) else "corner"


def test_check_triple_against_exhaustive_scan():
    rng = random.Random(7100)
    branches = Counter()
    for n in range(3000):
        if n % 3 == 2:
            fam = random_family(rng, n=rng.randint(3, 6), span=6, rhi=6)
        else:
            fam = lattice_family(rng, den=1 + n % 3)  # integer, then half-integer
        verdict = minimalist_helly_check(fam)
        if first_violating_triple(fam) is None:
            assert isinstance(verdict, CommonPoint), fam
            continue
        assert isinstance(verdict, ViolatingTriple), fam
        i, j, k = verdict.indices
        assert i < j < k, fam
        assert not triple_meet(fam[i], fam[j], fam[k]), fam
        m, before = _emptying_clip(fam)
        assert m in verdict.indices, fam
        branches[_branch(fam, m, before)] += 1
    assert set(branches) == {"full", "arc", "corner", "point-two", "point-three+"}, branches


def test_check_confirms_one_triple_after_a_late_emptying_clip(monkeypatch):
    # 20 large disks centred on a circle of radius 10 around the centroid
    # of the venn_triple() centres, each containing every venn disk, then
    # venn_triple(): the venn disks are the only violating triple.
    venn = venn_triple()
    ring = []
    for j in range(20):
        t = Fraction(j, 10) - 1  # rational points (cos, sin) on the unit circle
        c, s = (1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)
        ring.append(disk(1 + 10 * c, Fraction(7, 12) + 10 * s, Fraction(49, 4) + Fraction(j % 5, 8)))
    for big in ring:
        for v in venn:
            assert pair_relation(v, big).inner == 0
    calls = []

    def counted(a, b, c):
        calls.append((a, b, c))
        return triple_meet(a, b, c)

    monkeypatch.setattr(helly.disks, "triple_meet", counted)
    assert minimalist_helly_check(ring + venn) == ViolatingTriple((20, 21, 22))
    # the exhaustive scan reaches (20, 21, 22) only at its last, C(23, 3) = 1771st, triple
    assert len(calls) == 1


# -- the integer kernel ------------------------------------------------------


def test_mixed_denominators_against_the_oracle():
    # every disk over its own prime, and tangent pairs between disks over
    # different denominators
    rng = random.Random(16001)
    seen = Counter()
    for _ in range(300):
        fam = prime_family(rng, rng.randint(3, 8))
        for a, b in itertools.combinations(fam, 2):
            seen[pair_relation(a, b).kind] += 1
        verdict = minimalist_helly_check(fam)
        lowest = lowest_common_point(fam)
        seen[type(verdict).__name__] += 1
        assert (lowest is None) == isinstance(verdict, ViolatingTriple), fam
        if lowest is not None:
            assert same_point(verdict.point, lowest), fam
        else:
            assert lowest_common_point([fam[i] for i in verdict.indices]) is None, fam
        region = intersect_region(fam)
        assert region.is_empty == (lowest is None), fam
        for c in region.corners():
            assert all(inside(c, d) for d in fam), fam
    assert seen[PairKind.EXTERNAL_OSCULATION] > 20 and seen[PairKind.INTERNAL_TANGENCY] > 20, seen
    assert min(seen["CommonPoint"], seen["ViolatingTriple"]) > 50, seen


def test_six_hundred_prime_denominators_stay_fast():
    # every pair of these disks works over the product of two primes; one
    # common denominator for the whole family would have about 6,300 bits
    fam = prime_family(random.Random(16002), 600, planted=True)
    start = time.process_time()
    region = intersect_region(fam)
    verdict = minimalist_helly_check(fam)
    assert time.process_time() - start < 15
    assert region.kind is RegionKind.REGION
    assert isinstance(verdict, CommonPoint)
    assert all(inside(verdict.point, d) for d in fam)


def test_kernel_builds_no_quadval(monkeypatch):
    ring, planted = ring_family(40), gen_helly_disks(2000, 1)
    calls = Counter()
    normalize = helly.radicals._normalize

    def counted(*args):
        calls["normalize"] += 1
        return normalize(*args)

    monkeypatch.setattr(helly.radicals, "_normalize", counted)
    assert len(intersect_region(ring).arcs) == 40
    assert isinstance(minimalist_helly_check(planted), CommonPoint)
    assert calls["normalize"] == 0


def test_clipping_scales_each_pair_once(monkeypatch):
    # pair_relation gives the corners with the kind, so a clip scales each
    # (carrier, new disk) pair to its common denominator once
    long_clip = sorted(gen_helly_disks(40, 7), key=lambda d: d.r, reverse=True)
    calls = Counter()
    for name in ("_scaled", "pair_relation"):
        inner = getattr(helly.disks, name)

        def counted(*args, _name=name, _inner=inner):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(helly.disks, name, counted)
    for family, pairs in ((ring_family(40), 780), (long_clip, 170)):
        calls.clear()
        intersect_region(family)
        assert calls["pair_relation"] == calls["_scaled"] == pairs
