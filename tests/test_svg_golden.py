"""Byte-for-byte goldens of ``disks svg`` drawings, and the display floats
they are made of.

Each case is a seeded family and an optional query index; the golden is
the sha256 of ``cli._svg_doc`` for it. The cases cover the long-clip shape
with and without its far query, a point region, a full-disk region, a
corner closest to the query, prime denominators, a ring, and two lattice
families whose clips meet a disk touching a carrier: from inside
(seed 75), and from outside, leaving a point region (seed 109).
"""

import hashlib
import math
import random
from fractions import Fraction

import pytest

from helly import disk, intersect_region
from helly.cli import _svg_doc
from helly.disks import RegionKind
from helly.instances import gen_helly_disks, gen_random_disks
from helly.radicals import point_bounds, point_float, quad_float
from helpers import lattice_family, prime_family, ring_family


def _long_clip(seed):
    family = gen_helly_disks(40, seed)
    family.sort(key=lambda d: d.r, reverse=True)
    return family


def _lattice(seed, query=False):
    family = lattice_family(random.Random(seed), 1)
    return family + [disk(1000, 1000, 1)] if query else family


CASES = {
    "long-clip": (lambda: _long_clip(7), None),
    "long-clip-far-query": (lambda: _long_clip(7) + [disk(1000, 1000, 1)], 40),
    "helly-near-query": (lambda: gen_helly_disks(12, 3) + [disk(30, -5, 2)], 12),
    "random-disks": (lambda: gen_random_disks(10, 4), None),
    "point-region-query": (lambda: [disk(0, 0, 1), disk(2, 0, 1), disk(1, 4, 1)], 2),
    "full-region-query": (lambda: [disk(0, 0, 3), disk(1, 0, 1), disk(8, 3, 2)], 2),
    "corner-query": (lambda: [disk(0, -1, 2), disk(0, 1, 2), disk(6, 0, 1)], 2),
    "prime-query": (
        lambda: prime_family(random.Random(5), 8, planted=True) + [disk(12, Fraction(7, 3), 1)],
        8,
    ),
    "ring": (lambda: ring_family(20), None),
    "ring-query": (lambda: ring_family(20) + [disk(5, 1, 1)], 20),
    "lattice-inner-touch": (lambda: _lattice(75), None),
    "lattice-inner-touch-far-query": (lambda: _lattice(75, query=True), 5),
    "lattice-outer-touch": (lambda: _lattice(109), None),
    "lattice-outer-touch-far-query": (lambda: _lattice(109, query=True), 5),
}

# sha256 of each drawing, pinned from the Fraction-vector drawing code
# that the integer point form replaced
GOLDEN = {
    "corner-query": "434762af3a26f1d2cb5b63e19638fbafee70ff2826a56d3e34efa030bf6ac0aa",
    "full-region-query": "e66ef0bb2858314d4d11c01ff73c992381ab75203f874e51a0c6a4c028c3036a",
    "helly-near-query": "3f7ba9739ef099031f281ba6fd92f0622612faa17a31c40055338b1247b8925c",
    "lattice-inner-touch": "a235d2df1a3d344a8507c797a3150b007208a7ab5964f07790f34fa8af89b5e6",
    "lattice-inner-touch-far-query": "c7a1dc38fb0dd94af94b90a091d195784bebf4ec9ce6896fed7fb8ae0b19d30f",
    "lattice-outer-touch": "c2d6d89dc6cedfc49df2a4cd3a4c91fcff9404bda5fceb34d143bec54b7c04c9",
    "lattice-outer-touch-far-query": "ff83e86cd307c9a70075a03b94a28597e53a9644c7cc016672ba9722fbf6b121",
    "long-clip": "c40c7827200182d888d29e2367a0afde38ed3c6f3060e152605569ee0ca52be5",
    "long-clip-far-query": "04b9aff48559d2e38bfa28a6cabfd48f935d3bc01607c421acd03d6601d1726b",
    "point-region-query": "7935982a8ac385950de25ed6b5c00f5b785a228ac40360336ff6a35eb5c6805d",
    "prime-query": "8e7637cf231a7317ca22f5b98909b5747dca684ad61c9acd84736ccaa03b3e90",
    "random-disks": "74a9da498cbc0c4b6ab6fc5a8c142892c0937476a30bb74dcdba120acbff5146",
    "ring": "708ac2817194b1999f54e90cf3bf3f80e38b3c2f36275bb71bf7e80816f98683",
    "ring-query": "fde982162e9f7291182c1fa4ed0f417e5412963a958f9ee6fe218fc7fdc5e18c",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_svg_doc_matches_golden(name):
    build, query = CASES[name]
    doc = _svg_doc(build(), query)
    assert hashlib.sha256(doc.encode()).hexdigest() == GOLDEN[name]


def test_golden_cases_cover_every_region_kind():
    kinds = set()
    for build, query in CASES.values():
        family = build()
        rest = [d for i, d in enumerate(family) if i != query]
        kinds.add(intersect_region(rest).kind)
    assert {RegionKind.POINT, RegionKind.FULL, RegionKind.REGION} <= kinds


def _within_one_ulp(f: float, lo: Fraction, hi: Fraction) -> bool:
    ulp = Fraction(math.ulp(f))
    return lo - ulp <= Fraction(f) <= hi + ulp


def _nearest(f: float, lo: Fraction, hi: Fraction) -> bool:
    """Does every value in [lo, hi] round to f?"""
    below, above = math.nextafter(f, -math.inf), math.nextafter(f, math.inf)
    return (Fraction(below) + Fraction(f)) / 2 < lo and hi < (Fraction(f) + Fraction(above)) / 2


def test_point_float_within_one_ulp_of_the_enclosure():
    # a 200-bit enclosure is far narrower than half an ulp of these
    # coordinates, so it pins the nearest float; quad_float reads the
    # coordinate through its QuadVal view, with its own tidied radicand
    checked = 0
    for build, query in CASES.values():
        region = intersect_region([d for i, d in enumerate(build()) if i != query])
        for p in region.corners() if not region.is_empty else []:
            fx, fy = point_float(p)
            (xlo, xhi), (ylo, yhi) = point_bounds(p, 60)
            assert _within_one_ulp(fx, xlo, xhi) and _within_one_ulp(fy, ylo, yhi), p
            (xlo, xhi), (ylo, yhi) = point_bounds(p, 200)
            assert _nearest(fx, xlo, xhi) and _nearest(fy, ylo, yhi), p
            assert (quad_float(p.x), quad_float(p.y)) == (fx, fy)
            checked += 1
    assert checked > 50
