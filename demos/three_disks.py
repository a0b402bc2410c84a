"""Three disks where every two overlap but no point lies in all three,
versus the guarantee that three-wise meeting forces a family-wide common
point. Writes SVG drawings of both configurations.

Run:  python demos/three_disks.py
"""

from fractions import Fraction
from itertools import combinations

from helly import (
    CommonPoint,
    disk,
    intersect_region,
    minimalist_helly_check,
    pair_relation,
)
from helly.instances import venn_triple
from helly.radicals import point_float
from helly.svg import render_disks


def main() -> None:
    fam = venn_triple()
    print("Pairwise-only triple (radius 21/20):")
    for i, j in combinations(range(3), 2):
        print(f"  disks {i},{j}: {pair_relation(fam[i], fam[j]).kind.value}")
    region = intersect_region(fam)
    print(f"  three-way intersection: {region.kind.value}")
    verdict = minimalist_helly_check(fam)
    print(f"  family check: violating triple {verdict.indices}")
    with open("three_disks_empty.svg", "w", encoding="utf-8") as fh:
        fh.write(render_disks(fam, region=region))
    print("  wrote three_disks_empty.svg")

    grown = [disk(d.x, d.y, Fraction(3, 2)) for d in fam]
    region = intersect_region(grown)
    print(f"\nSame centers, radius 3/2: intersection is a {region.kind.value} "
          f"bounded by {len(region.arcs)} arcs")
    verdict = minimalist_helly_check(grown)
    assert isinstance(verdict, CommonPoint)
    print(f"  lowest common point: about {point_float(verdict.point)}")
    with open("three_disks_region.svg", "w", encoding="utf-8") as fh:
        fh.write(render_disks(grown, region=region))
    print("  wrote three_disks_region.svg")


if __name__ == "__main__":
    main()
