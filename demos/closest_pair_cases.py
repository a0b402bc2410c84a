"""The two ways a disjoint disk can face an arc region: nearest to the
interior of one boundary arc, or nearest to a corner where two arcs meet.
Draws both, with the connecting segment and the separating line.

Run:  python demos/closest_pair_cases.py
"""

from fractions import Fraction

from helly import disk, intersect_region, separating_line
from helly.svg import render_disks


def draw(fam, t, out):
    g = intersect_region(fam)
    sep = separating_line(t, g)
    doc = render_disks(fam + [t], region=g, query=len(fam), separation=sep)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(doc)
    lo, hi = sep.closest.squared_distance()
    print(f"  feature {type(sep.feature).__name__}, carriers {sep.carriers}, "
          f"verified disjoint {sep.separated}")
    print(f"  squared gap in [{float(lo):.12f}, {float(hi):.12f}]")
    print(f"  wrote {out}")


def main() -> None:
    lens = [disk(0, -1, Fraction(3, 2)), disk(0, 1, Fraction(3, 2))]

    print("Arc interior closest (query above the lens):")
    draw(lens, disk(0, 4, 1), "closest_arc_interior.svg")

    print("\nCorner closest (query beside the lens):")
    draw(lens, disk(4, 0, 1), "closest_corner.svg")


if __name__ == "__main__":
    main()
