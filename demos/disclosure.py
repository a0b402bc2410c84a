"""Disclosure as certification: which private values do released sums pin?

A table keeps private values x0 to x4 and releases sums over groups of
them. Whatever the answers are, value x_i is disclosed exactly when the
unit row e_i lies in the span of the released query rows a_j, that is,
when the rows a_j . x = 0, one per released sum, followed by x_i = 1 are
inconsistent. The released rows are consistent together (x = 0 solves
them), so the whole-system fold lists at most the last row, and it lists
that row exactly when x_i is disclosed. helly_certify then walks below
that row and names the fewest released sums that pin x_i: at most five,
one per unknown, by the k + 1 bound.

Run:  python demos/disclosure.py
"""

from helly import Consistent, helly_certify, linear_system
from helly.exactq import echelon

K = 5
QUERIES = [(0, 1, 2), (1, 2), (2, 3, 4), (3, 4)]  # the values each sum adds up


def main() -> None:
    rows = [[int(i in q) for i in range(K)] for q in QUERIES]
    print("Released sums:")
    for j, q in enumerate(QUERIES):
        print(f"  q{j} = " + " + ".join(f"x{i}" for i in q))

    print("\nWhat they disclose:")
    for i in range(K):
        system = linear_system(rows + [[int(c == i) for c in range(K)]], [0] * len(rows) + [1])
        _, listed = echelon([eq.row for eq in system.equations], K)
        cert = helly_certify(system)
        if isinstance(cert, Consistent):
            assert listed == []
            point = ", ".join(str(v) for v in cert.witness.point)
            print(f"  x{i} is not disclosed: x = ({point}) has x{i} = 1 and every sum 0, "
                  f"and x = 0 has x{i} = 0")
        else:
            assert listed == [len(rows)] and cert.subsystem[-1] == len(rows)
            used = ", ".join(f"q{j}" for j in cert.subsystem[:-1])
            print(f"  x{i} is disclosed by {used}")


if __name__ == "__main__":
    main()
