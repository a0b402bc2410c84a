"""Exact rational scalars, matrices, and affine solution sets.

Feasibility of a linear system is a yes/no property of its ranks, so the
arithmetic underneath has to be exact: one rounded pivot can turn an
inconsistent system into a "consistent" one. Everything here works over
arbitrary-precision rationals and never rounds.

One elimination lives here: fraction-free (Bareiss 1968) elimination on
integer rows. Intermediate entries stay polynomially bounded and no gcd
reduction happens per step. Every use of it shares the row scaling
(``integer_row``) and one update with its exactness guard
(``bareiss_update``). ``bareiss`` reduces a whole matrix at once: ``rank``
is its pivot count, and ``solve_affine`` adds one rational
back-substitution to reach the canonical witness (free variables pinned
to zero) and a nullspace basis. The subset searches of ``helly.linear``
call ``bareiss_update`` themselves, once per row and path of rows they
reduce it by.

Pivoting is deterministic: first nonzero entry in the leftmost unresolved
column, no magnitude heuristics. Witnesses are therefore reproducible
byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import InvariantViolation

Rat = Fraction


def rat(num, den: int = 1) -> Rat:
    """Exact rational; ``Fraction`` keeps it reduced with positive denominator."""
    return Fraction(num, den)


@dataclass(frozen=True)
class RatMatrix:
    """Dense row-major matrix of exact rationals."""

    rows: int
    cols: int
    entries: tuple[Rat, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")

    @staticmethod
    def from_rows(rows: Sequence[Sequence[Rat | int]]) -> "RatMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        entries: list[Rat] = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged rows")
            entries.extend(Fraction(x) for x in row)
        return RatMatrix(r, c, tuple(entries))

    def at(self, i: int, j: int) -> Rat:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[Rat, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self) -> list[list[Rat]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "RatMatrix":
        ents = tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows))
        return RatMatrix(self.cols, self.rows, ents)


def integer_row(row: Sequence[Rat | int]) -> list[int]:
    """``row`` scaled to integers by the lcm of its denominators, which
    changes neither the rank nor the consistency of any set of rows."""
    mul = lcm(*(x.denominator for x in row))
    return [x.numerator * (mul // x.denominator) for x in row]


def bareiss_update(row: Sequence[int], top: Sequence[int], c: int, prev: int) -> list[int]:
    """One Bareiss update of ``row`` by the pivot row ``top`` with pivot
    column ``c``, as a new row: entry ``j`` becomes
    ``(p * row[j] - q * top[j]) / prev``, where ``p = top[c]``,
    ``q = row[c]`` and ``prev`` is the previous pivot (1 at the first).
    Sylvester's identity makes every quotient exact; a remainder means the
    caller broke the pivot sequence, so it raises rather than rounds."""
    p, q = top[c], row[c]
    out = []
    for x, t in zip(row, top):
        quot, rem = divmod(p * x - q * t, prev)
        if rem:
            raise InvariantViolation("fraction-free elimination lost exactness")
        out.append(quot)
    return out


def bareiss(rows: Iterable[Sequence[Rat | int]], ncols: int) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form of ``rows``, pivoting only within the
    first ``ncols`` columns.

    Each row is first scaled to integers by ``integer_row``. Later columns
    (a right-hand side) are carried along but never pivoted on. Returns
    the echelon rows and the pivot columns: row ``i`` is the pivot row of
    ``pivots[i]``, and every row past the pivot rows is zero in the first
    ``ncols`` columns.
    """
    a = [integer_row(row) for row in rows]
    nrows = len(a)
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        piv = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        rowr = a[r]
        for i in range(r + 1, nrows):
            a[i] = bareiss_update(a[i], rowr, c, prev)
        prev = rowr[c]
        pivots.append(c)
        r += 1
    return a, pivots


def rank(m: RatMatrix) -> int:
    """Exact rank over the rationals, by fraction-free elimination.

    Result is independent of row and column order; the empty matrix has
    rank zero.
    """
    return len(bareiss(m.to_rows(), m.cols)[1])


@dataclass(frozen=True)
class AffineSolutionSet:
    """A nonempty affine subspace: witness point plus nullspace basis.

    ``basis`` spans the directions in which the solution set is free, so
    ``dim`` 0 is a single point, 1 a line, 2 a plane, and ``dim == k``
    with a zero witness is the whole space.
    """

    point: tuple[Rat, ...]
    basis: tuple[tuple[Rat, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def unknowns(self) -> int:
        return len(self.point)

    def element(self, weights: Sequence[Rat | int]) -> tuple[Rat, ...]:
        """The set element ``point + sum(w_i * basis_i)``."""
        if len(weights) != len(self.basis):
            raise ValueError("one weight per basis vector required")
        out = list(self.point)
        for w, vec in zip(weights, self.basis):
            wf = Fraction(w)
            for j, v in enumerate(vec):
                out[j] += wf * v
        return tuple(out)

    def contains(self, point: Sequence[Rat | int]) -> bool:
        """Exact membership: point - witness must lie in the basis span."""
        if len(point) != len(self.point):
            raise ValueError("dimension mismatch")
        delta = tuple(Fraction(p) - q for p, q in zip(point, self.point))
        span = rank(RatMatrix.from_rows(self.basis))
        return span == rank(RatMatrix.from_rows(self.basis + (delta,)))


def solve_affine(m: RatMatrix, rhs: Sequence[Rat]) -> AffineSolutionSet | None:
    """Solve ``m x = rhs`` exactly; ``None`` when there is no solution.

    The witness point is the one with every free variable set to zero
    under leftmost-pivot elimination, so repeated runs agree exactly.
    """
    if len(rhs) != m.rows:
        raise ValueError("right-hand side length must equal row count")
    ncols = m.cols
    a, pivots = bareiss((m.row(i) + (Fraction(rhs[i]),) for i in range(m.rows)), ncols)
    r = len(pivots)
    if any(row[ncols] != 0 for row in a[r:]):
        return None
    # Back-substitution to the reduced echelon form, which is unique, so
    # witness and basis do not depend on how the echelon form was reached.
    red = [[Fraction(x, row[c]) for x in row] for row, c in zip(a, pivots)]
    for i in range(r - 1, 0, -1):
        c = pivots[i]
        for h in range(i):
            f = red[h][c]
            if f:
                red[h] = [x - f * y for x, y in zip(red[h], red[i])]
    point = [Fraction(0)] * ncols
    for row, c in zip(red, pivots):
        point[c] = row[ncols]
    basis: list[tuple[Rat, ...]] = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for row, c in zip(red, pivots):
            vec[c] = -row[f]
        basis.append(tuple(vec))
    return AffineSolutionSet(tuple(point), tuple(basis))
