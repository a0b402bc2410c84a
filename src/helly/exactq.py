"""Exact rational scalars, row echelon forms, and affine solution sets.

Feasibility of a linear system is a yes/no property of its ranks, so the
arithmetic underneath has to be exact: one rounded pivot can turn an
inconsistent system into a "consistent" one. Everything here works in
arbitrary-precision integers and never rounds; rationals appear only at
the edges, scaled away on the way in (``integer_row``) and built for the
returned witness and basis on the way out.

One elimination lives here: fraction-free (Bareiss 1968) elimination on
integer rows. Intermediate entries stay polynomially bounded and no gcd
reduction happens per step. Every use of it shares the row scaling
(``integer_row``) and one update with its exactness guard
(``bareiss_update``). ``echelon`` folds rows in order: each row is
reduced by the pivot rows before it and pivots on its first nonzero
column. It also lists the rows that reduce to ``0 = c`` with
``c != 0``; the other rows are consistent together, which the subset
searches of ``helly.linear`` use as a cover of sets they need not test.
``rank`` is its pivot count, and ``solve_affine`` adds one
fraction-free back-substitution (``reduced_echelon``, after Nakos,
Turner and Williams 1997) to reach the canonical witness (free variables
pinned to zero) and a nullspace basis over one common denominator. The
subset searches fold their rows the same way along a path of index
sets, calling ``bareiss_update`` themselves.

Pivoting is deterministic and needs no row swaps or magnitude
heuristics. Each pivot row is zero in the pivot columns before it, so
the ``r`` pivot columns are distinct leading columns of ``r`` vectors of
the row space. That space has exactly ``r`` leading columns, so the
pivot columns are the same set in any row order: the leftmost-pivot
columns. The reduced echelon form is unique, so witnesses are
reproducible byte for byte.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import InvariantViolation
from .records import Record

Rat = Fraction


def integer_row(row: Sequence[Rat | int]) -> list[int]:
    """``row`` scaled to integers by the lcm of its denominators, which
    changes neither the rank nor the consistency of any set of rows."""
    mul = lcm(*[x.denominator for x in row])
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


def echelon(
    rows: Iterable[Sequence[int]], ncols: int
) -> tuple[list[tuple[Sequence[int], int, int]], list[int]]:
    """Fraction-free row echelon form of the integer rows ``rows``,
    folded in row order, pivoting only within the first ``ncols`` columns.

    Each row is reduced by the pivot rows before it; its pivot is its
    first nonzero column among the first ``ncols``. Later columns (a
    right-hand side) are carried along but never pivoted on. Returns one
    ``(row, col, prev)`` record per pivot row, ``prev`` being the pivot
    before it (1 at the first), and the indices of the rows without a
    pivot that stay nonzero in a later column: a row of ``0 = c`` with
    ``c != 0``, inconsistent with the rows before it. Such a row adds no
    pivot, so the rows not listed meet the same pivot rows when folded
    alone and reduce to ``0 = 0`` where they have none: together they are
    consistent. The rows are consistent exactly when none is listed. No
    row of ``rows`` is modified.
    """
    pivots: list[tuple[Sequence[int], int, int]] = []
    bad: list[int] = []
    prev = 1
    for i, a in enumerate(rows):
        for top in pivots:
            a = bareiss_update(a, *top)
        c = next((c for c in range(ncols) if a[c]), None)
        if c is not None:
            pivots.append((a, c, prev))
            prev = a[c]
        elif any(a[ncols:]):
            bad.append(i)
    return pivots, bad


def reduced_echelon(pivots: Sequence[tuple[Sequence[int], int, int]]) -> tuple[list[list[int]], int]:
    """``D`` times the reduced row echelon form of the pivot rows that
    ``echelon`` returned, one row per record in the same order, and ``D``,
    the last pivot (1 when there is none).

    Record ``i`` holds ``a_i`` with pivot ``D_i = a_i[c_i]``; ``a_i`` is
    zero in the pivot columns before ``c_i``. The reduced row with pivot
    column ``c_i`` is ``(a_i - sum over h > i of a_i[c_h] * red_h) / D_i``,
    so ``e_i = D * red_i`` is ``(D * a_i - sum a_i[c_h] * e_h) / D_i``,
    built from the bottom up. By Sylvester's identity ``D`` is the
    determinant of the pivot rows' entries in the pivot columns, so by
    Cramer's rule every ``e_i`` is an integer row and each division is
    exact; a remainder means the records did not come from one fold, so it
    raises rather than rounds.
    """
    if not pivots:
        return [], 1
    a, c, _ = pivots[-1]
    den = a[c]
    done = [(list(a), c)]  # (e_h, c_h) bottom up; the last row has D_i = D, so e = a
    for a, c, _ in reversed(pivots[:-1]):
        num = [den * x for x in a]
        for e, h in done:
            f = a[h]
            if f:
                num = [x - f * y for x, y in zip(num, e)]
        d = a[c]
        e = []
        for x in num:
            quot, rem = divmod(x, d)
            if rem:
                raise InvariantViolation("fraction-free back-substitution lost exactness")
            e.append(quot)
        done.append((e, c))
    return [e for e, _ in reversed(done)], den


def _check_width(rows: Sequence[Sequence[Rat | int]], ncols: int) -> None:
    if any(len(row) != ncols for row in rows):
        raise ValueError("ragged rows")


def rank(rows: Sequence[Sequence[Rat | int]]) -> int:
    """Exact rank over the rationals, by fraction-free elimination.

    Result is independent of row and column order; the empty matrix has
    rank zero. Rows of unequal width raise ``ValueError``.
    """
    ncols = len(rows[0]) if rows else 0
    _check_width(rows, ncols)
    return len(echelon(map(integer_row, rows), ncols)[0])


class AffineSolutionSet(Record):
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
        return rank(self.basis) == rank(self.basis + (delta,))


def solve_affine(
    rows: Sequence[Sequence[Rat | int]], rhs: Sequence[Rat | int], ncols: int
) -> AffineSolutionSet | None:
    """Solve ``rows x = rhs`` in ``ncols`` unknowns exactly; ``None`` when
    there is no solution.

    The witness point is the one with every free variable set to zero,
    so repeated runs agree exactly. Rows of a width other than ``ncols``
    raise ``ValueError``.
    """
    if len(rhs) != len(rows):
        raise ValueError("right-hand side length must equal row count")
    return _solve_scaled([integer_row((*row, b)) for row, b in zip(rows, rhs)], ncols)


def _solve_scaled(aug: Sequence[Sequence[int]], ncols: int) -> AffineSolutionSet | None:
    """``solve_affine`` of augmented rows already scaled to integers
    (``integer_row`` of the coefficients followed by the right side), used
    as they are. Rows of a width other than ``ncols + 1`` raise
    ``ValueError``."""
    _check_width(aug, ncols + 1)
    found, bad = echelon(aug, ncols)
    return None if bad else _witness(found, ncols)


def _witness(found: Sequence[tuple[Sequence[int], int, int]], ncols: int) -> AffineSolutionSet:
    """The solution set of consistent augmented rows whose fold by
    ``echelon`` gave the pivot records ``found``."""
    # The reduced echelon form is unique, so witness and basis do not
    # depend on how the echelon form was reached; ``red`` is it times ``den``.
    red, den = reduced_echelon(found)
    pivots = [c for _, c, _ in found]
    zero = Fraction(0)
    point = [zero] * ncols
    for row, c in zip(red, pivots):
        point[c] = Fraction(row[ncols], den)
    basis: list[tuple[Rat, ...]] = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [zero] * ncols
        vec[f] = Fraction(1)
        for row, c in zip(red, pivots):
            vec[c] = Fraction(-row[f], den)
        basis.append(tuple(vec))
    return AffineSolutionSet(tuple(point), tuple(basis))
