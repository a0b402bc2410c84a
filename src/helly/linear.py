"""Equation taxonomy, subsystem feasibility, and smallest-certificate search.

The guarantee this module turns into executable form: for a system of
nondegenerate linear equations in ``k`` unknowns, if every subsystem of
``k + 1`` equations is consistent then the whole system is. Its
contrapositive bounds certificates: an inconsistent nondegenerate system
always contains an inconsistent subsystem of at most ``k + 1`` equations.

``helly_certify`` decides global consistency directly by rank comparison
and uses the bound only to cut off its search for a smallest inconsistent
subsystem. If the search ever ran past ``k + 1`` without a hit on an
inconsistent nondegenerate system, the guarantee itself would be false;
that case aborts loudly instead of degrading.

The search is one depth-first walk over index sets, resting on a lemma.

*Circuit lemma.* If ``S`` is a minimal inconsistent subsystem, the
coefficient rows of every proper subset of ``S`` are linearly
independent. Proof: ``S`` is inconsistent, so some ``y`` has
``y . A_S = 0`` and ``y . b_S != 0``. If ``y_i = 0`` for some ``i``,
``y`` would prove ``S - {i}`` inconsistent, so ``y`` vanishes nowhere on
``S``. Suppose a proper subset ``T`` had dependent rows: ``z != 0``
supported on ``T`` with ``z . A_S = 0``. If ``z . b_S != 0``, ``T`` is
inconsistent. Otherwise pick ``i`` with ``z_i != 0``; then
``w = y - (y_i / z_i) z`` has ``w . A_S = 0``, ``w . b_S = y . b_S != 0``
and ``w_i = 0``, so ``S - {i}`` is inconsistent. Either way ``S`` is not
minimal. (The same argument shows ``rank A_S = |S| - 1 <= k``, which is
the ``k + 1`` bound.)

*The walk.* Nodes are increasing index tuples, visited in lexicographic
pre-order: ``(0), (0, 1), (0, 1, 2), ..., (0, 2), ...``. Each row is the
equation's integer row (``Equation.row``). For each prefix of its path
the walk keeps the later rows reduced by that prefix's pivot rows
(``_Path``). A node's last row is the parent's reduced copy of that row,
updated once by the parent's own pivot row; the update is made when a
node first needs it and is shared by every node below the parent, so
each node costs one Bareiss update. If that row stays nonzero in the
coefficient columns, the node's rows are independent and the node may be
extended. If it reduces to ``0 = 0``, the rows are dependent and
consistent, and by the lemma no minimal inconsistent subsystem contains
them, so the node is never extended (the circuit prune). If it reduces
to ``0 = c`` with ``c != 0``, the node is an inconsistent set of size
``d``, the best so far, and the depth cap drops from its start,
``k + 1``, to ``d - 1``. A node at the cap's depth has no children, so
it is never pushed.

*Cover lemma.* If one point satisfies every row of a set ``C`` (the
cover), every subset of ``C`` is consistent, with that point as witness,
so an inconsistent set holds a row outside ``C``. The walk takes its
cover free from the in-order fold of the whole system that decides
global consistency (``exactq.echelon``): the rows that do not reduce to
``0 = c`` there meet the same pivot rows when folded alone, so they are
consistent together. Call a path clean when all its rows are covered.
Below a clean path every hit holds an uncovered row, so the walk skips
the covered rows of a clean path at leaf depth (a path one row short of
the cap, whose children are hits or nothing) and backtracks from a clean
path with no uncovered row left to try. Sampling cannot afford the whole
fold, so its cover is the rows that the canonical point of the fold of
the first ``k`` rows satisfies, one integer dot product per row.

*Full-rank lemma.* If a clean set ``P`` has rank ``k``, a row ``j``
outside it is consistent with ``P`` exactly when ``j`` is covered. For
the sampling cover, the rows that one point ``p`` satisfies: ``p``
satisfies ``P``, whose rank is ``k``, so ``p`` is the only solution of
``P``; a covered row holds at ``p``, and an uncovered row fails there.
For the fold cover, the rows that ``echelon`` does not list: they are
consistent together, and their common points lie in the solution set
``{q}`` of ``P``, so ``q`` is their only common point and every covered
row holds at ``q``. A listed row reduced to ``0 = c`` with ``c != 0``
against pivot rows that are covered: for some ``D != 0``, ``D`` times
the row minus a combination of those rows reads ``0 = c``. The
combination holds at ``q``, so ``D (a . q - b) = -c != 0`` and the row
fails at ``q``. With ``k = 0`` the empty set is clean and already has
rank ``k``. So a subset scan whose clean path has ``k`` pivots settles
each next row by its cover bit, with no update (``_scan_sets``). The
certify walk does without it: at leaf depth it already tries only the
uncovered rows of a clean path, and its first hit drops the cap, so the
lemma would save it at most one update per walk.

*Why the last hit is the size-then-lex first minimum.* Let ``S`` be the
lexicographically first inconsistent set of the least size ``m``. Each
proper prefix of ``S`` is consistent and, by the lemma, independent, so
the walk extends it instead of pruning it or stopping at it. ``S`` is
dependent, since independent rows are always consistent, so its last row
reduces to ``0 = c`` with ``c != 0``: ``S`` is a hit. Pre-order visits
the sets of one size in lexicographic order, so no other set of size
``m`` is a hit before ``S``, and hits of larger sizes leave the cap at
``m`` or more: the walk reaches ``S``. There the cap drops to ``m - 1``,
and no inconsistent set is that small, so ``S`` is the last hit. The
cover skips only consistent sets, so it neither adds a hit nor removes
one, and it skips no prefix of ``S``: by the cover lemma ``S`` holds an
uncovered row. A prefix of ``S`` skipped at leaf depth would be a
covered set of the cap's size, so not ``S``, and not a proper prefix of
``S``, which is shorter than the cap (at least ``m`` until ``S`` is
reached). A clean path backtracked from has no uncovered row at or after
its next row, so every set below it from there on, and every set that
extends one of them, is covered: neither ``S`` nor a prefix of ``S`` is
among them.

*Root lemma.* When ``echelon`` lists one row ``r``, every other row is
covered, so every inconsistent set holds ``r`` (cover lemma). The walk
then pushes ``r`` first, as the root of its path, and walks the other
rows below it in the same pre-order, never trying ``r`` again; a root
that reads ``0 = c`` alone is the certificate. Sets of one size that both
hold ``r`` compare, as sorted tuples, by the least row that one holds and
the other does not, never ``r``, so in the order of their other rows: the
argument above holds with ``r`` ahead of every prefix (the circuit prune
holds in any row order), and the last hit, sorted, is the first minimum.
The walk visits at most ``1 + sum over s <= k of C(n - 1, s)`` nodes.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from enum import Enum
from fractions import Fraction
from itertools import combinations
from math import ceil, comb, lcm, log
from operator import mul
from typing import Callable, Iterable, Iterator, Sequence, Union

from .errors import InvariantViolation
from .exactq import (
    AffineSolutionSet,
    Rat,
    _witness,
    bareiss_update,
    echelon,
    solve_affine,
)
from .records import Record, cached_view

SAMPLING_GENERATOR = "python-mersenne-twister"
# Most walk nodes an inconsistent system may need (``_check_search_size``).
# A node costs one ``bareiss_update``, 3.9 to 4.2 microseconds for k = 5
# (31 rows, 206,393 nodes) on a 2-core Xeon under CPython 3.11, so the
# cap is under a minute of search.
MAX_CERTIFY_NODES = 10**7
# Indices that ``sample_consistency`` holds, sorts and scans at once:
# 4,096 draws of up to 8 indices, fewer of larger draws. A larger batch
# shares more prefixes but holds more draws in memory.
SAMPLE_BATCH_INDICES = 4096 * 8


class EquationClass(Enum):
    NONDEGENERATE_CONSISTENT = "nondegenerate-consistent"
    DEGENERATE_CONSISTENT = "degenerate-consistent"
    DEGENERATE_INCONSISTENT = "degenerate-inconsistent"


class Equation(Record):
    """One linear equation ``coeffs . x = rhs``.

    It keeps itself as its augmented row in integers: ``row`` is
    ``coeffs + (rhs,)`` times ``den``, the lcm of their denominators,
    entry for entry ``exactq.integer_row`` of those rationals. The parser
    and the generators build ``row`` and ``den`` directly (``_of``); the
    constructor scales the rationals it is given. ``coeffs`` and ``rhs``
    are exact ``Fraction`` views, built when first read. The reduced
    values fix ``row`` and ``den``, so equality and hashing use those two.
    """

    row: tuple[int, ...]
    den: int

    def __init__(self, coeffs: Sequence[Rat | int], rhs: Rat | int) -> None:
        values = [v if isinstance(v, (int, Fraction)) else Fraction(v) for v in (*coeffs, rhs)]
        row, den = _scaled(values)
        # the instance is frozen, so its fields go straight into its dict
        vars(self).update(row=tuple(row), den=den)

    @classmethod
    def _of(cls, row: tuple[int, ...], den: int) -> Equation:
        """The equation whose augmented row is ``row`` over ``den > 0``,
        with ``gcd(den, *row) == 1`` as ``integer_row`` leaves it."""
        eq = cls.__new__(cls)
        vars(eq).update(row=row, den=den)
        return eq

    @cached_view
    def coeffs(self) -> tuple[Rat, ...]:
        return tuple(Fraction(v, self.den) for v in self.row[:-1])

    @cached_view
    def rhs(self) -> Rat:
        return Fraction(self.row[-1], self.den)

    def __repr__(self) -> str:
        return f"Equation(coeffs={self.coeffs!r}, rhs={self.rhs!r})"


def classify(eq: Equation) -> EquationClass:
    """Degenerate means every unknown coefficient is zero; such an
    equation is consistent exactly when its right side is zero too."""
    if any(eq.row[:-1]):
        return EquationClass.NONDEGENERATE_CONSISTENT
    if eq.row[-1] == 0:
        return EquationClass.DEGENERATE_CONSISTENT
    return EquationClass.DEGENERATE_INCONSISTENT


class LinearSystem(Record):
    """An ordered list of equations over a fixed set of unknowns."""

    unknowns: int
    equations: tuple[Equation, ...]

    def __init__(self, unknowns: int, equations: tuple[Equation, ...]) -> None:
        if unknowns < 0:
            raise ValueError("unknown count must be nonnegative")
        for eq in equations:
            if len(eq.row) != unknowns + 1:
                raise ValueError("all equations must have exactly one coefficient per unknown")
        vars(self).update(unknowns=unknowns, equations=equations)

    @property
    def n(self) -> int:
        return len(self.equations)

    def satisfied_by(self, point: Sequence[Rat | int]) -> bool:
        if len(point) != self.unknowns:
            raise ValueError("dimension mismatch")
        return witness_satisfies(self, AffineSolutionSet(tuple(map(Fraction, point)), ()))


def linear_system(rows: Sequence[Sequence[Rat | int]], rhs: Sequence[Rat | int]) -> LinearSystem:
    if len(rows) != len(rhs):
        raise ValueError("one right-hand side per row required")
    k = len(rows[0]) if rows else 0
    return LinearSystem(k, tuple(Equation(r, b) for r, b in zip(rows, rhs)))


def _scaled(values: Sequence[Rat | int]) -> tuple[list[int], int]:
    """``values`` as integer numerators over the lcm of their denominators."""
    den = lcm(*[x.denominator for x in values])
    return [x.numerator * (den // x.denominator) for x in values], den


def witness_satisfies(system: LinearSystem, witness: AffineSolutionSet) -> bool:
    """Every element of the witness set must solve every equation exactly.

    The check runs in integers and shares no code with the solver: the
    point becomes numerators ``p`` over one denominator ``w``, each basis
    vector is scaled to integers, each equation ``a . x = b`` is read as
    its integer row (``Equation.row``, which a positive scale does not
    change for this test), and every equation needs ``a . p == b * w``
    and ``a . v == 0`` for each basis vector ``v``.
    """
    k = system.unknowns
    if witness.unknowns != k or any(len(vec) != k for vec in witness.basis):
        return False
    point, w = _scaled(witness.point)
    basis = [_scaled(vec)[0] for vec in witness.basis]
    for eq in system.equations:
        # ``row`` ends in the right side, which ``map`` stops short of
        row = eq.row
        if sum(map(mul, row, point)) != row[k] * w:
            return False
        for vec in basis:
            if sum(map(mul, row, vec)):
                return False
    return True


class _OnFirstUse(dict):
    """A dict that computes a missing key's value as ``fn(key)`` when it is
    first asked for, and keeps it."""

    def __init__(self, fn: Callable[[int], object]) -> None:
        super().__init__()
        self.fn = fn

    def __missing__(self, key: int) -> object:
        value = self[key] = self.fn(key)
        return value


class _Path:
    """A path of row indices and, on demand, rows reduced by its pivot rows.

    ``levels[r]`` maps ``j`` to ``rows[j]`` reduced by the first ``r``
    pivot rows of the path. An entry is computed when it is first asked
    for, from the deepest level that has ``j``, and it is dropped with the
    pivot rows it depends on: each row is reduced once per prefix, and at
    most ``(k + 1) * n`` rows are held. A pushed row with no pivot
    (``0 = 0``, or ``0 = c`` ending an inconsistent path) adds no level.
    """

    def __init__(self, rows: Sequence[Sequence[int]], k: int) -> None:
        self.k = k
        self.indices: list[int] = []
        self.ranks: list[int] = []  # ranks[i]: pivot rows among indices[: i + 1]
        self.levels: list[Sequence[Sequence[int]] | dict[int, Sequence[int]]] = [rows]
        # each pivot row with its pivot column and the pivot before it
        self.pivots: list[tuple[Sequence[int], int, int]] = []

    def reduced(self, j: int) -> tuple[int | None, Sequence[int]]:
        """Row ``j`` reduced by the path's pivot rows, with its first
        nonzero column among the first ``k`` (``None`` if there is none)."""
        levels, pivots = self.levels, self.pivots
        r = e = len(pivots)
        while e and j not in levels[e]:
            e -= 1
        row = levels[e][j]
        while e < r:
            row = bareiss_update(row, *pivots[e])
            e += 1
            levels[e][j] = row
        for c in range(self.k):
            if row[c]:
                return c, row
        return None, row

    def push(self, j: int, piv: int | None, row: Sequence[int]) -> None:
        """Extend the path by row ``j`` as ``reduced(j)`` returned it."""
        self.indices.append(j)
        if piv is not None:
            top, c, _ = self.pivots[-1] if self.pivots else ((1,), 0, 1)
            self.pivots.append((row, piv, top[c]))
            self.levels.append({})
        self.ranks.append(len(self.pivots))

    def truncate(self, m: int) -> None:
        """Cut the path back to its first ``m`` indices."""
        del self.indices[m:], self.ranks[m:]
        r = self.ranks[-1] if self.ranks else 0
        del self.pivots[r:], self.levels[r + 1 :]


def _scan_sets(
    rows: Sequence[Sequence[int]],
    k: int,
    sets: Iterable[tuple[int, ...]],
    covered: Callable[[int], bool],
) -> Iterator[tuple[tuple[int, ...], bool]]:
    """Yield each of ``sets``, index tuples in lexicographic order, with
    whether its rows are consistent.

    A set's rows are pushed in order: a row that reduces to ``0 = 0``
    adds no pivot, one that reduces to ``0 = nonzero`` settles
    inconsistency. A set keeps the path it shares with the set before it,
    and an inconsistent path decides every set that starts with it. There
    is no circuit prune: a dependent prefix can still start an
    inconsistent set. ``covered`` is the caller's cover, rows that one
    point satisfies or that its whole fold leaves consistent: once the
    path is clean (all its rows covered) with ``k`` pivots, the set's
    other rows are settled by their cover bits alone (the full-rank lemma
    of the module docstring), and are neither reduced nor pushed.
    """
    path = _Path(rows, k)
    dead = False  # the last row of the path made it inconsistent
    clean = 0  # the first ``clean`` rows of the path are covered
    for idx in sets:
        m = 0
        for a, b in zip(path.indices, idx):
            if a != b:
                break
            m += 1
        if dead and m == len(path.indices):
            yield idx, False
            continue
        dead = False
        path.truncate(m)
        clean = min(clean, m)
        while m < len(idx) and (clean < m or len(path.pivots) < k):
            j = idx[m]
            piv, row = path.reduced(j)
            path.push(j, piv, row)
            clean += clean == m and covered(j)
            m += 1
            if piv is None and row[k]:
                dead = True
                break
        yield idx, not dead and all(map(covered, idx[m:]))


def _validated_indices(system: LinearSystem, indices: Iterable[int]) -> tuple[int, ...]:
    idx = sorted(set(indices))
    for i in idx:
        if not isinstance(i, int) or i < 0 or i >= system.n:
            raise ValueError(f"equation index {i!r} out of range for system of {system.n}")
    return tuple(idx)


def check_subsystem(system: LinearSystem, indices: Iterable[int]) -> AffineSolutionSet | None:
    """Exact consistency verdict for the selected equations.

    Returns the full solution set (deterministic witness) when the
    subsystem is consistent, ``None`` when it is not. The empty selection
    is consistent with the whole space as witness.
    """
    # a stored row is its equation times a positive integer: same solutions
    rows = [system.equations[i].row for i in _validated_indices(system, indices)]
    return solve_affine([row[:-1] for row in rows], [row[-1] for row in rows], system.unknowns)


def all_subsystems_consistent(system: LinearSystem, size: int) -> tuple[int, ...] | None:
    """Scan every ``size``-subset in lexicographic order.

    Returns ``None`` when all are consistent, else the lexicographically
    first inconsistent index set. The whole system is folded first, and
    only subsets that hold a row outside its cover are scanned; a
    consistent system has an empty cover complement and returns at once.
    Subsets share the reduced rows of their common prefix (``_scan_sets``),
    with no circuit prune: the first inconsistent ``size``-subset need not
    be minimal, so a prefix whose rows are already dependent can still
    start it (rows ``x = 0``, ``x = 0``, ``x = 1`` at size 3). The scan
    gets the same cover, so that a subset whose clean prefix has rank
    ``k`` is settled by the cover bits of its other rows.
    """
    if size < 0 or size > system.n:
        raise ValueError("subsystem size must be between 0 and the equation count")
    rows = [eq.row for eq in system.equations]
    uncovered = set(echelon(rows, system.unknowns)[1])
    if not uncovered:
        return None
    sets = (idx for idx in combinations(range(system.n), size) if not uncovered.isdisjoint(idx))
    for idx, consistent in _scan_sets(rows, system.unknowns, sets, lambda j: j not in uncovered):
        if not consistent:
            return idx
    return None


class Consistent(Record):
    witness: AffineSolutionSet


class Inconsistent(Record):
    subsystem: tuple[int, ...]


HellyCertificate = Union[Consistent, Inconsistent]


def _check_search_size(n: int, k: int, rooted: bool) -> None:
    """Refuse a walk whose worst case passes ``MAX_CERTIFY_NODES`` nodes:
    the sets of 1 to ``k + 1`` of the ``n`` rows or, below a root, the
    root and the sets of 1 to ``k`` of the other ``n - 1`` rows."""
    nodes = int(rooted)
    for size in range(1, min(k + 1 - rooted, n - rooted) + 1):
        nodes += comb(n - rooted, size)
        if nodes > MAX_CERTIFY_NODES:
            raise ValueError(
                f"certifying {n} equations in {k} unknowns may test more than "
                f"{MAX_CERTIFY_NODES} subsets; refused"
            )


def _first_minimum_inconsistent(
    rows: Sequence[Sequence[int]], k: int, bad: Sequence[int]
) -> tuple[int, ...] | None:
    """The depth-first walk of the module docstring, over the cover that
    leaves out the increasing row indices ``bad``.

    ``path`` runs from the root and ``j`` is the next row to try below
    it; ``dirt`` counts the uncovered rows of the path. The root is empty,
    or the one row of ``bad`` (the root lemma), which is pushed first and
    never tried again. Returns the last hit sorted, which is the
    size-then-lex first minimum, or ``None`` when no subset of at most
    ``k + 1`` rows is inconsistent.
    """
    n = len(rows)
    cap = min(k + 1, n)
    nxt: list[int] = []  # nxt[j]: the first uncovered row at or after j
    for b in (*bad, n):
        nxt += [b] * (b + 1 - len(nxt))
    path = _Path(rows, k)
    prefix = path.indices
    best: tuple[int, ...] | None = None
    j = dirt = 0
    root = bad[0] if len(bad) == 1 else -1
    if root >= 0:
        piv, row = path.reduced(root)
        if piv is None:  # the root reads 0 = c on its own
            return (root,)
        path.push(root, piv, row)
        dirt = 1
    base = len(prefix)
    while True:
        d = len(prefix)
        if not dirt and (d == cap - 1 or nxt[j] == n):
            # a clean prefix: a hit below it needs an uncovered row, and
            # at leaf depth the node itself must be the hit
            j = nxt[j]
        j += j == root
        if j < n and d < cap:
            piv, row = path.reduced(j)
            if piv is None:
                if row[k]:
                    best = (*prefix, j)
                    cap = d
            elif d < cap - 1:  # a node at leaf depth has no children
                path.push(j, piv, row)
                dirt += nxt[j] == j
            j += 1
        elif d > base:
            i = prefix[-1]
            dirt -= nxt[i] == i
            path.truncate(d - 1)
            j = i + 1
        else:
            return None if best is None else tuple(sorted(best))


def helly_certify(system: LinearSystem) -> HellyCertificate:
    """Global verdict with a checkable certificate either way.

    Consistent systems get their full solution set. Inconsistent systems
    get a minimum-cardinality inconsistent subsystem, the first in
    increasing size then lexicographic order, found by the depth-first
    walk of the module docstring. A degenerate equation ``0 = c`` with
    ``c != 0`` is itself a size-1 certificate; ``0 = 0`` rows are inert
    and never appear in one. An inconsistent system whose walk could pass
    ``MAX_CERTIFY_NODES`` nodes is refused with ``ValueError``.
    """
    rows = [eq.row for eq in system.equations]
    found, bad = echelon(rows, system.unknowns)
    if not bad:
        witness = _witness(found, system.unknowns)
        if not witness_satisfies(system, witness):
            raise InvariantViolation("computed witness fails to satisfy the system")
        return Consistent(witness)
    _check_search_size(system.n, system.unknowns, len(bad) == 1)
    idx = _first_minimum_inconsistent(rows, system.unknowns, bad)
    if idx is None:
        raise InvariantViolation(
            "inconsistent system with no inconsistent subsystem of size <= k+1; "
            "this contradicts the certification bound and indicates a bug"
        )
    return Inconsistent(idx)


class SamplingReport(Record):
    """Outcome of randomized subsystem sampling.

    Draw ``i`` is the ``i``-th ``tuple(sorted(rng.sample(range(n),
    subsystem_size)))`` of one ``rng = random.Random(seed)``, so the
    fields replay the report with nothing but ``random``. CPython seeds an
    integer by its absolute value: seeds ``-3`` and ``3`` draw alike.
    """

    samples_drawn: int
    subsystem_size: int
    inconsistent_samples: int
    first_hit: tuple[int, ...] | None
    seed: int
    generator: str = SAMPLING_GENERATOR


def _draws(rng: random.Random, n: int, size: int, count: int) -> list[tuple[int, ...]]:
    """``count`` times ``tuple(sorted(rng.sample(range(n), size)))``, the
    same draws in the same order, read from ``rng.getrandbits`` alone.

    This is CPython 3.11's ``Random.sample`` on ``range(n)`` without its
    per-call set-up. When ``n`` is at most its set size, a draw swaps
    indices out of a pool of the undrawn ones; otherwise it rejects
    repeats with a set. Each index below ``m`` is ``getrandbits`` of
    ``m``'s bit length, drawn again while it is ``>= m``.
    """
    bits = rng.getrandbits
    setsize = 21 + (4 ** ceil(log(size * 3, 4)) if size > 5 else 0)
    out = []
    if n <= setsize:
        base = list(range(n))
        spans = [(m, m.bit_length()) for m in range(n, n - size, -1)]
        for _ in range(count):
            pool = base[:]
            draw = []
            for m, b in spans:
                j = bits(b)
                while j >= m:
                    j = bits(b)
                draw.append(pool[j])
                pool[j] = pool[m - 1]
            draw.sort()
            out.append(tuple(draw))
    else:
        b = n.bit_length()
        for _ in range(count):
            seen: set[int] = set()
            while len(seen) < size:
                j = bits(b)
                if j < n:
                    seen.add(j)
            out.append(tuple(sorted(seen)))
    return out


def sample_consistency(system: LinearSystem, size: int, trials: int, seed: int) -> SamplingReport:
    """Draw uniform random ``size``-subsets and test each for consistency.

    ``_draws`` makes the draws that ``Random.sample`` would, so a report
    replays bit for bit from its own fields, as ``SamplingReport`` says.
    The cover is the rows that the canonical point of the fold of the
    first ``k`` rows satisfies, one integer dot product per row, made
    when a draw first asks; a draw of covered rows is consistent, with
    that point as witness. The other draws are judged in batches of
    ``SAMPLE_BATCH_INDICES`` indices: a batch is sorted, so that draws
    share the reduced rows of their common prefixes (``_scan_sets``),
    and then tallied in draw order. The scan gets the same cover: once a
    draw's clean prefix has rank ``k``, the point is its only solution,
    and the draw's other rows are settled by their cover bits.
    """
    if size < 0 or size > system.n:
        raise ValueError("subsystem size must be between 0 and the equation count")
    if trials < 1:
        raise ValueError("at least one trial required")
    rng = random.Random(seed)
    k = system.unknowns
    rows = [eq.row for eq in system.equations]
    found, _ = echelon(rows[:k], k)
    point, w = _scaled(_witness(found, k).point)  # the canonical point is point / w
    covered = _OnFirstUse(lambda j: sum(map(mul, rows[j], point)) == rows[j][k] * w).__getitem__
    bad = 0
    first_hit: tuple[int, ...] | None = None
    batch = max(1, SAMPLE_BATCH_INDICES // max(size, 8))
    for start in range(0, trials, batch):
        draws = _draws(rng, system.n, size, min(batch, trials - start))
        rest = [idx for idx in draws if not all(map(covered, idx))]
        if not rest:
            continue
        order = sorted(rest)
        consistent = bytearray(ok for _, ok in _scan_sets(rows, k, order, covered))
        bad += consistent.count(0)
        if first_hit is None and bad:
            first_hit = next(idx for idx in rest if not consistent[bisect_left(order, idx)])
    return SamplingReport(trials, size, bad, first_hit, seed)
