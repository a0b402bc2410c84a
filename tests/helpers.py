"""Shared random generators, test-only exact predicates and the reference
instance writers and generators."""

import json
import random
from fractions import Fraction
from itertools import combinations
from math import isqrt

from helly import Disk, Equation, LinearSystem, disk, linear_system, triple_meet
from helly.instances import FORMAT_VERSION, _rat_pair
from helly.linear import _Path
from helly.radicals import QuadPoint, QuadVal, Vec, sign_of, sign_quartic


def random_nondegenerate_system(rng, k=None, n=None, planted=None, lo=-5, hi=5) -> LinearSystem:
    """Random system with no all-zero coefficient rows; optionally plants
    an integer solution so the system is consistent by construction."""
    if k is None:
        k = rng.randint(1, 4)
    if n is None:
        n = rng.randint(k + 1, 12)
    if planted is None:
        planted = rng.random() < 0.45
    solution = [rng.randint(-3, 3) for _ in range(k)] if planted else None
    rows, rhs = [], []
    for _ in range(n):
        row = [rng.randint(lo, hi) for _ in range(k)]
        while all(c == 0 for c in row):
            row = [rng.randint(lo, hi) for _ in range(k)]
        rows.append(row)
        if solution is not None:
            rhs.append(sum(c * x for c, x in zip(row, solution)))
        else:
            rhs.append(rng.randint(lo, hi))
    return linear_system(rows, rhs)


def random_structured_system(rng) -> LinearSystem:
    """Up to 12 equations in 1 to 5 unknowns, full of the dependences a
    subset search must get right: fractional entries, zero columns,
    proportional rows, ``0 = 0`` and ``0 = c`` rows. Two systems in five
    plant a rational solution, so that about half of them are consistent."""
    k = rng.randint(1, 5)
    n = rng.randint(1, 12)
    zero_cols = {c for c in range(k) if rng.random() < 0.15}
    solution = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(k)] if rng.random() < 0.4 else None

    def entry(c):
        return Fraction(0) if c in zero_cols else Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    rows, rhs = [], []
    for _ in range(n):
        roll = rng.random()
        if roll < 0.02:
            row, b = [Fraction(0)] * k, Fraction(rng.randint(-2, 2))
        elif roll < 0.08:
            row, b = [Fraction(0)] * k, Fraction(0)
        elif roll < 0.4 and rows:
            i = rng.randrange(len(rows))
            f = Fraction(rng.choice([-2, -1, 1, 2, 3]), rng.randint(1, 3))
            row = [f * x for x in rows[i]]
            b = f * rhs[i] + (rng.randint(-1, 1) if rng.random() < 0.15 else 0)
        else:
            row = [entry(c) for c in range(k)]
            b = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if solution is not None and any(row):
            b = sum(c * x for c, x in zip(row, solution))
        rows.append(row)
        rhs.append(b)
    return linear_system(rows, rhs)


def reference_first_minimum_inconsistent(rows, k, bad):
    """The certify walk as it was before it took a root: every set of 1 to
    ``k + 1`` rows in lexicographic pre-order, on ``helly.linear._Path``
    and the fold's cover. The reference that
    ``helly.linear._first_minimum_inconsistent`` matches hit for hit, and
    never exceeds in nodes."""
    n = len(rows)
    cap = min(k + 1, n)
    nxt = []  # nxt[j]: the first uncovered row at or after j
    for b in (*bad, n):
        nxt += [b] * (b + 1 - len(nxt))
    path = _Path(rows, k)
    prefix = path.indices
    best = None
    j = dirt = 0
    while True:
        d = len(prefix)
        if not dirt and (d == cap - 1 or nxt[j] == n):
            j = nxt[j]
        if j < n and d < cap:
            piv, row = path.reduced(j)
            if piv is None:
                if row[k]:
                    best = (*prefix, j)
                    cap = d
            elif d < cap - 1:
                path.push(j, piv, row)
                dirt += nxt[j] == j
            j += 1
        elif prefix:
            i = prefix[-1]
            dirt -= nxt[i] == i
            path.truncate(d - 1)
            j = i + 1
        else:
            return best


def reference_dumps_linear(system: LinearSystem) -> str:
    """The instance text as ``json.dumps`` lays it out: the reference that
    ``helly.instances.dumps_linear`` matches byte for byte."""
    doc = {
        "version": FORMAT_VERSION,
        "kind": "linear",
        "unknowns": system.unknowns,
        "equations": [
            {"coeffs": [_rat_pair(c) for c in eq.coeffs], "rhs": _rat_pair(eq.rhs)}
            for eq in system.equations
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def reference_dumps_disks(family) -> str:
    """The reference for ``helly.instances.dumps_disks``, as above."""
    doc = {
        "version": FORMAT_VERSION,
        "kind": "disks",
        "disks": [
            {"center": [_rat_pair(d.x), _rat_pair(d.y)], "radius": _rat_pair(d.r)}
            for d in family
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


# The instance generators as they were written with ``randint`` and
# ``Fraction``: the reference that ``helly.instances`` matches, instance
# for instance, while it draws from ``getrandbits`` and builds integers.


def _reference_nonzero_row(rng, k):
    while True:
        row = [rng.randint(-5, 5) for _ in range(k)]
        if any(row):
            return row


def reference_gen_random_linear(n, k, seed) -> LinearSystem:
    rng = random.Random(seed)
    eqs = [Equation(_reference_nonzero_row(rng, k), rng.randint(-5, 5)) for _ in range(n)]
    return LinearSystem(k, tuple(eqs))


def reference_gen_consistent_linear(n, k, seed) -> LinearSystem:
    rng = random.Random(seed)
    solution = [rng.randint(-3, 3) for _ in range(k)]
    eqs = []
    for _ in range(n):
        row = _reference_nonzero_row(rng, k)
        eqs.append(Equation(row, sum(c * x for c, x in zip(row, solution))))
    return LinearSystem(k, tuple(eqs))


def reference_gen_random_disks(n, seed) -> list[Disk]:
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        x = Fraction(rng.randint(-16, 16), rng.randint(1, 4))
        y = Fraction(rng.randint(-16, 16), rng.randint(1, 4))
        r = Fraction(rng.randint(1, 16), rng.randint(1, 4))
        out.append(Disk(x, y, r))
    return out


def reference_gen_helly_disks(n, seed) -> list[Disk]:
    rng = random.Random(seed)
    px = Fraction(rng.randint(-8, 8), 2)
    py = Fraction(rng.randint(-8, 8), 2)
    out = []
    for _ in range(n):
        x = Fraction(rng.randint(-16, 16), rng.randint(1, 4))
        y = Fraction(rng.randint(-16, 16), rng.randint(1, 4))
        r = abs(x - px) + abs(y - py) + Fraction(rng.randint(1, 8), 4)
        out.append(Disk(x, y, r))
    return out


def random_disk(rng, span=10, rlo=1, rhi=10, den=3) -> Disk:
    x = Fraction(rng.randint(-span, span), rng.randint(1, den))
    y = Fraction(rng.randint(-span, span), rng.randint(1, den))
    r = Fraction(rng.randint(rlo, rhi), rng.randint(1, den))
    return Disk(x, y, r)


def random_family(rng, n=None, **kw) -> list[Disk]:
    if n is None:
        n = rng.randint(3, 10)
    return [random_disk(rng, **kw) for _ in range(n)]


def lattice_family(rng, den=1) -> list[Disk]:
    """Centres in [-3, 3] and radii 1-5 on the lattice of step 1/den, so
    tangencies are common; three families in ten repeat one disk."""
    def coord(lo, hi):
        return Fraction(rng.randint(lo * den, hi * den), den)

    fam = [disk(coord(-3, 3), coord(-3, 3), coord(1, 5)) for _ in range(rng.randint(3, 5))]
    if rng.random() < 0.3:
        fam.insert(rng.randint(0, len(fam)), rng.choice(fam))
    return fam


def ring_family(n) -> list[Disk]:
    """n disks of radius 3/2 centred at rational points of the unit circle.
    Each disk adds an arc to the intersection, so clipping them takes
    quadratic time."""
    out = []
    for j in range(n):
        t = Fraction(j - n // 2, 10)
        out.append(disk((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t), Fraction(3, 2)))
    return out


def first_primes(n, start=11) -> list[int]:
    """The first n primes from ``start`` on, by trial division."""
    out, k = [], start
    while len(out) < n:
        if k > 1 and all(k % q for q in range(2, isqrt(k) + 1)):
            out.append(k)
        k += 1
    return out


# rational unit vectors, for tangent disks at rational distances
DIRECTIONS = [
    (Fraction(1), Fraction(0)),
    (Fraction(0), Fraction(1)),
    (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(-5, 13), Fraction(12, 13)),
    (Fraction(8, 17), Fraction(-15, 17)),
]


def prime_family(rng, n, planted=False) -> list[Disk]:
    """n disks, the j-th with centre and radius over the j-th prime from 11
    on: centres in [-2, 2]^2, radii in [1, 5]. A planted family contains
    the origin, since each radius is at least the L1 norm of its centre.
    Otherwise one disk in three after the first touches an earlier one,
    from outside or from inside, along one of ``DIRECTIONS``; its
    denominator then also holds the earlier disk's and the direction's."""
    out = []
    for p in first_primes(n):
        x, y = (Fraction(rng.randint(-2 * p, 2 * p), p) for _ in range(2))
        r = Fraction(rng.randint(p, 5 * p), p)
        if planted:
            r += abs(x) + abs(y)
        elif out and rng.random() < 1 / 3:
            a = rng.choice(out)
            ux, uy = rng.choice(DIRECTIONS)
            if rng.random() < 0.5:
                gap = a.r + r  # osculation
            else:
                r = a.r * Fraction(rng.randint(1, p - 1), p)
                gap = a.r - r  # internal tangency
            x, y = a.x + gap * ux, a.y + gap * uy
        out.append(Disk(x, y, r))
    return out


def first_violating_triple(family) -> tuple[int, int, int] | None:
    """The lexicographically first triple of indices whose disks have no
    common point, by the exhaustive scan, or None when every three meet."""
    for i, j, k in combinations(range(len(family)), 3):
        if not triple_meet(family[i], family[j], family[k]):
            return (i, j, k)
    return None


# -- exact predicates used only by the tests ---------------------------------


# Vectors of ``QuadVal`` coordinates in ``Fraction`` arithmetic: the
# reference for the integer ``radicals.ccw_in_span``, ``turn_about`` and
# ``dist_sq``.


def vec_from(p: QuadPoint, cx: Fraction, cy: Fraction) -> Vec:
    """Vector from the rational point (cx, cy) to p."""
    return (p.x - cx, p.y - cy)


def _vec_radicand(v: Vec) -> int:
    return v[0].d or v[1].d


def _bilinear_coeffs(u: Vec, v: Vec, cross: bool):
    """Quartic-form coefficients of u x v (cross) or u . v (dot)."""
    (ux, uy), (vx, vy) = u, v
    if cross:
        e = (
            ux.a * vy.a - uy.a * vx.a,
            ux.b * vy.a - uy.b * vx.a,
            ux.a * vy.b - uy.a * vx.b,
            ux.b * vy.b - uy.b * vx.b,
        )
    else:
        e = (
            ux.a * vx.a + uy.a * vy.a,
            ux.b * vx.a + uy.b * vy.a,
            ux.a * vx.b + uy.a * vy.b,
            ux.b * vx.b + uy.b * vy.b,
        )
    return (*e, _vec_radicand(u), _vec_radicand(v))


def cross_sign(u: Vec, v: Vec) -> int:
    return sign_quartic(*_bilinear_coeffs(u, v, cross=True))


def vec_in_ccw_span(x: Vec, a: Vec, b: Vec) -> bool:
    """Is direction x inside the closed counterclockwise fan from a to b?

    a and b must be nonparallel or opposite (the fan from a to itself is
    not meaningful and is rejected by callers).
    """
    s_ab = cross_sign(a, b)
    s_ax = cross_sign(a, x)
    s_xb = cross_sign(x, b)
    if s_ab > 0:
        return s_ax >= 0 and s_xb >= 0
    if s_ab < 0:
        return s_ax >= 0 or s_xb >= 0
    # a and b opposite: the span is the closed half turn on a's left.
    return s_ax >= 0


def quadval_disk_side(p: QuadPoint, d: Disk) -> int:
    """Side of p against d (-1 inside, 0 on the circle, +1 outside) through
    ``QuadVal`` arithmetic, the reference for the direct ``disk_side``."""
    ux, uy = p.x - d.x, p.y - d.y
    return (ux * ux + uy * uy - d.r * d.r).sign()


def sign_nested(lin: QuadVal, c: Fraction, rad: QuadVal) -> int:
    """Sign of ``lin + c*sqrt(rad)`` where lin and rad share one radicand.

    ``rad`` must be nonnegative (callers pass squared norms).
    """
    sr = rad.sign()
    if sr < 0:
        raise ValueError("nested radicand must be nonnegative")
    if c == 0 or sr == 0:
        return lin.sign()
    s_a = lin.sign()
    s_b = sign_of(c)
    if s_a == 0:
        return s_b
    if s_a == s_b:
        return s_a
    m = (lin * lin - c * c * rad).sign()
    if m > 0:
        return s_a
    if m < 0:
        return s_b
    return 0


def beyond_foot_sign(u: Vec, v: Vec) -> int:
    """Sign of (u - v) . v for vectors from one rational origin.

    Positive exactly when u projects past v's endpoint along v; this is
    the half-plane test for the line through v's endpoint normal to v,
    decided exactly even when u and v carry different radicands.
    """
    e0, e1, e2, e3, d1, d2 = _bilinear_coeffs(u, v, cross=False)
    vv = v[0] * v[0] + v[1] * v[1]
    # v.v lives on the (1, sqrt(d2)) axes of the quartic basis
    return sign_quartic(e0 - vv.a, e1, e2 - vv.b, e3, d1, d2)


def midpoint_dot_coeffs(u: Vec, v: Vec):
    """Quartic coefficients of |(u + v)/2|^2 (used for convexity checks)."""
    d1 = _vec_radicand(u)
    d2 = _vec_radicand(v)
    uu = u[0] * u[0] + u[1] * u[1]
    vv = v[0] * v[0] + v[1] * v[1]
    m0, m1, m2, m3, _, _ = _bilinear_coeffs(u, v, cross=False)
    e0 = uu.a / 4 + vv.a / 4 + m0 / 2
    e1 = uu.b / 4 + m1 / 2
    e2 = vv.b / 4 + m2 / 2
    e3 = m3 / 2
    return e0, e1, e2, e3, d1, d2


def midpoint_side(p: QuadPoint, q: QuadPoint, d: Disk) -> int:
    """Side of the midpoint of p and q, even when their radicands differ."""
    u = vec_from(p, d.x, d.y)
    v = vec_from(q, d.x, d.y)
    e0, e1, e2, e3, d1, d2 = midpoint_dot_coeffs(u, v)
    return sign_quartic(e0 - d.r * d.r, e1, e2, e3, d1, d2)
