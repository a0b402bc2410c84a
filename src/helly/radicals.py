"""Exact sign arithmetic over one and two square roots.

Two circles with rational centers and radii meet in points whose
coordinates look like ``p + q*sqrt(d)`` with rational ``p, q, d``. Such
a value (``QuadVal``) and point (``QuadPoint``) keep integer numerators
over one positive denominator, with one integer radicand:
(p + q*sqrt(d))/w and ((xa + xb*sqrt(d))/w, (ya + yb*sqrt(d))/w). Every
question this package asks about them (inside a disk? which is lower?
within an arc? which gap is least?) reduces, after clearing positive
denominators, to the sign of an integer expression carrying at most two
distinct radicals,

    e0 + e1*sqrt(d1) + e2*sqrt(d2) + e3*sqrt(d1*d2),

and such signs are decidable exactly by comparing squares with careful
sign bookkeeping: ``sign_one`` for one radical, ``sign_quartic`` for the
full form. No predicate builds a ``Fraction``: integers keep the gcd work
of rational arithmetic out of the kernel and the separation query. A
point shows its coordinates as ``QuadVal`` through its ``x`` and ``y``
views, and a value shows ``Fraction`` parts through ``a`` and ``b``.

No epsilon appears anywhere in this module, and no predicate reads a
float. The helpers at the bottom are for display only: certified dyadic
[lo, hi] rational enclosures, and the floats ``quad_float`` and
``point_float`` that a drawing plots.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from .records import Record, cached_view

_SMALL_PRIMES = (2, 3, 5, 7)


def sign_of(x) -> int:
    return (x > 0) - (x < 0)


def _normalize(p: int, q: int, d: int, w: int) -> QuadVal:
    """The value (p + q*sqrt(d))/w, for w > 0 and d >= 0, in its tidy form.

    Perfect squares fold into the rational part, small square factors
    leave the radicand, and one gcd divides all three integers. Two equal
    values may still keep different radicands (a large square factor
    stays), so semantic comparisons go through ``qcmp``, never through
    field equality. Every ``QuadVal`` is built here.
    """
    if q == 0 or d == 0:
        q = d = 0
    else:
        if d < 0:
            raise ValueError("radicand must be nonnegative")
        for f in _SMALL_PRIMES:
            f2 = f * f
            while d % f2 == 0:
                d //= f2
                q *= f
        s = isqrt(d)
        if s * s == d:
            p, q, d = p + q * s, 0, 0
    g = gcd(p, q, w)
    return QuadVal(p // g, q // g, d, w // g)


class QuadVal(Record):
    """The exact value (p + q*sqrt(d))/w = a + b*sqrt(d), built by
    ``_normalize``: w > 0, d >= 0, q = 0 when d = 0 and gcd(p, q, w) = 1,
    so the value and d fix p, q and w. ``a`` and ``b`` are views, built when read."""

    p: int
    q: int
    d: int
    w: int

    def __init__(self, p: int, q: int, d: int, w: int) -> None:
        vars(self).update(p=p, q=q, d=d, w=w)

    @cached_view
    def a(self) -> Fraction:
        return Fraction(self.p, self.w)

    @cached_view
    def b(self) -> Fraction:
        return Fraction(self.q, self.w)

    def sign(self) -> int:
        return sign_one(self.p, self.q, self.d)

    @property
    def is_rational(self) -> bool:
        return self.d == 0

    def rational(self) -> Fraction:
        if self.d != 0:
            raise ValueError("value carries a nontrivial radical")
        return self.a

    def _join(self, other) -> tuple[QuadVal, int]:
        """``other`` as a ``QuadVal``, and the radicand the two share."""
        o = other if isinstance(other, QuadVal) else quadval(other)
        if self.d and o.d and o.d != self.d:
            raise ArithmeticError("mixing distinct radicands; use qcmp/sign helpers instead")
        return o, self.d or o.d

    def __add__(self, other) -> QuadVal:
        o, d = self._join(other)
        return _normalize(self.p * o.w + o.p * self.w, self.q * o.w + o.q * self.w, d, self.w * o.w)

    def __sub__(self, other) -> QuadVal:
        o, d = self._join(other)
        return _normalize(self.p * o.w - o.p * self.w, self.q * o.w - o.q * self.w, d, self.w * o.w)

    def __mul__(self, other) -> QuadVal:
        o, d = self._join(other)
        return _normalize(self.p * o.p + self.q * o.q * d, self.p * o.q + self.q * o.p, d, self.w * o.w)

    __rmul__ = __mul__


def quadval(a, b=0, d=0) -> QuadVal:
    """The value a + b*sqrt(d) for rationals a, b and d >= 0."""
    (an, ad), (bn, bd), (dn, dd) = (Fraction(v).as_integer_ratio() for v in (a, b, d))
    bd *= dd  # sqrt(dn/dd) = sqrt(dn*dd)/dd
    w = lcm(ad, bd)
    return _normalize(an * (w // ad), bn * (w // bd), dn * dd, w)


def sign_one(a: int, b: int, d: int) -> int:
    """Sign of ``a + b*sqrt(d)`` for d >= 0; a and b may be rational."""
    if b == 0 or d == 0:
        return sign_of(a)
    sb = sign_of(b)
    if a == 0:
        return sb
    sa = sign_of(a)
    if sa == sb:
        return sa
    m = sign_of(a * a - b * b * d)
    if m > 0:
        return sa
    if m < 0:
        return sb
    return 0


def sign_quartic(e0: int, e1: int, e2: int, e3: int, d1: int, d2: int) -> int:
    """Sign of ``e0 + e1*sqrt(d1) + e2*sqrt(d2) + e3*sqrt(d1*d2)``.

    Written as P + Q*sqrt(d2) with P, Q in the field of sqrt(d1); the sign
    falls out of the signs of P and Q plus one squared comparison.
    """
    if d1 == 0:
        return sign_one(e0, e2, d2)
    if d2 == 0:
        return sign_one(e0, e1, d1)
    s_p = sign_one(e0, e1, d1)
    s_q = sign_one(e2, e3, d1)
    if s_q == 0:
        return s_p
    if s_p == 0:
        return s_q
    if s_p == s_q:
        return s_p
    pa = e0 * e0 + e1 * e1 * d1
    pb = 2 * e0 * e1
    qa = (e2 * e2 + e3 * e3 * d1) * d2
    qb = 2 * e2 * e3 * d2
    m = sign_one(pa - qa, pb - qb, d1)
    if m > 0:
        return s_p
    if m < 0:
        return s_q
    return 0


def qcmp(x: QuadVal, y: QuadVal) -> int:
    """Exact comparison of two values, radicands may differ."""
    return _cmp(x.p, x.q, x.w, x.d, y.p, y.q, y.w, y.d)


# ---------------------------------------------------------------------------
# Points with coordinates in one quadratic extension


class QuadPoint(Record):
    """The plane point ((xa + xb*sqrt(d))/w, (ya + yb*sqrt(d))/w): integer
    numerators over one positive denominator w, with one radicand d >= 0.

    The fields need not be reduced, so two equal points may differ in
    them; compare points with ``same_point`` and ``point_cmp``. ``x`` and
    ``y`` are the coordinates as ``QuadVal``, built on first read; the
    predicates below never read them.
    """

    xa: int
    xb: int
    ya: int
    yb: int
    d: int
    w: int

    def __init__(self, xa: int, xb: int, ya: int, yb: int, d: int, w: int) -> None:
        if w <= 0 or d < 0:
            raise ValueError("a point needs a positive denominator and a nonnegative radicand")
        vars(self).update(xa=xa, xb=xb, ya=ya, yb=yb, d=d, w=w)

    @cached_view
    def x(self) -> QuadVal:
        return _normalize(self.xa, self.xb, self.d, self.w)

    @cached_view
    def y(self) -> QuadVal:
        return _normalize(self.ya, self.yb, self.d, self.w)


def qpoint(x, y) -> QuadPoint:
    """Point from plain rationals."""
    (xn, xd), (yn, yd) = Fraction(x).as_integer_ratio(), Fraction(y).as_integer_ratio()
    w = lcm(xd, yd)
    return QuadPoint(xn * (w // xd), 0, yn * (w // yd), 0, 0, w)


def quadpoint(x: QuadVal, y: QuadVal) -> QuadPoint:
    """Point from two coordinates that share one radicand."""
    d = x.d or y.d
    if y.d not in (0, d):
        raise ValueError("coordinates must share one radicand")
    w = lcm(x.w, y.w)
    fx, fy = w // x.w, w // y.w
    return QuadPoint(x.p * fx, x.q * fx, y.p * fy, y.q * fy, d, w)


def _cmp(a1: int, b1: int, w1: int, d1: int, a2: int, b2: int, w2: int, d2: int) -> int:
    """Sign of (a1 + b1*sqrt(d1))/w1 - (a2 + b2*sqrt(d2))/w2, for w1, w2 > 0:
    the sign of w2*a1 - w1*a2 + w2*b1*sqrt(d1) - w1*b2*sqrt(d2)."""
    e0 = w2 * a1 - w1 * a2
    e1 = w2 * b1 if d1 else 0
    e2 = w1 * b2 if d2 else 0
    if not e1 or not e2 or d1 == d2:  # one radical left in the difference
        return sign_one(e0, e1 - e2, d1 if e1 else d2)
    return sign_quartic(e0, e1, -e2, 0, d1, d2)


def point_cmp(p: QuadPoint, q: QuadPoint) -> int:
    """-1, 0 or +1 as p comes before, at or after q by y, then by x."""
    c = _cmp(p.ya, p.yb, p.w, p.d, q.ya, q.yb, q.w, q.d)
    return c or _cmp(p.xa, p.xb, p.w, p.d, q.xa, q.xb, q.w, q.d)


def same_point(p: QuadPoint, q: QuadPoint) -> bool:
    return p is q or point_cmp(p, q) == 0


def _arm(p: QuadPoint, cx: int, cy: int, m: int) -> tuple[int, int, int, int, int]:
    """p minus the centre (cx/m, cy/m), scaled by the positive w*m: the
    vector (ux + uxr*sqrt(d), uy + uyr*sqrt(d)) as (ux, uxr, uy, uyr, d)."""
    return m * p.xa - p.w * cx, m * p.xb, m * p.ya - p.w * cy, m * p.yb, p.d


def _turn(u: tuple, v: tuple) -> int:
    """Sign of the cross product u x v of two ``_arm`` vectors."""
    ux, uxr, uy, uyr, du = u
    vx, vxr, vy, vyr, dv = v
    e0 = ux * vy - uy * vx
    e1 = uxr * vy - uyr * vx  # times sqrt(du)
    e2 = ux * vyr - uy * vxr  # times sqrt(dv)
    e3 = uxr * vyr - uyr * vxr  # times sqrt(du*dv)
    if du == dv:
        return sign_one(e0 + e3 * du, e1 + e2, du)
    return sign_quartic(e0, e1, e2, e3, du, dv)


def turn_about(a: QuadPoint, b: QuadPoint, cx: int, cy: int, m: int) -> int:
    """Sign of the cross product (a - c) x (b - c) about the centre
    c = (cx/m, cy/m), m > 0: +1 when b lies counterclockwise of a seen
    from c, 0 when they are parallel or opposite."""
    return _turn(_arm(a, cx, cy, m), _arm(b, cx, cy, m))


def dist_sq(p: QuadPoint, cx: int, cy: int, m: int) -> QuadVal:
    """Squared distance from p to the centre (cx/m, cy/m), m > 0. The arm
    p - c scaled by w*m is (ux + uxr*sqrt(d), uy + uyr*sqrt(d)); its
    squared length is taken in integers and divided by (w*m)**2 once."""
    ux, uxr, uy, uyr, d = _arm(p, cx, cy, m)
    a, b = ux * ux + uy * uy + (uxr * uxr + uyr * uyr) * d, 2 * (ux * uxr + uy * uyr)
    return _normalize(a, b, d, (p.w * m) ** 2)


def ccw_in_span(x: QuadPoint, a: QuadPoint, b: QuadPoint, cx: int, cy: int, m: int) -> bool:
    """Closed membership of the direction of x in the CCW arc span from a
    to b around the centre (cx/m, cy/m), m > 0. a and b are expected on one
    circle centred there, and must be distinct. x may lie off the circle,
    and may be any point other than the centre: only directions from the
    centre matter. The separation query passes the query disk's centre.

    The arms from the centre are scaled by positive factors, which keeps
    every turn's sign. x lies in the span when it turns left of a and b
    left of x, for a span under a half turn; when either holds, for a
    span over a half turn; and when x is left of a, for a half turn.
    """
    u, va, vb = _arm(x, cx, cy, m), _arm(a, cx, cy, m), _arm(b, cx, cy, m)
    s_ab, s_ax = _turn(va, vb), _turn(va, u)
    if s_ab == 0 or (s_ab > 0) != (s_ax >= 0):
        # a half turn, or a test of the pair that already settles it
        return s_ax >= 0
    return _turn(u, vb) >= 0


Vec = tuple[QuadVal, QuadVal]  # a plane vector, the separating line's normal


# ---------------------------------------------------------------------------
# Display output: certified dyadic enclosures and floats (predicates never
# read these)


def sqrt_bounds(x: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Dyadic enclosure of sqrt(x) with width at most 2**-bits."""
    if x < 0:
        raise ValueError("cannot enclose the square root of a negative value")
    if x == 0:
        return Fraction(0), Fraction(0)
    scaled = (x.numerator << (2 * bits)) // x.denominator
    s = isqrt(scaled)
    den = 1 << bits
    return Fraction(s, den), Fraction(s + 1, den)


def quad_bounds(v: QuadVal, bits: int) -> tuple[Fraction, Fraction]:
    """Dyadic enclosure of (p + q*sqrt(d))/w with width at most 2**-bits,
    from sqrt(d) in [s, s + 1]/2**g for s = isqrt(d * 4**g), where g is
    ``bits`` plus two guard bits plus the integer bits of q/w reduced."""
    if v.d == 0:
        return v.a, v.a
    c = gcd(v.q, v.w)
    g = bits + max((abs(v.q) // c).bit_length() - (v.w // c).bit_length(), 0) + 2
    s = isqrt(v.d << 2 * g)
    lo, hi = Fraction((v.p << g) + v.q * s, v.w << g), Fraction((v.p << g) + v.q * (s + 1), v.w << g)
    return (lo, hi) if v.q > 0 else (hi, lo)


def point_bounds(p: QuadPoint, bits: int):
    return quad_bounds(p.x, bits), quad_bounds(p.y, bits)


def _nearest_float(a: int, b: int, w: int, d: int) -> float:
    """The float nearest (a + b*sqrt(d))/w, for w > 0. sqrt(d) is bracketed
    by s/2**g and (s + 1)/2**g with s = isqrt(d * 4**g), starting from
    g = 64 + the bit length of b; when both ends round to one float, so
    does the value between them. An irrational value always lands clear
    of a rounding boundary once g is large enough, and a rational one
    (b = 0 or d a square) is divided exactly, so the loop ends."""
    g = 64 + abs(b).bit_length()
    while True:
        dg = d << 2 * g
        s = isqrt(dg)
        near = ((a << g) + b * s) / (w << g)
        if b == 0 or s * s == dg or near == ((a << g) + b * (s + 1)) / (w << g):
            return near
        g *= 2


def quad_float(v: QuadVal) -> float:
    """The float nearest v, for display."""
    return _nearest_float(v.p, v.q, v.w, v.d)


def point_float(p: QuadPoint) -> tuple[float, float]:
    """The floats nearest p's coordinates, for display: the same floats
    as ``quad_float`` of its ``x`` and ``y`` views, without building them."""
    return _nearest_float(p.xa, p.xb, p.w, p.d), _nearest_float(p.ya, p.yb, p.w, p.d)
