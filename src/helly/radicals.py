"""Exact sign arithmetic over one and two square roots.

Two circles with rational centers and radii meet in points whose
coordinates look like ``p + q*sqrt(d)`` with rational ``p, q, d``. A
``QuadPoint`` keeps both coordinates as integer numerators over one
positive denominator, with one integer radicand:
((xa + xb*sqrt(d))/w, (ya + yb*sqrt(d))/w). Every question this package
asks about such points (inside a disk? which is lower? within an arc?)
reduces, after clearing positive denominators, to the sign of an integer
expression carrying at most two distinct radicals,

    e0 + e1*sqrt(d1) + e2*sqrt(d2) + e3*sqrt(d1*d2),

and such signs are decidable exactly by comparing squares with careful
sign bookkeeping: ``sign_one`` for one radical, ``sign_quartic`` for the
full form. The point predicates (``point_cmp``, ``same_point``,
``ccw_in_span``) build no ``Fraction``: integers keep the gcd work of
rational arithmetic out of the disk kernel. ``QuadVal``, the value
``a + b*sqrt(d)`` with rational a and b and a tidied radicand, serves
output, the separation query and the oracles; a point shows its
coordinates as ``QuadVal`` through its ``x`` and ``y`` views.

No epsilon appears anywhere in this module, and no predicate reads a
float. The helpers at the bottom are for display only: certified dyadic
[lo, hi] rational enclosures, and the floats ``quad_float`` and
``point_float`` that a drawing plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt, lcm

_SMALL_PRIMES = (2, 3, 5, 7)


def sign_of(x) -> int:
    return (x > 0) - (x < 0)


def _normalize(a: Fraction, b: Fraction, d) -> tuple[Fraction, Fraction, int]:
    """Canonicalize ``a + b*sqrt(d)`` to an integer radicand.

    Perfect squares fold into the rational part. Small square factors are
    pulled out to keep radicands tidy, but two equal values may still end
    up with different radicands; semantic comparisons must go through
    ``qcmp``, never through field equality.
    """
    if b == 0 or d == 0:
        return a, Fraction(0), 0
    df = Fraction(d)
    if df < 0:
        raise ValueError("radicand must be nonnegative")
    n, m = df.numerator, df.denominator
    rad = n * m
    b = b / m
    for p in _SMALL_PRIMES:
        p2 = p * p
        while rad % p2 == 0:
            rad //= p2
            b *= p
    s = isqrt(rad)
    if s * s == rad:
        return a + b * s, Fraction(0), 0
    return a, b, rad


@dataclass(frozen=True)
class QuadVal:
    """The exact value ``a + b*sqrt(d)`` with integer radicand ``d >= 0``."""

    a: Fraction
    b: Fraction
    d: int

    def sign(self) -> int:
        return sign_one(self.a, self.b, self.d)

    @property
    def is_rational(self) -> bool:
        return self.d == 0

    def rational(self) -> Fraction:
        if self.d != 0:
            raise ValueError("value carries a nontrivial radical")
        return self.a

    def _coerce(self, other) -> "QuadVal":
        if isinstance(other, QuadVal):
            return other
        return quadval(Fraction(other))

    def _join_radicand(self, other: "QuadVal") -> int:
        if self.d == 0:
            return other.d
        if other.d == 0 or other.d == self.d:
            return self.d
        raise ArithmeticError("mixing distinct radicands; use qcmp/sign helpers instead")

    def __add__(self, other) -> "QuadVal":
        o = self._coerce(other)
        return quadval(self.a + o.a, self.b + o.b, self._join_radicand(o))

    def __sub__(self, other) -> "QuadVal":
        o = self._coerce(other)
        return quadval(self.a - o.a, self.b - o.b, self._join_radicand(o))

    def __mul__(self, other) -> "QuadVal":
        o = self._coerce(other)
        d = self._join_radicand(o)
        return quadval(self.a * o.a + self.b * o.b * d, self.a * o.b + self.b * o.a, d)

    __rmul__ = __mul__


def quadval(a, b=0, d=0) -> QuadVal:
    an, bn, dn = _normalize(Fraction(a), Fraction(b), d)
    return QuadVal(an, bn, dn)


def sign_one(a: Fraction, b: Fraction, d) -> int:
    """Sign of ``a + b*sqrt(d)`` for rational a, b and d >= 0."""
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


def sign_quartic(e0: Fraction, e1: Fraction, e2: Fraction, e3: Fraction, d1, d2) -> int:
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
    if x.d == y.d:  # one radical left in the difference
        return sign_one(x.a - y.a, x.b - y.b, x.d)
    return sign_quartic(x.a - y.a, x.b, -y.b, 0, x.d, y.d)


# ---------------------------------------------------------------------------
# Points with coordinates in one quadratic extension


@dataclass(frozen=True)
class QuadPoint:
    """The plane point ((xa + xb*sqrt(d))/w, (ya + yb*sqrt(d))/w): integer
    numerators over one positive denominator w, with one radicand d >= 0.

    The fields need not be reduced, so two equal points may differ in
    them; compare points with ``same_point`` and ``point_cmp``. ``x`` and
    ``y`` are the coordinates as ``QuadVal``, built on first use and then
    kept; the predicates below never read them.
    """

    xa: int
    xb: int
    ya: int
    yb: int
    d: int
    w: int

    def __post_init__(self) -> None:
        if self.w <= 0 or self.d < 0:
            raise ValueError("a point needs a positive denominator and a nonnegative radicand")

    @cached_property
    def x(self) -> QuadVal:
        return quadval(Fraction(self.xa, self.w), Fraction(self.xb, self.w), self.d)

    @cached_property
    def y(self) -> QuadVal:
        return quadval(Fraction(self.ya, self.w), Fraction(self.yb, self.w), self.d)


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
    parts = (x.a, x.b, y.a, y.b)
    w = lcm(*(v.denominator for v in parts))
    xa, xb, ya, yb = (v.numerator * (w // v.denominator) for v in parts)
    return QuadPoint(xa, xb, ya, yb, d, w)


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
    den = (p.w * m) ** 2
    return quadval(
        Fraction(ux * ux + uy * uy + (uxr * uxr + uyr * uyr) * d, den),
        Fraction(2 * (ux * uxr + uy * uyr), den),
        d,
    )


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
    """Dyadic enclosure of a + b*sqrt(d) with width at most 2**-bits."""
    if v.d == 0:
        return v.a, v.a
    guard = max(abs(v.b.numerator).bit_length() - v.b.denominator.bit_length(), 0) + 2
    lo, hi = sqrt_bounds(Fraction(v.d), bits + guard)
    if v.b >= 0:
        return v.a + v.b * lo, v.a + v.b * hi
    return v.a + v.b * hi, v.a + v.b * lo


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
    (an, ad), (bn, bd) = v.a.as_integer_ratio(), v.b.as_integer_ratio()
    w = lcm(ad, bd)
    return _nearest_float(an * (w // ad), bn * (w // bd), w, v.d)


def point_float(p: QuadPoint) -> tuple[float, float]:
    """The floats nearest p's coordinates, for display: the same floats
    as ``quad_float`` of its ``x`` and ``y`` views, without building them."""
    return _nearest_float(p.xa, p.xb, p.w, p.d), _nearest_float(p.ya, p.yb, p.w, p.d)
