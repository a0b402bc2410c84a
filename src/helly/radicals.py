"""Exact sign arithmetic over one and two square roots.

Two circles with rational centers and radii meet in points whose
coordinates look like ``p + q*sqrt(d)`` with rational ``p, q, d``. Every
question this package asks about such points (inside a disk? on which
side? within an arc?) reduces to the sign of an expression carrying at
most two distinct radicals,

    e0 + e1*sqrt(d1) + e2*sqrt(d2) + e3*sqrt(d1*d2),

and such signs are decidable exactly by comparing squares with careful
sign bookkeeping: ``sign_one`` for one radical, ``sign_quartic`` for the
full form. No epsilon appears anywhere in this module. Floats never
appear either; the dyadic helpers at the bottom emit certified [lo, hi]
rational enclosures for display, which no predicate consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

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
    """A plane point whose two coordinates share a single radicand."""

    x: QuadVal
    y: QuadVal

    def __post_init__(self) -> None:
        if self.x.d != 0 and self.y.d != 0 and self.x.d != self.y.d:
            raise ValueError("coordinates must share one radicand")


def qpoint(x, y) -> QuadPoint:
    """Point from plain rationals."""
    return QuadPoint(quadval(x), quadval(y))


def same_point(p: QuadPoint, q: QuadPoint) -> bool:
    return qcmp(p.x, q.x) == 0 and qcmp(p.y, q.y) == 0


Vec = tuple[QuadVal, QuadVal]


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


def ccw_in_span(x: QuadPoint, a: QuadPoint, b: QuadPoint, cx: Fraction, cy: Fraction) -> bool:
    """Closed membership of x in the CCW arc span from a to b around (cx, cy).

    All three points are expected on one circle centered there.
    """
    return vec_in_ccw_span(vec_from(x, cx, cy), vec_from(a, cx, cy), vec_from(b, cx, cy))


# ---------------------------------------------------------------------------
# Certified dyadic enclosures (output only; predicates never read these)


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


def quad_float(v: QuadVal) -> float:
    lo, hi = quad_bounds(v, 60)
    return float((lo + hi) / 2)


def point_float(p: QuadPoint) -> tuple[float, float]:
    return quad_float(p.x), quad_float(p.y)
