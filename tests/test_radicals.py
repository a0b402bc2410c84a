from decimal import Decimal, getcontext
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helly.radicals import (
    ccw_in_span,
    point_float,
    qcmp,
    qpoint,
    quad_bounds,
    quad_float,
    quadpoint,
    quadval,
    same_point,
    sign_one,
    sign_quartic,
    sqrt_bounds,
)
from helpers import _bilinear_coeffs, cross_sign, sign_nested, vec_in_ccw_span

getcontext().prec = 80


def _num(e0, e1=0, d1=0, e2=0, d2=0, e3=0):
    val = Decimal(e0.numerator) / Decimal(e0.denominator) if isinstance(e0, Fraction) else Decimal(e0)

    def dec(x):
        x = Fraction(x)
        return Decimal(x.numerator) / Decimal(x.denominator)

    total = dec(e0)
    total += dec(e1) * dec(d1).sqrt()
    total += dec(e2) * dec(d2).sqrt()
    total += dec(e3) * (dec(d1) * dec(d2)).sqrt()
    return total


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=8)
radicands = st.integers(min_value=0, max_value=30)


@given(rationals, rationals, radicands)
@settings(max_examples=300, deadline=None)
def test_sign_one_matches_high_precision_numeric(a, b, d):
    got = sign_one(a, b, d)
    approx = _num(a, b, d)
    if abs(approx) > Decimal("1e-40"):
        assert got == (approx > 0) - (approx < 0)
    else:
        assert got == 0


@given(rationals, rationals, radicands, rationals, radicands, st.booleans())
@settings(max_examples=300, deadline=None)
def test_qcmp_matches_high_precision_numeric(c0, c1, d1, c2, d2, shared):
    if shared:
        d2 = d1  # the one-radical branch
    got = qcmp(quadval(c0, c1, d1), quadval(0, -c2, d2))
    approx = _num(c0, c1, d1, c2, d2)
    if abs(approx) > Decimal("1e-40"):
        assert got == (approx > 0) - (approx < 0)
    else:
        assert got == 0


@given(rationals, rationals, rationals, rationals, radicands, radicands)
@settings(max_examples=300, deadline=None)
def test_sign_quartic_matches_high_precision_numeric(e0, e1, e2, e3, d1, d2):
    got = sign_quartic(e0, e1, e2, e3, d1, d2)
    approx = _num(e0, e1, d1, e2, d2, e3)
    if abs(approx) > Decimal("1e-40"):
        assert got == (approx > 0) - (approx < 0)
    else:
        assert got == 0


def test_sign_constructed_zeros():
    # sqrt(8) - 2*sqrt(2) == 0
    assert qcmp(quadval(0, 1, 8), quadval(0, 2, 2)) == 0
    # 3 - sqrt(9) == 0
    assert sign_one(Fraction(3), Fraction(-1), 9) == 0
    # sqrt(2)*sqrt(3) - sqrt(6) == 0
    assert sign_quartic(Fraction(0), Fraction(0), Fraction(0), Fraction(1), 2, 3) - sign_one(
        Fraction(0), Fraction(1), 6
    ) == 0
    assert sign_quartic(Fraction(0), Fraction(-1), Fraction(0), Fraction(0), 6, 1) == -1


def test_quadval_normalization():
    v = quadval(0, 1, Fraction(3, 4))  # sqrt(3/4) == (1/2) sqrt(3)
    assert (v.a, v.b, v.d) == (0, Fraction(1, 2), 3)
    assert quadval(1, 2, 9).rational() == 7  # perfect square folds
    assert quadval(5, 0, 17).is_rational
    assert quadval(0, 3, 8).d == 2  # square factor extracted


def test_quadval_arithmetic_and_sign():
    r2 = quadval(0, 1, 2)
    assert (r2 * r2).rational() == 2
    assert (r2 + 1).sign() > 0
    assert (r2 - 2).sign() < 0  # sqrt(2) < 2
    assert (r2 - 1).sign() > 0
    assert ((r2 + 1) * (r2 - 1)).rational() == 1
    with pytest.raises(ArithmeticError):
        _ = quadval(0, 1, 2) + quadval(0, 1, 3)


# radicands with square factors, small and large, and fractional ones
square_radicands = st.one_of(
    st.builds(lambda d, f: d * f * f, radicands, st.sampled_from([1, 2, 3, 11])),
    st.fractions(min_value=0, max_value=50, max_denominator=12),
)


def _reference_bounds(v, bits):
    """``quad_bounds`` in Fraction parts: a + b*sqrt(d) with sqrt(d)
    enclosed at ``bits`` plus two guard bits plus b's integer bits."""
    if v.d == 0:
        return v.a, v.a
    guard = max(abs(v.b.numerator).bit_length() - v.b.denominator.bit_length(), 0) + 2
    lo, hi = sqrt_bounds(Fraction(v.d), bits + guard)
    return (v.a + v.b * lo, v.a + v.b * hi) if v.b > 0 else (v.a + v.b * hi, v.a + v.b * lo)


@given(rationals, rationals, rationals, rationals, square_radicands, square_radicands, st.integers(0, 80))
@settings(max_examples=300, deadline=None)
def test_quadval_integers_match_the_fraction_formulas(a1, b1, a2, b2, d1, d2, bits):
    for x in (quadval(a1, b1, d1), quadval(a2, b2, d2)):
        assert x.w > 0 and gcd(x.p, x.q, x.w) == 1 and (x.q == 0) == (x.d == 0)
        assert x.a == Fraction(x.p, x.w) and x.b == Fraction(x.q, x.w)
        assert quad_bounds(x, bits) == _reference_bounds(x, bits)
    # shared radicand: the sum, difference and product of the parts
    x, y = quadval(a1, b1, d1), quadval(a2, b2, d1)
    d = x.d or y.d
    for got, a, b in (
        (x + y, x.a + y.a, x.b + y.b),
        (x - y, x.a - y.a, x.b - y.b),
        (x * y, x.a * y.a + x.b * y.b * d, x.a * y.b + x.b * y.a),
    ):
        assert (got.a, got.b, got.d) == ((a, b, d) if b else (a, 0, 0))
    # any two values: the comparison of their parts
    x, y = quadval(a1, b1, d1), quadval(a2, b2, d2)
    assert qcmp(x, y) == sign_quartic(x.a - y.a, x.b, -y.b, 0, x.d, y.d)


def test_qcmp_across_radicands():
    assert qcmp(quadval(0, 1, 8), quadval(0, 2, 2)) == 0
    assert qcmp(quadval(0, 1, 2), quadval(0, 1, 3)) < 0
    assert qcmp(quadval(2), quadval(0, 1, 5)) < 0  # 2 < sqrt(5)
    assert qcmp(quadval(3), quadval(0, 1, 5)) > 0


def test_sign_nested():
    # -3 + 2*sqrt(2 + sqrt(2)): sqrt(3.414..) ~ 1.847 -> positive
    lin = quadval(-3)
    rad = quadval(2, 1, 2)
    assert sign_nested(lin, Fraction(2), rad) > 0
    # -4 + 2*sqrt(2 + sqrt(2)) -> negative
    assert sign_nested(quadval(-4), Fraction(2), rad) < 0
    # exact zero: -sqrt(4 + 0) + 2
    assert sign_nested(quadval(-2), Fraction(1), quadval(4)) == 0


def test_same_point_across_representations():
    p = quadpoint(quadval(0, 1, 8), quadval(1))
    q = quadpoint(quadval(0, 2, 2), quadval(1))
    assert same_point(p, q)
    assert not same_point(p, qpoint(2, 1))


def test_vec_in_ccw_span_quadrants():
    e = (quadval(1), quadval(0))
    n = (quadval(0), quadval(1))
    w = (quadval(-1), quadval(0))
    s = (quadval(0), quadval(-1))
    ne = (quadval(1), quadval(1))
    assert vec_in_ccw_span(ne, e, n)
    assert not vec_in_ccw_span(ne, n, w)
    assert vec_in_ccw_span(e, e, n)  # closed at endpoints
    assert vec_in_ccw_span(n, e, n)
    # wide span (> half turn): from north CCW to east covers west and south
    assert vec_in_ccw_span(w, n, e)
    assert vec_in_ccw_span(s, n, e)
    assert not vec_in_ccw_span(ne, n, e)
    # antipodal span: everything on the left of east, closed
    assert vec_in_ccw_span(n, e, w)
    assert not vec_in_ccw_span(s, e, w)


def test_ccw_in_span_on_circle_with_radical_points():
    # unit circle around origin; corners of the two-unit-disk lens
    a = quadpoint(quadval(Fraction(1, 2)), quadval(0, -1, Fraction(3, 4)))
    b = quadpoint(quadval(Fraction(1, 2)), quadval(0, 1, Fraction(3, 4)))
    east = qpoint(1, 0)
    west = qpoint(-1, 0)
    assert ccw_in_span(east, a, b, 0, 0, 1)
    assert not ccw_in_span(west, a, b, 0, 0, 1)
    assert ccw_in_span(west, b, a, 0, 0, 1)


def test_cross_and_dot_signs_mixed_radicands():
    u = (quadval(0, 1, 2), quadval(1))  # (sqrt2, 1)
    v = (quadval(0, 1, 3), quadval(-1))  # (sqrt3, -1)
    # cross = sqrt2*(-1) - 1*sqrt3 < 0 ; dot = sqrt6 - 1 > 0
    assert cross_sign(u, v) < 0
    assert sign_quartic(*_bilinear_coeffs(u, v, cross=False)) > 0


def test_sqrt_bounds_contains_and_tight():
    for x in (Fraction(2), Fraction(3, 4), Fraction(10, 7), Fraction(0)):
        lo, hi = sqrt_bounds(x, 40)
        assert lo * lo <= x <= hi * hi
        assert hi - lo <= Fraction(1, 2**40)


def test_quad_bounds_width_and_membership():
    v = quadval(Fraction(1, 3), Fraction(-7, 2), 5)
    lo, hi = quad_bounds(v, 50)
    assert hi - lo <= Fraction(1, 2**50)
    # value is within: compare against qcmp with rational endpoints
    assert qcmp(v, quadval(lo)) >= 0
    assert qcmp(v, quadval(hi)) <= 0


def test_sqrt_bounds_rejects_negative():
    with pytest.raises(ValueError):
        sqrt_bounds(Fraction(-1), 10)


def test_display_floats_round_to_nearest_next_to_a_rounding_boundary():
    # for a convergent p/q of sqrt(2), |p - q*sqrt(2)| = 1/(p + q*sqrt(2));
    # added to the midpoint 1 + 2**-53 of two floats it stays within
    # 2**-120 of that midpoint, inside the first bracket of sqrt(2)
    p, q = 1, 1
    while q < 2**70:
        p, q = p + 2 * q, p + q
    assert p * p - 2 * q * q == -1  # p < q*sqrt(2)
    w = 2**53
    below = quadval(Fraction(w + 1 + p, w), Fraction(-q, w), 2)
    above = quadval(Fraction(w + 1 - p, w), Fraction(q, w), 2)
    assert quad_float(below) == 1.0 and quad_float(above) == 1 + 2**-52
    assert point_float(quadpoint(below, above)) == (1.0, 1 + 2**-52)
    assert quad_float(quadval(Fraction(1, 3))) == 1 / 3
    assert quad_float(quadval(1, Fraction(1, 3), 9)) == 2.0
