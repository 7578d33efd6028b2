"""Ball arithmetic soundness: every operation encloses the exact result.

The oracle is exact rational arithmetic on sampled member points: if
x is in [a] and y is in [b], then x op y must lie in [a] op [b].  All
membership queries go through the exact Fraction endpoints, so these
tests involve no floating comparison at all.
"""

from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath.libmp import from_rational

from disksig.balls import ComplexBall, RealBall, _from_rational
from disksig.rational import decimal_up

mids = st.fractions(min_value=-100, max_value=100, max_denominator=10 ** 6)
rads = st.fractions(min_value=0, max_value=2, max_denominator=10 ** 4)
units = st.fractions(min_value=0, max_value=1, max_denominator=64)


def member(ball: RealBall, t: F) -> F:
    """The point lo + t (hi - lo), a member for t in [0, 1]."""
    lo, hi = ball.lower(), ball.upper()
    return lo + t * (hi - lo)


@given(mids, rads, mids, rads, units, units)
@settings(max_examples=150, deadline=None)
def test_add_sub_mul_containment(ma, ra, mb, rb, ta, tb):
    a = RealBall.from_mid_rad(ma, ra)
    b = RealBall.from_mid_rad(mb, rb)
    x = member(a, ta)
    y = member(b, tb)
    assert a.add(b).contains(x + y)
    assert a.sub(b).contains(x - y)
    assert a.mul(b).contains(x * y)
    assert a.sqr().contains(x * x)
    assert a.neg().contains(-x)


@given(mids, rads, mids, rads, units, units)
@settings(max_examples=150, deadline=None)
def test_div_containment_or_guard(ma, ra, mb, rb, ta, tb):
    a = RealBall.from_mid_rad(ma, ra)
    b = RealBall.from_mid_rad(mb, rb)
    if b.contains_zero():
        with pytest.raises(ZeroDivisionError):
            a.div(b)
        return
    x = member(a, ta)
    y = member(b, tb)
    assert a.div(b).contains(x / y)


@given(mids, rads, units)
@settings(max_examples=150, deadline=None)
def test_sqrt_containment_exact(ma, ra, t):
    a = RealBall.from_mid_rad(abs(ma), ra)
    assume(a.lower() >= 0)
    s = a.sqrt()
    q = member(a, t)
    # sqrt(q) in [s] iff q <= upper^2 and (lower <= 0 or lower^2 <= q),
    # checked exactly; outward rounding may push lower a hair below 0
    lo, hi = s.lower(), s.upper()
    assert hi >= 0
    assert q <= hi ** 2
    assert lo <= 0 or lo ** 2 <= q


@given(mids, rads, st.fractions(min_value=0, max_value=1,
                                max_denominator=100))
@settings(max_examples=150, deadline=None)
def test_widening_inputs_never_shrinks_output(ma, ra, extra):
    a = RealBall.from_mid_rad(ma, ra)
    b = RealBall.from_rational(F(7, 3))
    wider = a.inflate(extra)
    assert wider.lower() <= a.lower() and a.upper() <= wider.upper()
    narrow = a.mul(b)
    wide = wider.mul(b)
    assert wide.lower() <= narrow.lower()
    assert narrow.upper() <= wide.upper()


@given(mids, rads, units)
@settings(max_examples=150, deadline=None)
def test_serialization_round_trip_is_outward(ma, ra, t):
    a = RealBall.from_mid_rad(ma, ra)
    q = member(a, t)
    back = RealBall.from_json(a.to_json())
    assert back.contains(q)


def test_exact_construction_and_queries():
    a = RealBall.from_rational(F(1, 3))
    assert a.rad_fraction() > 0  # 1/3 is not dyadic
    assert a.contains(F(1, 3))
    b = RealBall.from_rational(F(3, 8))
    assert b.rad_fraction() == 0  # dyadic stays exact
    assert b.mid_fraction() == F(3, 8)
    c = RealBall.from_interval(F(-1, 3), F(2, 5))
    assert c.contains(F(-1, 3)) and c.contains(F(2, 5)) and c.contains(0)


def test_sign_predicates():
    neg = RealBall.from_interval(F(-3), F(-1, 7))
    pos = RealBall.from_interval(F(1, 7), F(3))
    mixed = RealBall.from_interval(F(-1), F(1))
    assert neg.is_negative() and not neg.is_positive()
    assert pos.is_positive() and not pos.is_negative()
    assert not mixed.is_negative() and not mixed.is_positive()
    assert mixed.contains_zero()


def test_sqrt_rejects_possibly_negative():
    with pytest.raises(ValueError):
        RealBall.from_interval(F(-1, 10), F(1)).sqrt()


def test_hull_contains_both():
    a = RealBall.from_interval(F(-2), F(-1))
    b = RealBall.from_interval(F(3), F(4))
    h = a.hull(b)
    for q in (F(-2), F(-1), F(0), F(3), F(4)):
        assert h.contains(q)


complex_parts = st.fractions(min_value=-20, max_value=20,
                             max_denominator=1000)


@given(complex_parts, rads, complex_parts, rads,
       complex_parts, rads, complex_parts, rads, units, units, units, units)
@settings(max_examples=150, deadline=None)
def test_complex_mul_containment(mar, rar, mai, rai, mbr, rbr, mbi, rbi,
                                 tar, tai, tbr, tbi):
    a = ComplexBall(RealBall.from_mid_rad(mar, rar),
                    RealBall.from_mid_rad(mai, rai))
    b = ComplexBall(RealBall.from_mid_rad(mbr, rbr),
                    RealBall.from_mid_rad(mbi, rbi))
    xr, xi = member(a.re, tar), member(a.im, tai)
    yr, yi = member(b.re, tbr), member(b.im, tbi)
    prod = a.mul(b)
    assert prod.contains(xr * yr - xi * yi, xr * yi + xi * yr)
    assert a.conj().contains(xr, -xi)
    assert a.abs2().contains(xr * xr + xi * xi)


@given(complex_parts, rads, complex_parts, rads, units, units)
@settings(max_examples=150, deadline=None)
def test_complex_sqrt_squares_back(mar, rar, mai, rai, tr, ti):
    a = ComplexBall(RealBall.from_mid_rad(mar, rar),
                    RealBall.from_mid_rad(mai, rai))
    ok_box = (a.re.is_positive() or a.im.is_positive()
              or a.im.is_negative())
    if not ok_box:
        with pytest.raises(ValueError):
            a.sqrt()
        return
    try:
        s = a.sqrt()
    except (ValueError, ZeroDivisionError):
        return  # box too wide relative to its distance from the cut
    # the square of the enclosure must recover every member point
    xr, xi = member(a.re, tr), member(a.im, ti)
    assert s.mul(s).contains(xr, xi)
    # principal branch: real part never certified negative
    assert not s.re.is_negative()


def test_complex_sqrt_fixture():
    # sqrt(-1 + 0i) is rejected (box touches the cut), sqrt(2i) = 1 + i
    with pytest.raises(ValueError):
        ComplexBall.from_rationals(F(-1), F(0)).sqrt()
    s = ComplexBall.from_rationals(F(0), F(2)).sqrt()
    assert s.contains(F(1), F(1))


def test_decimal_parts_enclose():
    a = RealBall.from_rational(F(1, 3))
    mid_str, rad_str = a.decimal_parts()
    # the printed pair must parse back to an enclosure of 1/3
    back = RealBall.from_json({"mid": mid_str, "rad": rad_str})
    assert back.contains(F(1, 3))
    # every decimal form a reader may hand back, with its exact value
    for text, value in (("1.", F(1)), (".5", F(1, 2)), ("-.5", F(-1, 2)),
                        ("+3.25E-7", F(325, 10 ** 9))):
        ball = RealBall.from_json({"mid": text, "rad": "0"})
        assert ball.contains(value) and ball.rad_fraction() < F(1, 2 ** 100)


def fraction_to_dec_up_by_scaling(q: F) -> str:
    """Reference: find the decade by one Fraction product per power of ten,
    then round up to 3 significant digits."""
    if q == 0:
        return "0"
    e = 0
    while q < 1:
        q *= 10
        e -= 1
    while q >= 10:
        q /= 10
        e += 1
    scaled = q * 100
    n = scaled.numerator // scaled.denominator
    if n * scaled.denominator < scaled.numerator:
        n += 1
    if n >= 1000:  # carry out of the leading digit
        n //= 10
        e += 1
    digits = str(n)
    return f"{digits[0]}.{digits[1:]}e{e:+d}"


@given(st.integers(1, 10 ** 40), st.integers(1, 10 ** 40),
       st.integers(-400, 400))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_radius_printing_matches_decade_scaling(num, den, k):
    q = F(num, den) * F(10) ** k
    assert decimal_up(q) == fraction_to_dec_up_by_scaling(q)


def test_radius_printing_edge_cases():
    tiny = F(1, 10 ** 60)
    cases = [F(10) ** k for k in range(-40, 41)]
    cases += [F(10) ** k - tiny for k in range(-20, 21)]  # just below a decade
    cases += [F(10) ** k + tiny for k in range(-20, 21)]
    cases += [F(9995, 10 ** k) for k in range(8)]  # digit carries
    cases += [F(1, 2 ** k) for k in range(0, 400, 7)]
    cases += [F(2 ** k, 3) for k in range(0, 400, 7)]
    for q in cases:
        assert decimal_up(q) == fraction_to_dec_up_by_scaling(q)
    assert decimal_up(F(0)) == "0"
    assert decimal_up(F(9995, 10 ** 7)) == "1.00e-3"
    with pytest.raises(ValueError):
        decimal_up(F(-1, 3))


@given(st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30),
       st.integers(0, 300), st.integers(0, 300),
       st.sampled_from([30, 53, 128]), st.sampled_from(["n", "u", "d"]))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_from_rational_matches_mpmath(p, q, i, j, prec, rnd):
    # powers of 2 and 10 give the long runs of trailing zero bits that
    # the helper splits off before rounding
    p, q = p * 10 ** i, q * 2 ** j
    assert _from_rational(p, q, prec, rnd) == from_rational(p, q, prec, rnd)
