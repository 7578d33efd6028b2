"""Bessel series, the algebraic constants, and the closed-form triple."""

from fractions import Fraction as F

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disksig.balls import ComplexBall, RealBall, mpf_to_fraction
from disksig.bessel import (_auto_terms, _tail_bound, abc_closed_form,
                            bessel_j, bessel_tail_bound, d_lambda,
                            make_constants, numerator_im, pairing,
                            remark_product, series_terms)
from disksig.radial import radial_levels

CONSTS = make_constants(128)

small_rats = st.fractions(min_value=-3, max_value=3, max_denominator=40)


def mp_oracle(nu, re_q, im_q) -> tuple:
    """High-precision reference value of J_nu, as exact rationals."""
    with mpmath.workprec(250):
        val = mpmath.besselj(nu, mpmath.mpf(re_q.numerator) / re_q.denominator
                             + mpmath.mpf(im_q.numerator) / im_q.denominator
                             * 1j)
        return (mpf_to_fraction(val.real._mpf_),
                mpf_to_fraction(val.imag._mpf_))


def test_constants_satisfy_the_quartic():
    z2 = CONSTS.zeta.mul(CONSTS.zeta)
    resid = z2.mul(z2).add(z2).add(ComplexBall.from_rationals(F(2), F(0)))
    assert resid.contains(F(0), F(0))
    assert resid.re.rad_fraction() < F(1, 2 ** 64)
    assert resid.im.rad_fraction() < F(1, 2 ** 64)


def test_constants_location_and_norms():
    assert CONSTS.zeta.re.is_positive()
    assert CONSTS.zeta.im.is_positive()
    # |zeta|^2 = sqrt(2) and |alpha|^2 = sqrt(2), checked by squaring
    for w in (CONSTS.zeta, CONSTS.alpha):
        sq = w.abs2().sqr()
        assert sq.contains(F(2))
    # alpha zeta = (-5 + i sqrt(7))/4, checked as (4 alpha zeta + 5)^2 = -7
    az4 = CONSTS.alpha.mul(CONSTS.zeta).mul_2exp(2)
    shifted = az4.add(ComplexBall.from_rationals(F(5), F(0)))
    assert shifted.mul(shifted).contains(F(-7), F(0))


def test_make_constants_rejects_low_precision():
    with pytest.raises(ValueError):
        make_constants(40)


def test_bessel_at_zero():
    zero = ComplexBall.from_rationals(0, 0)
    j0 = bessel_j(0, zero)
    j1 = bessel_j(1, zero)
    assert j0.contains(F(1), F(0))
    assert j1.contains(F(0), F(0))


@pytest.mark.parametrize("nu,re_q,im_q", [
    (0, F(3, 2), F(0)),
    (0, F(-7, 3), F(1, 2)),
    (1, F(1, 5), F(0)),
    (1, F(2), F(-3, 2)),
    (0, F(19, 7), F(19, 7)),
])
def test_bessel_matches_independent_oracle(nu, re_q, im_q):
    ball = bessel_j(nu, ComplexBall.from_rationals(re_q, im_q))
    want_re, want_im = mp_oracle(nu, re_q, im_q)
    # the oracle itself carries ~2^-250 error, negligible next to rad
    slack = F(1, 10 ** 50)
    assert ball.re.inflate(slack).contains(want_re)
    assert ball.im.inflate(slack).contains(want_im)


def test_truncated_series_still_encloses():
    """With n_terms forced low the tail bound must absorb the remainder."""
    x = ComplexBall.from_rationals(F(446, 125), F(0))  # 3.568
    want_re, want_im = mp_oracle(0, F(446, 125), F(0))
    for n in (5, 8, 12):
        ball = bessel_j(0, x, n_terms=n)
        assert ball.re.inflate(F(1, 10 ** 50)).contains(want_re)
        assert ball.im.inflate(F(1, 10 ** 50)).contains(want_im)


def test_tail_bound_fixture():
    x = ComplexBall.from_rationals(F(446, 125), F(0))
    tail = bessel_tail_bound(x, 5)
    assert tail.upper() <= F(25, 1000)
    assert tail.upper() > 0


def test_tail_bound_rejects_huge_argument():
    x = ComplexBall.from_rationals(F(100), F(0))
    with pytest.raises(ValueError):
        bessel_tail_bound(x, 2)


@given(small_rats, small_rats)
@settings(max_examples=100, deadline=None)
def test_conjugate_symmetry(re_q, im_q):
    """J_nu(conj x) = conj(J_nu(x)): enclosures must overlap mirrored."""
    x = ComplexBall.from_rationals(re_q, im_q)
    for nu in (0, 1):
        a = bessel_j(nu, x)
        b = bessel_j(nu, x.conj())
        assert a.re.lower() <= b.re.upper() and b.re.lower() <= a.re.upper()
        mirrored = b.im.neg()
        assert (a.im.lower() <= mirrored.upper()
                and mirrored.lower() <= a.im.upper())


def test_remark_products_match_pinned_decimals():
    targets = [
        (F(141, 50), F("-13.208370024264"), F("-0.003639973760")),
        (F(283, 100), F("-13.424373315124"), F("0.005782411521")),
    ]
    for lam, want_re, want_im in targets:
        prod = remark_product(lam, CONSTS)
        for ball, want in ((prod.re, want_re), (prod.im, want_im)):
            gap = max(ball.lower() - want, want - ball.upper(), F(0))
            assert gap < F(1, 10 ** 9)


def test_pairing_signs_at_bracket_endpoints():
    assert d_lambda(F(5, 2), CONSTS).upper() < F(-6, 100)
    assert d_lambda(F(3), CONSTS).lower() > F(3, 100)


def test_d_lambda_runs_at_the_constants_precision():
    # a precision passed a second time may only repeat constants.prec, so
    # zeta and the Bessel sums cannot be at two precisions
    lam = F(141, 50)
    d = d_lambda(lam, CONSTS, 128)
    ref = d_lambda(lam, CONSTS)
    assert (d.mid, d.rad) == (ref.mid, ref.rad)
    with pytest.raises(ValueError, match="not 256 bits"):
        d_lambda(lam, make_constants(128), 256)


@pytest.mark.parametrize("lam", [F(1, 2), F(3, 2), F(5, 2), F(141, 50), F(3)])
def test_pairing_two_routes_overlap(lam):
    a = d_lambda(lam, CONSTS)
    b = pairing(lam, CONSTS)[1]
    assert a.lower() <= b.upper() and b.lower() <= a.upper()
    assert a.rad_fraction() < F(1, 10 ** 30)


def test_numerator_interval_argument():
    lam = RealBall.from_interval(F(282, 100), F(283, 100))
    num = numerator_im(lam, CONSTS)
    assert num.is_negative()


def _auto_terms_linear_scan(x, prec):
    """The plain scan: rebuild the exact tail bound for n = n0, n0 + 1, ..."""
    target = F(1, 2 ** (prec - 10))
    xu2 = x.abs2().upper()
    n = 1
    while 4 * (n + 1) ** 2 <= xu2:
        n += 1
    while _tail_bound(xu2, n) >= target:
        n += 1
    return n


@pytest.mark.parametrize("prec", [53, 128, 512, 1024])
def test_auto_terms_matches_linear_scan(prec):
    # |x| on a grid over [0, 40] (finer where the reference scan is cheap),
    # which includes points where the geometric factor of the bound decides
    step = F(1, 4) if prec <= 128 else F(1)
    grid = [k * step for k in range(int(40 / step) + 1)]
    points = [(mag, F(0)) for mag in grid]
    # off the axes, tiny and non-dyadic moduli, and the pole region
    for mag in (F(1, 10 ** 6), F(1, 3), F(7, 2), F(19, 3), F(25)):
        points += [(F(3, 5) * mag, F(-4, 5) * mag), (F(0), mag)]
    points.append((F(283, 100) * CONSTS.zeta.abs2().upper(), F(1, 7)))
    for re_q, im_q in points:
        x = ComplexBall.from_rationals(re_q, im_q, prec)
        assert _auto_terms(x, prec) == _auto_terms_linear_scan(x, prec)


def test_d_and_numerator_equal_the_separate_routes():
    for lam in (F(5, 2), F(283, 100), F(3)):
        d, _, num = pairing(lam, CONSTS)
        for got, want in ((d, d_lambda(lam, CONSTS)),
                          (num, numerator_im(lam, CONSTS))):
            assert (got.mid, got.rad) == (want.mid, want.rad)


def test_series_terms_grows_with_precision():
    lo = series_terms(F(3), make_constants(64))
    hi = series_terms(F(3), CONSTS)
    assert lo < hi


def test_closed_form_boundary_values():
    a_val, b_val, c_val = abc_closed_form(F(1), F(1), CONSTS)
    assert c_val.contains(F(1))
    assert a_val.contains(F(0))
    assert b_val.mid_fraction() == 0 and b_val.rad_fraction() == 0
    # and C is exactly 1 at the boundary for a second lambda
    _, _, c2 = abc_closed_form(F(2), F(1), CONSTS)
    assert c2.contains(F(1))


def test_closed_form_rejects_bad_radius_and_pole():
    with pytest.raises(ValueError):
        abc_closed_form(F(1), F(3, 2), CONSTS)
    lam = RealBall.from_interval(F(282, 100), F(283, 100))
    with pytest.raises(ValueError, match="pole"):
        abc_closed_form(lam, F(1, 2), CONSTS)


@pytest.mark.parametrize("lam,r", [(F(1), F(1, 2)), (F(1, 2), F(3, 4)),
                                   (F(2), F(1, 4))])
def test_closed_form_matches_radial_series_inside_the_disk(lam, r):
    """A and C enclose the sums over n <= 80 of lam^n A_n(r) and
    lam^n C_n(r) from the exact radial hierarchy, up to the truncation,
    about (lam/2.82)^80 <= 1e-12 at these points."""
    a_levels, c_levels = radial_levels(80)
    a_val, _, c_val = abc_closed_form(lam, r, CONSTS)
    for ball, levels in ((a_val, a_levels), (c_val, c_levels)):
        series = sum(lam ** n * sum(c * r ** m for m, c in level.items())
                     for n, level in enumerate(levels))
        assert ball.lower() - F(1, 10 ** 10) <= series <= ball.upper() + F(1, 10 ** 10)
