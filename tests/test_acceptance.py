"""Acceptance gate: the headline guarantees, with pinned tolerances.

Nine checks: two boundary-pairing enclosure reproductions, certified
endpoint signs, the pole bracket, the numerator bound, the exactness
sweep of both hierarchies, series-vs-closed-form agreement, ratio
evidence for a finite convergence radius, the Monte Carlo cross-check
at full defaults, and five randomized property suites at >= 100 cases
each.  Runtime budgets are asserted where the guarantee includes one.
"""

import json
import time
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disksig.balls import ComplexBall, RealBall
from disksig.bessel import (abc_closed_form, bessel_j, d_lambda,
                            make_constants, remark_product)
from disksig.development import fold_apply
from disksig.hierarchy import (HierarchyState, a_coefficients,
                               developed_checks, radius_estimate,
                               tensor_checks)
from disksig.montecarlo import SimConfig, _chen_combine, estimate_expected_sig
from disksig.polefinder import (PoleCertificate, locate_pole,
                                verify_numerator_nonvanishing)
from reference import (XY, TensorPoly, developed_view, fold_apply_naive,
                       m_of_vector, mat_mul, signature_of_path, tensor_view)

E3 = (F(0), F(0), F(1))


def ball_gap(ball: RealBall, q: F) -> F:
    """Exact distance from the rational q to the ball's interval."""
    lo, hi = ball.lower(), ball.upper()
    if q < lo:
        return lo - q
    if q > hi:
        return q - hi
    return F(0)


def test_1_boundary_product_enclosures_match_references():
    t0 = time.perf_counter()
    constants = make_constants(128)
    targets = [
        (F(141, 50), F("-13.208370024264"), F("-0.003639973760")),
        (F(283, 100), F("-13.424373315124"), F("0.005782411521")),
    ]
    for lam, want_re, want_im in targets:
        prod = remark_product(lam, constants)
        assert ball_gap(prod.re, want_re) < F(1, 10 ** 9)
        assert ball_gap(prod.im, want_im) < F(1, 10 ** 9)
    assert time.perf_counter() - t0 < 1.0


def test_2_pairing_signs_certified_at_endpoints():
    t0 = time.perf_counter()
    constants = make_constants(128)
    assert d_lambda(F(5, 2), constants).upper() < F(-6, 100)
    assert d_lambda(F(3), constants).lower() > F(3, 100)
    assert time.perf_counter() - t0 < 1.0


def test_3_pole_bracket_certified_and_reverifiable():
    t0 = time.perf_counter()
    cert = locate_pole(F(1, 10 ** 6))
    assert F(282, 100) <= cert.bracket_lo < cert.bracket_hi <= F(283, 100)
    assert cert.bracket_hi - cert.bracket_lo <= F(1, 10 ** 6)
    assert cert.verify() == []
    # offline re-verification from the serialized form alone
    revived = PoleCertificate.from_json(json.loads(json.dumps(cert.to_json())))
    assert revived.verify() == []
    assert time.perf_counter() - t0 < 10.0


def test_4_numerator_bounded_away_from_zero():
    hull, _ = verify_numerator_nonvanishing(F(5, 2), F(3), target=F(-13, 10))
    assert hull.upper() <= F(-13, 10)
    assert hull.upper() < 0


def test_5_exactness_suite():
    t0 = time.perf_counter()
    state = HierarchyState()  # fresh, so the budget covers the real work
    for n in range(1, 13):
        assert tensor_checks(state, n) == {"residual_ok": True,
                                           "boundary_ok": True}
    for n in range(1, 41):
        assert developed_checks(state, n) == {"residual_ok": True,
                                              "boundary_ok": True}
    for n in range(11):
        # folded over the x, y views, independent of the CLI's z, zbar fold
        assert fold_apply(tensor_view(state, n).entries) == tuple(developed_view(state, n))
    a_vals = a_coefficients(40)
    assert all(a_vals[n] == 0 for n in range(1, 41, 2))
    for n in range(41):
        _, c2, c3 = developed_view(state, n)
        assert all(j > 0 for _, j in c2)
        # the bivariate oracle agrees with the radial production route
        assert c3.get((0, 0), 0) == a_vals[n]
    assert time.perf_counter() - t0 < 300.0


def test_6_series_agrees_with_closed_form():
    constants = make_constants(128)
    a_vals = a_coefficients(60)
    sum40 = sum(a_vals[n] for n in range(41))
    ball1 = abc_closed_form(F(1), F(0), constants)[2]
    assert ball_gap(ball1, sum40) <= F(1, 10 ** 8)
    sum60 = sum(F(2) ** n * a_vals[n] for n in range(61))
    ball2 = abc_closed_form(F(2), F(0), constants)[2]
    assert ball_gap(ball2, sum60) <= F(1, 10 ** 6)


def test_7_ratio_estimates_sit_in_the_certified_range():
    a_vals = a_coefficients(60)
    estimates = radius_estimate(a_vals)
    assert len(estimates) == 29
    top_quartile = estimates[(len(estimates) * 3) // 4:]
    assert all(2.5 < est < 3.0 for est in top_quartile)
    # regression fixture for the last computed estimate
    assert estimates[-1] == pytest.approx(2.823887056253575, abs=1e-12)


@pytest.mark.slow
def test_8_monte_carlo_matches_exact_level2_and_exit_time():
    t0 = time.perf_counter()
    cases = [((0.0, 0.0), F(1, 4), F(1, 2)),
             ((0.5, 0.0), F(3, 16), F(3, 8))]
    for start, diag, tau_want in cases:
        result = estimate_expected_sig(SimConfig(start=start))
        level2 = result.means[2].reshape(2, 2)
        stderr2 = result.stderrs[2].reshape(2, 2)
        exact = np.diag([float(diag), float(diag)])
        assert (np.abs(level2 - exact) < 3 * stderr2).all()
        assert (abs(result.exit_time_mean - float(tau_want))
                < 3 * result.exit_time_stderr)
    assert time.perf_counter() - t0 < 300.0


# -- property suites, >= 100 randomized cases each ----------------------

steps = st.integers(1, 10)


@given(st.integers(0, 2 ** 32 - 1), steps, steps)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_9a_chen_identity(seed, n_left, n_right):
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((n_left, 2)) * 0.5
    q = rng.standard_normal((n_right, 2)) * 0.5
    whole = signature_of_path(np.concatenate([p, q]), 3)
    parts = _chen_combine([x[None] for x in signature_of_path(p, 3)],
                          [x[None] for x in signature_of_path(q, 3)])
    for n in range(3):
        assert np.allclose(parts[n][0], whole[n], atol=1e-12)


@given(st.integers(0, 6), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_9b_fold_equals_brute_force(level, rng):
    t = TensorPoly.zeros(level)
    for idx in range(2 ** level):
        if rng.random() < 0.5:
            t.entries[idx] = XY({(rng.randrange(3), rng.randrange(3)):
                                 F(rng.randrange(-9, 10), 4)})
    assert fold_apply(t.entries) == fold_apply_naive(t, E3)


coords = st.fractions(min_value=-10, max_value=10, max_denominator=12)


@given(coords, coords)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_9c_quarter_turn_equivariance(x, y):
    rot = ((F(0), F(-1), F(0)), (F(1), F(0), F(0)), (F(0), F(0), F(1)))
    rot_t = ((F(0), F(1), F(0)), (F(-1), F(0), F(0)), (F(0), F(0), F(1)))
    assert m_of_vector((-y, x)) == mat_mul(rot, mat_mul(m_of_vector((x, y)),
                                                        rot_t))


bessel_rats = st.fractions(min_value=-3, max_value=3, max_denominator=40)


@given(bessel_rats, bessel_rats, st.integers(0, 1))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_9d_bessel_conjugate_symmetry(re_q, im_q, nu):
    x = ComplexBall.from_rationals(re_q, im_q)
    a = bessel_j(nu, x)
    b = bessel_j(nu, x.conj())
    assert a.re.lower() <= b.re.upper() and b.re.lower() <= a.re.upper()
    mirrored = b.im.neg()
    assert a.im.lower() <= mirrored.upper()
    assert mirrored.lower() <= a.im.upper()


ball_mids = st.fractions(min_value=-100, max_value=100,
                         max_denominator=10 ** 6)
ball_rads = st.fractions(min_value=0, max_value=2, max_denominator=10 ** 4)
unit = st.fractions(min_value=0, max_value=1, max_denominator=64)


@given(ball_mids, ball_rads, ball_mids, ball_rads, unit, unit, ball_rads)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_9e_ball_containment_and_monotonicity(ma, ra, mb, rb, ta, tb, extra):
    a = RealBall.from_mid_rad(ma, ra)
    b = RealBall.from_mid_rad(mb, rb)

    def member(ball, t):
        lo, hi = ball.lower(), ball.upper()
        return lo + t * (hi - lo)

    x, y = member(a, ta), member(b, tb)
    assert a.add(b).contains(x + y)
    assert a.mul(b).contains(x * y)
    assert a.sub(b).contains(x - y)
    # widening an input can only widen the result
    narrow = a.mul(b)
    wide = a.inflate(extra).mul(b)
    assert wide.lower() <= narrow.lower() <= narrow.upper() <= wide.upper()
