"""The closed form at the centre as exact rational series: the identity
with the hierarchy, the enclosure helper, and its decimal printing."""

from fractions import Fraction as F
from functools import lru_cache
from itertools import product
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import disksig.exactseries as exactseries
from disksig.bessel import abc_closed_form, make_constants
from disksig.cli import main
from disksig.exactseries import (enclose, enclose_center, exact_bracket,
                                 _numerator_coefficients, _series_coefficients,
                                 _series_sign)
from disksig.radial import a_coefficients
from disksig.rational import _divide, decimal_nearest, decimal_parts
from reference import (closed_form_center, decimal_nearest_integer,
                       divide_in_context, series_coefficients_binomial,
                       series_sign_integer)


def test_closed_form_and_hierarchy_agree_exactly_to_level_200():
    # E(mu) A(mu) = G(mu) with A(mu) = sum_m a_(2m) mu^m: the paper's
    # explicit solution at r = 0 and the radial hierarchy, term by term
    a_vals = a_coefficients(200)
    assert all(a_vals[n] == 0 for n in range(1, 201, 2))
    (d_num, den), (g_num, g_den) = _series_coefficients(101), _numerator_coefficients(101)
    assert g_den == den
    for m in range(101):
        assert sum(d_num[j] * a_vals[2 * (m - j)] for j in range(m + 1)) == F(g_num[m])


@pytest.mark.parametrize("coefficients, first", [
    (_series_coefficients, [F(-1, 8), F(1, 64), F(-1, 1536), F(5, 73728)]),
    (_numerator_coefficients, [F(-1, 8), F(-3, 64), F(-1, 1536), F(5, 73728)]),
], ids=["E", "G"])
def test_series_coefficients(coefficients, first):
    numerators, den = coefficients(4)
    assert [F(c, den) for c in numerators] == first
    # the bound the tails of E and G rest on: |c_m| m! (m+1)! <= (3/2)^m
    numerators, den = coefficients(201)
    for m, c in enumerate(numerators):
        assert abs(F(c, den)) * factorial(m) * factorial(m + 1) <= F(3, 2) ** m


@pytest.mark.parametrize("n", [1, 2, 3, 8, 101])
def test_recurrence_reproduces_the_binomial_sum(n):
    # n <= 2 keeps only seeds, n = 3 takes one step
    assert _series_coefficients(n) == series_coefficients_binomial(n)


def test_recurrence_equals_the_binomial_sum_through_2048_terms():
    # D_m = c / den = r / ref_den, compared by cross-multiplication
    (numerators, den), (ref, ref_den) = (_series_coefficients(2048),
                                         series_coefficients_binomial(2048))
    assert len(numerators) == len(ref) == 2048
    assert all(c * ref_den == r * den for c, r in zip(numerators, ref))


@lru_cache(maxsize=None)
def _mu_star_below() -> F:
    """A dyadic lower end of a bracket of mu* = lambda*^2 under 2^-400 wide."""
    lo, _, _, _ = exact_bracket(F(1, 2 ** 402))
    return lo * lo


@st.composite
def sign_points(draw):
    """Dyadic mu in [25/4, 9]: anywhere at up to 64 bits, or within
    2^-300 of mu* at 304 to 400 bits."""
    if draw(st.booleans()):
        s = draw(st.integers(0, 64))
        return F(draw(st.integers(25 << s, 36 << s)), 4 << s)
    s = draw(st.integers(304, 400))
    p = int(_mu_star_below() * 2 ** s) + draw(st.integers(-8, 8))
    return F(p, 2 ** s)


@given(sign_points())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_sign_of_e_agrees_with_the_integer_partial_sum(mu):
    # the enclosure rounds its tail up and its sum outward, so it never
    # certifies with fewer terms than the exact inequality does
    sign, terms = _series_sign(mu)
    ref_sign, ref_terms = series_sign_integer(mu)
    assert sign == ref_sign
    assert ref_terms <= terms <= exactseries._MAX_TERMS


def test_sign_of_e_at_bad_points_is_refused():
    for mu in (F(0), F(-9), F(1, 3)):
        with pytest.raises(ValueError, match="not a positive dyadic"):
            _series_sign(mu)


# -- the proof of the recurrence (R) in _series_coefficients ---------------
# Elements of Q(w) are pairs (a, b) = a + b w, with w^2 = -w - 2.

W, WBAR = (0, 1), (-1, -1)  # conj(w) = -1 - w
THETA, DELTA = (F(-1, 7), F(5, 7)), (1, 2)  # (5w - 1)/7 and 2w + 1


def _mul(p, q):
    (a, b), (c, d) = p, q
    return a * c - 2 * b * d, a * d + b * c - b * d


def _trace(p):
    """p + conj(p) for p = a + b w: 2a - b."""
    return 2 * p[0] - p[1]


def _p(m: int) -> tuple:
    """P_m = sum_k C(m, k) C(m+1, k) w^k conj(w)^(m-k) in Z[w]."""
    total = (0, 0)
    for k in range(m + 1):
        term = (comb(m, k) * comb(m + 1, k), 0)
        for factor in [W] * k + [WBAR] * (m - k):
            term = _mul(term, factor)
        total = (total[0] + term[0], total[1] + term[1])
    return total


def test_proof_constants_of_q_w():
    for a, b in ((1, 0), (0, 1)):  # linear in a + b w, so a basis suffices
        assert _trace(_mul(THETA, (a, b))) == -a - 2 * b  # u = Tr(theta P)
    assert _mul(DELTA, THETA) == (-3, -1)  # v = Tr(delta theta P)
    assert (W[0] + WBAR[0], W[1] + WBAR[1]) == (-1, 0)  # x + y
    assert (W[0] - WBAR[0], W[1] - WBAR[1]) == DELTA  # x - y
    assert _mul(DELTA, DELTA) == (-7, 0)  # (y - x)^2
    # G: conj(w)^2 = -conj(w) - 2, and (conj(w) - 2) conj(w)^k has
    # w-coordinate y_0 = -1, y_1 = 3
    assert _mul(WBAR, WBAR) == (-WBAR[0] - 2, -WBAR[1])
    wbar_minus_2 = (-3, -1)
    assert [wbar_minus_2[1], _mul(wbar_minus_2, WBAR)[1]] == [-1, 3]


def _q(m, k, x, y):
    return ((2 * m + 3) * (m + 1 - k) * (m + 2 - k) * x
            - ((2 * m + 3) * (k - 2 * m - 2) ** 2 + 2 * m * m + 4 * m + 1) * y)


def test_zeilberger_certificate_is_a_polynomial_identity():
    # (1) over C(m+1, k) C(m+2, k) x^k y^(m+1-k), times (m+1)^2 (m+2) y^2.
    # Each side has degree at most 5 in m, 4 in k and 2 in x and in y, so
    # agreeing on this grid makes them the same polynomial.
    for m, k, x, y in product(range(6), range(5), range(3), range(3)):
        lhs = ((m + 1) ** 2 * (m + 2) ** 2 * (2 * m + 1) * y * y
               - (m + 1) * (m + 1 - k) * (m + 2 - k) * y
               * ((2 * m + 1) * (2 * m + 3) * (x + y) + x - y)
               + (2 * m + 3) * (m - k) * (m + 1 - k) ** 2 * (m + 2 - k)
               * (y - x) ** 2)
        rhs = ((m + 1 - k) * (m + 2 - k) * x * _q(m, k + 1, x, y)
               - k * k * y * _q(m, k, x, y))
        assert lhs == rhs


def test_zeilberger_certificate_telescopes_the_summands():
    # the summand form of (1): every k-th term, and the two ends of g
    x, y = F(2, 3), F(-5, 7)

    def binom(n, k):
        return comb(n, k) if n >= 0 and k >= 0 else 0

    def f(m, k):
        return binom(m, k) * binom(m + 1, k) * x ** k * y ** (m - k)

    def g(m, k):
        return (_q(m, k, x, y) * binom(m, k - 1) * binom(m + 1, k - 1)
                * x ** k * y ** (m - k) / (m + 1))

    for m in range(12):
        assert g(m, 0) == 0 == g(m, m + 2)
        for k in range(m + 2):
            term = ((m + 2) * (2 * m + 1) * f(m + 1, k)
                    - ((2 * m + 1) * (2 * m + 3) * (x + y) + x - y) * f(m, k)
                    + m * (2 * m + 3) * (y - x) ** 2 * f(m - 1, k))
            assert term == g(m, k + 1) - g(m, k)


def _c(m):
    return (m + 2) * (2 * m + 1)


def _a(m):
    return -(2 * m + 1) * (2 * m + 3)


def _b(m):
    return 7 * m * (2 * m + 3)


def _v_from_relation(m, u_prev, u):
    """v_m from (2m-3) v_m = 56m u_(m-1) - 15(2m+1) u_m."""
    return F(56 * m * u_prev - 15 * (2 * m + 1) * u, 2 * m - 3)


def test_u_v_system_and_its_relation_hold_on_the_sums():
    # (2) and (3) on the first values of u_m and v_m themselves
    u = [_trace(_mul(THETA, _p(m))) for m in range(30)]
    v = [_trace(_mul(DELTA, _mul(THETA, _p(m)))) for m in range(30)]
    assert u[:2] == [-1, -1] and v[:2] == [-5, 11]
    for m in range(1, 29):
        assert _c(m) * u[m + 1] == _a(m) * u[m] + _b(m) * u[m - 1] + v[m]
        assert _c(m) * v[m + 1] == _a(m) * v[m] + _b(m) * v[m - 1] - 7 * u[m]
    assert v[0] == _v_from_relation(0, 0, u[0])  # u_(-1) has weight 0
    assert all(v[m] == _v_from_relation(m, u[m - 1], u[m]) for m in range(1, 30))


def test_relation_is_closed_under_the_u_v_system():
    # (3): the relation at m-1 and m and (2) at m-1 and m give it at m+1,
    # for u_(m-2) and u_(m-1) free.  Times (2m-1)(2m-5)(2m-3) c_(m-1) c_m,
    # nonzero at every integer, the residual is a polynomial of degree at
    # most 7 in m, so its zeros at m = 1..16 make it zero.
    for m in range(1, 17):
        for u_2, u_1 in ((1, 0), (0, 1)):  # u_(m-2), u_(m-1)
            v_1 = _v_from_relation(m - 1, u_2, u_1)
            u_0 = (_a(m - 1) * u_1 + _b(m - 1) * u_2 + v_1) / _c(m - 1)
            v_0 = _v_from_relation(m, u_1, u_0)
            u_next = (_a(m) * u_0 + _b(m) * u_1 + v_0) / _c(m)
            v_next = (_a(m) * v_0 + _b(m) * v_1 - 7 * u_0) / _c(m)
            assert v_next == _v_from_relation(m + 1, u_0, u_next)


def test_relation_turns_the_u_v_system_into_the_recurrence():
    # the relation put into the first line of (2) is (R): times 2m+1,
    # both sides are linear in u_(m-1), u_m with polynomial coefficients
    # of degree at most 4 in m, so agreeing at m = 0..15 they always agree
    for m in range(16):
        for u_1, u_0 in ((1, 0), (0, 1)):
            u_next = (_a(m) * u_0 + _b(m) * u_1
                      + _v_from_relation(m, u_1, u_0)) / _c(m)
            assert (m + 2) * (2 * m - 3) * u_next == (
                -2 * (2 * m * m + 3) * u_0 + 7 * m * (2 * m - 1) * u_1)


CENTER_LAMBDAS = [F(1), F(2), *(F(k, 8) for k in range(8, 17)), F(1, 3),
                  F(27, 10), F(361, 128) - F(1, 2 ** 20)]


@pytest.mark.parametrize("precision", [53, 128, 512])
def test_center_enclosure_lies_in_the_ball_and_holds_the_reference(precision):
    constants = make_constants(precision)
    for lam in CENTER_LAMBDAS:
        lo, hi = enclose_center(lam, precision)
        assert 0 < (hi - lo) * 2 ** precision <= lo
        ball = abc_closed_form(lam, F(0), constants)[2]
        assert ball.lower() <= lo and hi <= ball.upper()
        assert lo <= closed_form_center(lam) <= hi


def _extreme_series(n: int) -> tuple:
    """(numerators, L) of c_m = (+-3/2)^m / (m! (m+1)!), m < n: every
    coefficient at the bound enclose's tail rests on."""
    den = 2 ** (n - 1) * factorial(n - 1) * factorial(n)
    return tuple(3 ** m * 2 ** (n - 1 - m) * factorial(n - 1) * factorial(n)
                 // (factorial(m) * factorial(m + 1)) for m in range(n)), den


@pytest.mark.parametrize("sign", [1, -1])
def test_enclose_tail_bound_is_sharp_on_the_extreme_series(sign):
    # at 3 mu = (n+1)(n+2) the tail of sum (3 mu/2)^m / (m! (m+1)!) from
    # term n on is about 1.8 times its first term and the bound is twice
    # it, so dropping a term or halving the bound loses the sum
    n, mu = 8, 30
    numerators, den = _extreme_series(n)
    numerators = tuple(c * sign ** m for m, c in enumerate(numerators))
    lo, hi = enclose((numerators, den), mu, mu, 0, 64)
    x = F(sign * 3 * mu, 2)
    terms = [x ** m / (factorial(m) * factorial(m + 1)) for m in range(200)]
    remainder = 2 * abs(x ** 200) / (factorial(200) * factorial(201))
    assert lo <= sum(terms) - remainder and sum(terms) + remainder <= hi
    first_omitted = abs(terms[n])
    assert hi - lo < 5 * first_omitted  # tight: 4 first terms plus rounding
    with pytest.raises(ValueError, match="tail bound"):
        enclose((numerators, den), mu + 1, mu + 1, 0, 64)


def test_enclose_covers_every_point_of_its_interval():
    # mu in [1/4, 3]: both ends and points between lie in one enclosure
    coefficients = _series_coefficients(16)
    lo, hi = enclose(coefficients, 1, 12, 2, 80)
    numerators, den = coefficients
    for mu in (F(1, 4), F(1, 2), F(7, 5), F(3)):
        value = sum(F(c, den) * mu ** m for m, c in enumerate(numerators))
        assert lo <= value <= hi
    # -mu/2 on [0, 2]: a negative partial value takes the upper end of mu
    # for the lower end of its product, and the lower end for the upper
    lo, hi = enclose(((0, -1, 0, 0, 0, 0, 0, 0), 2), 0, 2, 0, 16)
    assert -F(101, 100) < lo <= -1 and 0 <= hi < F(1, 100)


@pytest.mark.parametrize("q", [F(1, 3), F(4), F(361, 128) ** 2, F(1, 10 ** 50 + 1)])
def test_dyadic_rounding_is_outward_and_narrow(q):
    p_lo, p_hi, s = exactseries._dyadic_outward(q, 100)
    assert F(p_lo, 2 ** s) <= q <= F(p_hi, 2 ** s)
    assert F(p_hi - p_lo, 2 ** s) <= q / 2 ** 99


def test_center_enclosure_too_wide_is_inconclusive(tmp_path, monkeypatch, capsys):
    # mu rounded to 16 bits fewer than the asked width: the quotient is
    # wider than asked, and `compare` reports it and writes nothing; its
    # pole bracket is the one taken at the real guard bits, as the exact
    # signs would take negative bits at the first midpoints
    bracket = exactseries.exact_bracket(F(1, 100))
    monkeypatch.setattr(exactseries, "exact_bracket", lambda width: bracket)
    monkeypatch.setattr(exactseries, "_GUARD_BITS", -16)
    with pytest.raises(exactseries.InconclusiveSign, match="not enclosed"):
        enclose_center(F(2), 128)
    out = tmp_path / "out.csv"
    assert main(["compare", "--lambda", "2", "--levels", "4", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: C(2, 0) not enclosed")
    assert list(tmp_path.iterdir()) == []


def test_center_at_zero_is_exactly_one():
    assert enclose_center(F(0), 128) == (F(1), F(1))


@pytest.mark.parametrize("q, dps, text", [
    (F(0), 5, "0.0"),
    (F(1), 41, "1.0"),
    (F(17, 4), 5, "4.25"),
    (F(-17, 4), 2, "-4.3"),
    (F(99996, 10 ** 4), 4, "10.0"),
    (F(123456), 3, "123000.0"),
    (F(12, 10 ** 4), 3, "0.0012"),
    (F(1, 3), 5, "0.33333"),
    (F(2, 3), 5, "0.66667"),
])
def test_midpoint_printing(q, dps, text):
    assert decimal_nearest(q, dps) == text


@st.composite
def midpoints(draw):
    """(q, dps): a quotient, an exact tie at dps digits, or dps + 1
    digits next to a carry out of the leading digit, scaled by a power of
    ten and signed."""
    dps = draw(st.sampled_from([5, 41, 157, 2469]))
    kind = draw(st.sampled_from(["quotient", "tie", "carry"]))
    if kind == "quotient":
        q = F(draw(st.integers(1, 10 ** 60)), draw(st.integers(1, 10 ** 60)))
    elif kind == "tie":  # dps + 1 digits ending in 5
        q = F(10 * draw(st.integers(10 ** (dps - 1), 10 ** dps - 1)) + 5)
    else:  # dps nines, then 1..9: from 5 up, a carry into a new leading digit
        q = F(10 ** (dps + 1) - draw(st.integers(1, 9)))
    q *= F(10) ** draw(st.integers(-400, 400))
    return draw(st.sampled_from([1, -1])) * q, dps


@given(midpoints())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_midpoint_printing_matches_integer_rounding(case):
    q, dps = case
    assert decimal_nearest(q, dps) == decimal_nearest_integer(q, dps)


@given(midpoints())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_midpoint_rounding_matches_the_decimal_context(case):
    q, dps = case
    assert _divide(q, dps, "ROUND_HALF_UP") == divide_in_context(q, dps, "ROUND_HALF_UP")


def test_printed_ball_contains_the_enclosure():
    for lam in CENTER_LAMBDAS:
        lo, hi = enclose_center(lam, 128)
        mid, rad = decimal_parts(lo, hi, 41)
        assert len(mid.replace(".", "").lstrip("0")) <= 41
        assert F(mid) - F(rad) <= lo and hi <= F(mid) + F(rad)
