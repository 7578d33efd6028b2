"""The closed form at the centre as exact rational series: the identity
with the hierarchy, the enclosure helper, and its decimal printing."""

from fractions import Fraction as F
from math import factorial

import pytest

import disksig.exactseries as exactseries
from disksig.bessel import abc_closed_form, make_constants
from disksig.cli import main
from disksig.exactseries import (decimal_parts, enclose, enclose_center,
                                 _fraction_to_dec, _numerator_coefficients,
                                 _series_coefficients)
from disksig.hierarchy import a_coefficients
from reference import closed_form_center


def test_closed_form_and_hierarchy_agree_exactly_to_level_200():
    # E(mu) A(mu) = G(mu) with A(mu) = sum_m a_(2m) mu^m: the paper's
    # explicit solution at r = 0 and the radial hierarchy, term by term
    a_vals = a_coefficients(200)
    assert all(a_vals[n] == 0 for n in range(1, 201, 2))
    (d_num, den), (g_num, g_den) = _series_coefficients(101), _numerator_coefficients(101)
    assert g_den == den
    for m in range(101):
        assert sum(d_num[j] * a_vals[2 * (m - j)] for j in range(m + 1)) == F(g_num[m])


def test_numerator_coefficients():
    numerators, den = _numerator_coefficients(4)
    assert [F(c, den) for c in numerators] == [F(-1, 8), F(-3, 64), F(-1, 1536),
                                               F(5, 73728)]
    # the bound the tail of G rests on: |G_k| k! (k+1)! <= (3/2)^k
    numerators, den = _numerator_coefficients(201)
    for k, c in enumerate(numerators):
        assert abs(F(c, den)) * factorial(k) * factorial(k + 1) <= F(3, 2) ** k


CENTER_LAMBDAS = [F(1), F(2), *(F(k, 8) for k in range(8, 17)), F(1, 3),
                  F(27, 10), F(361, 128) - F(1, 2 ** 20)]


@pytest.mark.parametrize("precision", [53, 128, 512])
def test_center_enclosure_lies_in_the_ball_and_holds_the_reference(precision):
    constants = make_constants(precision)
    for lam in CENTER_LAMBDAS:
        lo, hi = enclose_center(lam, precision)
        assert 0 < (hi - lo) * 2 ** precision <= lo
        ball = abc_closed_form(lam, F(0), constants, precision)[2]
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


def test_center_term_cap_is_inconclusive(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(exactseries, "_MAX_CENTER_TERMS", 8)
    with pytest.raises(exactseries.InconclusiveSign, match="8 series terms"):
        enclose_center(F(2), 128)
    out = tmp_path / "out.csv"
    assert main(["compare", "--lambda", "2", "--levels", "4", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: C(2, 0) not enclosed")
    assert list(tmp_path.iterdir()) == []


def test_center_enclosure_too_wide_is_inconclusive(monkeypatch):
    # mu rounded to 16 bits fewer than the asked width: no term count
    # narrows the quotient enough
    monkeypatch.setattr(exactseries, "_GUARD_BITS", -16)
    monkeypatch.setattr(exactseries, "_MAX_CENTER_TERMS", 128)
    with pytest.raises(exactseries.InconclusiveSign, match="not enclosed"):
        enclose_center(F(2), 128)


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
    assert _fraction_to_dec(q, dps) == text


def test_printed_ball_contains_the_enclosure():
    for lam in CENTER_LAMBDAS:
        lo, hi = enclose_center(lam, 128)
        mid, rad = decimal_parts(lo, hi, 41)
        assert len(mid.replace(".", "").lstrip("0")) <= 41
        assert F(mid) - F(rad) <= lo and hi <= F(mid) + F(rad)
