"""The closed form at the centre as a quotient of rational power series.

With w = zeta^2 = (-1 + i sqrt 7)/2, so w^2 = -w - 2 and conj(w) =
-1 - w, the ascending series of J0 and J1 (DLMF 10.2.2) turn every
quantity of the paper's explicit solution at r = 0 into sqrt(7) lambda
times a power series in mu = lambda^2 with rational coefficients:

    d(lambda)   = sqrt(7) lambda E(mu),   E(mu) = sum_m D_m mu^m,
    N_C(lambda) = sqrt(7) lambda G(mu),   G(mu) = sum_k G_k mu^k,

where N_C = Im(conj(alpha) J1(lambda conj(zeta))) is the numerator of C
at r = 0.  So C(lambda, 0) = G(mu)/E(mu) needs no ball and no sqrt 7;
E(mu) A(mu) = G(mu) with A(mu) = sum_m a_(2m) mu^m, the hierarchy's
scalars.  Both series' coefficients are integer numerators over one
common denominator L, from integer recurrences (_series_coefficients).

This module uses integers and Fractions only.  It holds

- enclose, an interval Horner evaluation of such a series on a dyadic
  interval plus its tail bound (_tail_bounds): the one evaluator of E
  and G;
- the exact sign of E at a dyadic point (_series_sign), read from
  enclose on that point once its interval excludes zero, and the pole
  bracket bisected on those signs (exact_bracket), which polefinder
  certifies on balls;
- enclose_center, the enclosure of C(lambda, 0) that `disksig compare`
  prints with rational.decimal_parts.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import factorial

from . import check_precision
from .rational import as_rat

BRACKET_LO = Fraction(5, 2)
BRACKET_HI = Fraction(3)
# term counts of the exact sign route: the first try, doubled while the
# enclosure of E at the point holds zero, up to the cap.  At 256 terms
# the tail near the pole is below 1e-700, and the enclosure is rounded
# to units of 2^-(s + _GUARD_BITS) for mu = p / 2^s, so only a midpoint
# about that close to a zero of E could reach the cap.
_FIRST_TERMS = 8
_MAX_TERMS = 256
# guard bits of enclose_center beyond the requested relative width, and
# of the exact sign route beyond the bits of mu
_GUARD_BITS = 64


class SignChangeError(ArithmeticError):
    """Base for sign-certification failures."""


class NoSignChange(SignChangeError):
    """Both endpoint signs certified and equal; no zero is implied."""


class InconclusiveSign(SignChangeError):
    """No sign certified: an enclosure straddles zero (raising precision
    may resolve it) or is wider than asked, or a series reached its term
    cap."""


def _coefficients(n: int, first: int, step) -> tuple:
    """(N_0 .. N_(n-1), L) from the seeds N_0 = -L/8, N_1 = first L/64 and
    N_(m+2) = step(m, N_m, N_(m+1)), over L = 8 4^(n-1) (n-1)! n!."""
    denominator = 8 * 4 ** (n - 1) * factorial(n - 1) * factorial(n)
    numerators = [-denominator // 8, first * denominator // 64][:n]
    for m in range(n - 2):
        numerators.append(step(m, numerators[m], numerators[m + 1]))
    return tuple(numerators), denominator


@lru_cache(maxsize=None)
def _series_coefficients(n: int) -> tuple:
    """(integer numerators of D_0 .. D_{n-1}, their common denominator L).

    The Cauchy product of the ascending series of J0(l zeta) and of
    J1(l conj(zeta)) / (l conj(zeta)/2) has at mu^m = l^(2m) the
    coefficient (-1)^m P_m / (4^m m! (m+1)!), where
        P_m = sum_k C(m, k) C(m+1, k) w^k conj(w)^(m-k) = a_m + b_m w.
    With conj(alpha) conj(zeta) = (conj(w) - 2)/2 and Im((conj(w) - 2)/2
    (a + b w)) = -sqrt(7) (a + 2 b)/4, d(l) = sqrt(7) l E(l^2) with
        D_m = (-1)^m u_m / (8 4^m m! (m+1)!),
        u_m = -a_m - 2 b_m = Tr(theta P_m),  theta = (5w - 1)/7,
    Tr(z) = z + conj(z).  From u_0 = u_1 = -1 the u_m obey
      (R)  (m+2)(2m-3) u_(m+1) = -2(2m^2+3) u_m + 7m(2m-1) u_(m-1),
    which over L is the step below: each division is exact, as its
    quotient is the integer L D_(m+2).  Proof of (R), each identity of
    which tests/test_exactseries.py checks exactly:
    (1) For x, y != 0, P_m(x, y) = sum_k C(m, k) C(m+1, k) x^k y^(m-k)
    obeys Jacobi's recurrence (DLMF 18.9.1)
        (m+2)(2m+1) P_(m+1) = ((2m+1)(2m+3)(x+y) + x - y) P_m
                              - m(2m+3)(y-x)^2 P_(m-1):
    with Zeilberger's certificate g(m, k) = Q C(m, k-1) C(m+1, k-1) x^k
    y^(m-k) / (m+1), Q = (2m+3)(m+1-k)(m+2-k) x - ((2m+3)(k-2m-2)^2 +
    2m^2+4m+1) y, the k-th term of the difference of the two sides is
    g(m, k+1) - g(m, k) for 0 <= k <= m+1 (over C(m+1, k) C(m+2, k) x^k
    y^(m+1-k), a polynomial identity), so they sum to g(m, m+2) - g(m, 0)
    = 0.
    (2) At x = w, y = conj(w): x + y = -1, x - y = delta = 2w + 1, delta^2
    = -7.  Tr(theta .) and Tr(delta theta .) of (1) give, with v_m =
    Tr(delta theta P_m) = -Tr((w + 3) P_m), c_m = (m+2)(2m+1), A_m =
    -(2m+1)(2m+3) and B_m = 7m(2m+3),
        c_m u_(m+1) = A_m u_m + B_m u_(m-1) + v_m,
        c_m v_(m+1) = A_m v_m + B_m v_(m-1) - 7 u_m.
    (3) (2m-3) v_m = 56m u_(m-1) - 15(2m+1) u_m holds at m = 0 and 1
    (v_0 = -5, v_1 = 11), and at m+1 >= 2 once it holds at m-1 and m: by
    (2) at m-1 and m, it is then an identity of rational functions of m
    times u_(m-1) and u_(m-2).  Put into the first line of (2), it is (R).

    Bound: |a + 2b| = (4/sqrt 7) |Im((conj(w) - 2)/2 P_m)|, |conj(w) - 2|
    = 2 sqrt 2, |w| = sqrt 2 and sum_k C(m, k) C(m+1, k) = C(2m+1, m) <=
    4^m give |D_m| <= (sqrt 2)^m / (sqrt 14 m! (m+1)!) <= (3/2)^m /
    (m! (m+1)!), the bound enclose's tail rests on.
    """
    return _coefficients(n, 1, lambda m, a, b: (
        8 * (m + 2) * (2 * m * m + 4 * m + 5) * b + 7 * (2 * m + 1) * a)
        // (16 * (m + 2) ** 2 * (m + 3) ** 2 * (2 * m - 1)))


def _numerator_coefficients(n: int) -> tuple:
    """(integer numerators of G_0 .. G_{n-1}, the denominator L of E's).

    At r = 0, J0(0) = 1 and N_C = Im(conj(alpha) J1(l conj(zeta))) =
    (l/4) sum_k (-1)^k Im((conj(w) - 2) conj(w)^k) mu^k / (4^k k! (k+1)!);
    with (conj(w) - 2) conj(w)^k = x_k + y_k w, Im = y_k sqrt(7)/2, so
    G_k = (-1)^k y_k / (8 4^k k! (k+1)!), and conj(w)^2 = -conj(w) - 2
    gives y_(k+2) = -y_(k+1) - 2 y_k from y_0 = -1, y_1 = 3: over L, the
    step below.  |y_k| = (2/sqrt 7) |Im(...)| <= (4 sqrt 2/sqrt 7)
    (sqrt 2)^k, so |G_k| <= (3/2)^k / (k! (k+1)!), as E's coefficients.
    """
    return _coefficients(n, -3, lambda k, a, b: (
        4 * (k + 1) * (k + 2) * b - 2 * a)
        // (16 * (k + 1) * (k + 2) ** 2 * (k + 3)))


def _series_sign(mu: Fraction) -> tuple:
    """(sign of E(mu), terms used) for a dyadic mu = p / 2^s > 0.

    The sign is that of enclose on the point interval [mu, mu] with E's
    first n coefficients, once that enclosure excludes zero.  enclose
    rounds its tail bound up to whole units of 2^-bits, so the bits grow
    with s: s + _GUARD_BITS, about _GUARD_BITS bits below mu's own.
    n starts at _FIRST_TERMS and doubles, skipping any n whose tail bound
    does not yet hold (3 mu > (n+1)(n+2)); past _MAX_TERMS the sign is
    InconclusiveSign.
    """
    p, q = mu.numerator, mu.denominator
    if p <= 0 or q & (q - 1):
        raise ValueError(f"{mu} is not a positive dyadic rational")
    s = q.bit_length() - 1
    n = _FIRST_TERMS
    while n <= _MAX_TERMS:
        if 3 * p <= (n + 1) * (n + 2) * q:  # the tail bound holds from n on
            lo, hi = enclose(_series_coefficients(n), p, p, s, s + _GUARD_BITS)
            if lo > 0 or hi < 0:
                return (1 if lo > 0 else -1), n
        n *= 2
    raise InconclusiveSign(
        f"E({mu}) not certified by {_MAX_TERMS} series terms")


def exact_bracket(target_width) -> tuple:
    """(lo, hi, exact signs taken, most series terms one needed) of (5/2, 3)
    bisected on exact signs of d, each the sign of E(mid^2) (_series_sign).

    Bisection goes on until the bracket is at most target_width wide and
    strictly inside (5/2, 3), as PoleCertificate.verify() requires; so a
    target width of 1/4 or more still takes the steps that move both ends
    inward.  The signs prove d(lo) < 0 < d(hi); the bracket depends on
    the width alone.
    """
    width = as_rat(target_width)
    if width <= 0:
        raise ValueError("target width must be positive")
    lo, hi = BRACKET_LO, BRACKET_HI
    signs, max_terms = 0, 0
    while hi - lo > width or lo == BRACKET_LO or hi == BRACKET_HI:
        mid = (lo + hi) / 2
        sign, terms = _series_sign(mid * mid)  # d = sqrt(7) mid E(mid^2)
        signs += 1
        max_terms = max(max_terms, terms)
        if sign < 0:
            lo = mid
        else:
            hi = mid
    return lo, hi, signs, max_terms


def _tail_bounds(p: int, s: int, bits: int):
    """ceil(2^bits T_n) for n = 0, 1, 2, ..., upper bounds of
        T_n = 2 (3 mu/2)^n / (n! (n+1)!)  at mu = p / 2^s.

    For a series whose coefficients meet |c_m| <= (3/2)^m / (m! (m+1)!),
    the ratios of those bounds from term n on are 3 mu / (2 (m+1) (m+2))
    <= 1/2 once 3 mu <= (n+1)(n+2), so the tail from term n on is at most
    twice the bound on term n, which is T_n.  Each step multiplies by
    that ratio and rounds up.
    """
    t, n = 2 << bits, 0
    while True:
        yield t
        n += 1
        t = -((-t * 3 * p >> (s + 1)) // (n * (n + 1)))  # two ceilings


def enclose(coefficients: tuple, p_lo: int, p_hi: int, s: int,
            bits: int) -> tuple:
    """(lo, hi) with lo <= sum_m c_m mu^m <= hi for every mu in
    [p_lo / 2^s, p_hi / 2^s], 0 <= p_lo <= p_hi.

    coefficients is (numerators, L) with c_m = numerators[m] / L for
    m < n = len(numerators), every c_m with m >= 0 meeting |c_m| <=
    (3/2)^m / (m! (m+1)!) (E and G do); requires 3 mu <= (n+1)(n+2).
    The partial sum is an interval Horner evaluation on the integer
    numerators, in fixed point with `bits` fractional bits: since mu >= 0,
    each product takes the end of mu that moves that end of the interval
    outward and is rounded outward.  The tail beyond the n terms adds
    T_n (_tail_bounds) on both sides.
    """
    numerators, denominator = coefficients
    n = len(numerators)
    if not 0 <= p_lo <= p_hi:
        raise ValueError("enclose needs 0 <= p_lo <= p_hi")
    if 3 * p_hi > (n + 1) * (n + 2) << s:
        raise ValueError(
            f"the tail bound of {n} terms needs 3 mu <= {(n + 1) * (n + 2)}")
    lo = hi = 0
    for numerator in reversed(numerators):
        c = numerator << bits
        lo = (lo * (p_lo if lo >= 0 else p_hi) >> s) + c
        hi = -(-hi * (p_hi if hi >= 0 else p_lo) >> s) + c
    tail = next(islice(_tail_bounds(p_hi, s, bits), n, None)) * denominator
    scale = denominator << bits
    return Fraction(lo - tail, scale), Fraction(hi + tail, scale)


def _dyadic_outward(q: Fraction, bits: int) -> tuple:
    """(p_lo, p_hi, s) with p_lo / 2^s <= q <= p_hi / 2^s, q >= 0; p_hi
    has at most bits + 1 bits, so the interval is about 2^-bits q wide."""
    num, den = q.numerator, q.denominator
    s = max(0, bits - num.bit_length() + den.bit_length())
    p_lo = (num << s) // den
    return p_lo, p_lo + ((num << s) % den != 0), s


def enclose_center(lam, precision: int) -> tuple:
    """(lo, hi) with lo <= C(lam, 0) = G(lam^2)/E(lam^2) <= hi and
    hi - lo <= 2^-precision min(|lo|, |hi|).

    mu = lam^2 is rounded outward to a dyadic interval at precision +
    _GUARD_BITS bits, so the work depends on the precision and not on
    lam's digits.  The term count is the smallest one from _FIRST_TERMS
    on whose tail bound is at most 2^-(precision + _GUARD_BITS), one
    rounding unit of the enclosures, so more terms could narrow them by
    no more than that; E and G are enclosed once (enclose) at that
    count.  If E's interval holds zero or the quotient is wider than
    asked, this raises InconclusiveSign.  A precision outside
    MIN_PRECISION..MAX_PRECISION is refused (ValueError) before any
    series is built.
    """
    check_precision(precision)
    lam = as_rat(lam)
    bits = precision + _GUARD_BITS
    p_lo, p_hi, s = _dyadic_outward(lam * lam, bits)
    n = next(n for n, t in enumerate(_tail_bounds(p_hi, s, bits))
             if n >= _FIRST_TERMS and 3 * p_hi <= (n + 1) * (n + 2) << s
             and t <= 1)
    e_lo, e_hi = enclose(_series_coefficients(n), p_lo, p_hi, s, bits)
    if e_lo > 0 or e_hi < 0:
        g_lo, g_hi = enclose(_numerator_coefficients(n), p_lo, p_hi, s, bits)
        ends = [g / e for g in (g_lo, g_hi) for e in (e_lo, e_hi)]
        lo, hi = min(ends), max(ends)
        if (hi - lo) * 2 ** precision <= min(abs(lo), abs(hi)):
            return lo, hi
    raise InconclusiveSign(
        f"C({lam}, 0) not enclosed to 2^-{precision} by {n} series terms")
