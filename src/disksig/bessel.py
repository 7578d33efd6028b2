"""Rigorous Bessel J0/J1 enclosures and the closed form they assemble into.

The generating function F(lambda, z) of the developed hierarchy solves, in
radial coordinates, a Bessel-type system whose solution is expressed
through the two constants

    zeta  = sqrt((-1 + i sqrt 7) / 2)    (principal branch)
    alpha = zeta^3 / 2 + zeta

and the denominator d(lambda) = Im(conj(alpha) J0(lambda zeta)
J1(lambda conj(zeta))).  Everything is evaluated in ball arithmetic: the
J series are truncated power series with an explicit geometric tail
bound folded into the radius, so every returned ball contains the true
value.  Zeros of d are poles of the closed form; abc_closed_form refuses
to divide by a d-ball that straddles zero.  A function that takes a
Constants evaluates at constants.prec, so zeta and the Bessel sums it
enters share one precision; bessel_j, which takes none, at its own prec.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .balls import DEFAULT_PREC, ComplexBall, RealBall
from .rational import as_rat

_HALF = Fraction(1, 2)


def _as_real_ball(x, prec: int) -> RealBall:
    if isinstance(x, RealBall):
        return x
    return RealBall.from_rational(as_rat(x), prec)


def _as_complex_ball(x, prec: int) -> ComplexBall:
    if isinstance(x, ComplexBall):
        return x
    return ComplexBall.from_real(_as_real_ball(x, prec))


def bessel_tail_bound(x: ComplexBall, n: int) -> RealBall:
    """Upper bound for the series tail of J0 or J1 truncated before term n.

    Both tails are dominated by the geometric bound
        (1 - |x|^2/(2n+2)^2)^(-1) * |x/2|^(2n) / n!^2,
    computed here in exact rationals from an upper bound of |x|, where x
    is a complex ball.  Requires |x| < 2(n+1).
    """
    if n < 0:
        raise ValueError("negative term index")
    xu = x.abs2().upper()  # |x|^2 upper bound, exact rational
    if xu >= 4 * (n + 1) * (n + 1):
        raise ValueError(f"|x| >= 2(n+1) = {2 * (n + 1)}; tail bound invalid")
    return RealBall.from_rational(_tail_bound(xu, n))


def _tail_bound(xu: Fraction, n: int) -> Fraction:
    """The tail bound as an exact rational, from |x|^2 <= xu < 4(n+1)^2."""
    first = (xu / 4) ** n / Fraction(factorial(n)) ** 2
    geom = 1 / (1 - xu / Fraction(4 * (n + 1) * (n + 1)))
    return first * geom


def _auto_terms(x: ComplexBall, prec: int) -> int:
    """Smallest n with tail bound below 2^(10 - prec).

    The scan starts at the first n >= 1 with 4(n+1)^2 > |x|^2 (where the
    bound becomes valid) and tests every n in turn; from there the bound
    decreases in n, so the first n below the target is the answer.  With
    |x|^2 <= p/s, each test is the exact integer comparison
        p^n 4(n+1)^2 s 2^(prec-10) < (4s)^n n!^2 (4(n+1)^2 s - p),
    and p^n, (4s)^n n!^2 are carried from n to n+1 by one product each
    instead of rebuilding the bound.
    """
    xu2 = x.abs2().upper()
    p, s = xu2.numerator, xu2.denominator
    n = 1
    while 4 * (n + 1) ** 2 <= xu2:
        n += 1
    num = p ** n
    den = (4 * s) ** n * factorial(n) ** 2
    while True:
        m = 4 * (n + 1) ** 2 * s
        if (num * m) << (prec - 10) < den * (m - p):
            return n
        n += 1
        num *= p
        den *= 4 * s * n * n


def bessel_j(nu: int, x, n_terms: int | None = None,
             prec: int = DEFAULT_PREC) -> ComplexBall:
    """Enclosure of J_nu(x), nu in {0, 1}, for a complex ball argument.

    Partial sum of the ascending series in ball arithmetic, radius
    inflated by bessel_tail_bound; the result contains the true value.
    """
    if nu not in (0, 1):
        raise ValueError("only orders 0 and 1 are implemented")
    x = _as_complex_ball(x, prec)
    if n_terms is None:
        n_terms = _auto_terms(x, prec)
    if n_terms < 1:
        raise ValueError("need at least one term")
    half = x.mul_real(RealBall.from_rational(_HALF, prec), prec)
    q = half.mul(half, prec)
    if nu == 0:
        term = ComplexBall.from_real(RealBall.from_int(1))
    else:
        term = half
    acc = term
    for k in range(n_terms - 1):
        den = (k + 1) * (k + 1) if nu == 0 else (k + 1) * (k + 2)
        factor = RealBall.from_rational(Fraction(-1, den), prec)
        term = term.mul(q, prec).mul_real(factor, prec)
        acc = acc.add(term, prec)
    tail = bessel_tail_bound(x, n_terms).upper()
    return ComplexBall(acc.re.inflate(tail), acc.im.inflate(tail))


@dataclass(frozen=True)
class Constants:
    """Certified enclosures of zeta and alpha at a stated precision."""

    zeta: ComplexBall
    alpha: ComplexBall
    prec: int


def make_constants(prec: int = DEFAULT_PREC) -> Constants:
    """Enclosures of zeta (principal branch) and alpha = zeta^3/2 + zeta.

    zeta^2 = (-1 + i sqrt 7)/2 sits in the upper half plane, so the
    principal square root is well defined and the complex-ball sqrt
    applies without meeting the branch cut.
    """
    if prec < 53:
        raise ValueError("precision below 53 bits is not supported")
    sqrt7 = RealBall.from_int(7).sqrt(prec)
    zeta_sq = ComplexBall(RealBall.from_rational(Fraction(-1, 2), prec),
                          sqrt7.mul_2exp(-1))
    zeta = zeta_sq.sqrt(prec)
    z3 = zeta.mul(zeta, prec).mul(zeta, prec)
    alpha = z3.mul_2exp(-1).add(zeta, prec)
    return Constants(zeta=zeta, alpha=alpha, prec=prec)


def series_terms(lam, constants: Constants) -> int:
    """Truncation length auto-selected for J at argument lambda*zeta."""
    prec = constants.prec
    x = _as_complex_ball(lam, prec).mul(constants.zeta, prec)
    return _auto_terms(x, prec)


def _remark_parts(lam, constants: Constants) -> tuple:
    """(x0, x1, J1(x1), the remark product) at lambda.

    x0 = lambda zeta and x1 = lambda conj(zeta); this is the only
    evaluation of J0(x0) and J1(x1).
    """
    prec = constants.prec
    lamc = _as_complex_ball(lam, prec)
    x0 = lamc.mul(constants.zeta, prec)
    x1 = lamc.mul(constants.zeta.conj(), prec)
    j0 = bessel_j(0, x0, prec=prec)
    j1 = bessel_j(1, x1, prec=prec)
    return x0, x1, j1, constants.alpha.conj().mul(j0, prec).mul(j1, prec)


def _numerator(j1: ComplexBall, constants: Constants) -> RealBall:
    """Im(conj(alpha) j1) for j1 = J1(lambda conj(zeta))."""
    return constants.alpha.conj().mul(j1, constants.prec).im


def remark_product(lam, constants: Constants) -> ComplexBall:
    """Enclosure of conj(alpha) J0(lambda zeta) J1(lambda conj(zeta))."""
    return _remark_parts(lam, constants)[3]


def d_lambda(lam, constants: Constants, prec: int | None = None) -> RealBall:
    """d(lambda) = Im of the remark product; zeros of d are the poles."""
    if prec not in (None, constants.prec):  # a second copy must agree
        raise ValueError(f"d_lambda runs at constants.prec, not {prec} bits")
    return remark_product(lam, constants).im


def pairing(lam, constants: Constants) -> tuple:
    """(d, d by the determinant route, numerator) at lambda.

    d and the numerator are the balls d_lambda and numerator_im return.
    The determinant route is Wronskian-style,
        2i d = conj(alpha) J0(lz) J1(lz~) - alpha J1(lz) J0(lz~),
    whose first term is the remark product itself; the second term's two
    factors are evaluated from their own series rather than by
    conjugating the first, so its ball must intersect d's.
    """
    prec = constants.prec
    x0, x1, j1, product = _remark_parts(lam, constants)
    second = constants.alpha.mul(bessel_j(1, x0, prec=prec), prec)
    second = second.mul(bessel_j(0, x1, prec=prec), prec)
    # (a + bi)/(2i) has real part b/2; for real lambda, a's ball straddles 0
    d_det = product.sub(second, prec).im.mul_2exp(-1)
    return product.im, d_det, _numerator(j1, constants)


def numerator_im(lam, constants: Constants) -> RealBall:
    """Im(conj(alpha) J1(lambda conj(zeta))), the C-numerator at r = 0.

    Accepts an interval-shaped lambda ball, so a single call can enclose
    the numerator over a whole bracket.
    """
    prec = constants.prec
    x1 = _as_complex_ball(lam, prec).mul(constants.zeta.conj(), prec)
    return _numerator(bessel_j(1, x1, prec=prec), constants)


def abc_closed_form(lam, r, constants: Constants) -> tuple:
    """The closed-form radial triple (A, B, C) at lambda, r in [0, 1].

        A = (|alpha|^2 / d) Im(J1(l zeta~) J1(l zeta r))
        B = 0
        C = (1 / d)         Im(conj(alpha) J1(l zeta~) J0(l zeta r))

    The A-prefactor is |alpha|^2 = sqrt(2), pinned two independent ways:
    matching the lambda^3 coefficient of the exact hierarchy gives
    exactly sqrt(2), and |alpha| = |zeta| |zeta^2 + 2|/2 = |zeta| with
    |zeta|^2 = |zeta^2| = sqrt(2).  Raises on pole proximity: the
    d(lambda) ball must exclude zero.
    """
    prec = constants.prec
    r_ball = _as_real_ball(r, prec)
    if r_ball.lower() < 0 or r_ball.upper() > 1:
        raise ValueError("r must lie in [0, 1]")
    x0, _, j1_fix, product = _remark_parts(lam, constants)
    d = product.im
    if d.contains_zero():
        raise ValueError("pole proximity: d(lambda) enclosure contains zero; "
                         "raise precision or move lambda away from the pole")
    xr = x0.mul_real(r_ball, prec)
    alpha_sq = constants.alpha.abs2(prec)
    a_num = j1_fix.mul(bessel_j(1, xr, prec=prec), prec).im
    a_val = a_num.mul(alpha_sq, prec).div(d, prec)
    c_num = constants.alpha.conj().mul(j1_fix, prec)
    c_num = c_num.mul(bessel_j(0, xr, prec=prec), prec).im
    c_val = c_num.div(d, prec)
    return a_val, RealBall.zero(), c_val
