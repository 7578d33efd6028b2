"""Certified localization of the pole of the developed generating series.

d(lambda) is continuous, certified negative at 2.5 and positive at 3, so
it has a zero in between (intermediate value theorem); the closed form
divides by d, and the series coefficients grow like the reciprocal of
that zero.  This module brackets the zero by bisection on exact signs.
Once the zeta/2 prefactors cancel, d(lambda) = sqrt(7) lambda E(lambda^2)
with E entire and its Taylor coefficients D_m rational (_series_sign
derives them), so the sign of d at a rational midpoint is the sign of
an integer partial sum of E that beats a rational tail bound; no ball is
evaluated at a midpoint, and the bracket depends on the target width
alone.  The enclosures stored in the PoleCertificate -- d at both final
endpoints, the numerator bound -- are ball values computed at the
requested precision, doubled while an endpoint enclosure straddles zero
(_certified), so the stored data re-verify offline with no Bessel
evaluation; they also re-certify the exact route's endpoint signs on
the ball route, and the two must agree.

The companion check, verify_numerator_nonvanishing, certifies that the
numerator of C at r = 0 stays away from zero across a bracket, by
evaluating it with the whole sub-interval as a single ball argument and
subdividing adaptively until every piece is certified.  Together the two
facts prove the bracketed zero of d is a genuine pole of C at r = 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from math import factorial

from .balls import DEFAULT_PREC, RealBall
from .bessel import (Constants, d_lambda, make_constants, numerator_im,
                     series_terms)
from .exactpoly import as_rat, rat_str

BRACKET_LO = Fraction(5, 2)
BRACKET_HI = Fraction(3)
_MAX_ESCALATIONS = 6
# term counts of the exact sign route: the first try, doubled while the
# tail bound is not below the partial sum, up to the cap.  At 256 terms
# the tail near the pole is below 1e-700, so only a midpoint that close
# to a zero of E could reach the cap.
_FIRST_TERMS = 8
_MAX_TERMS = 256


class SignChangeError(Exception):
    """Base for sign-certification failures."""


class NoSignChange(SignChangeError):
    """Both endpoint signs certified and equal; no zero is implied."""


class InconclusiveSign(SignChangeError):
    """No sign certified: an enclosure straddles zero (raising precision
    may resolve it), or E's series reached its term cap."""


@dataclass(frozen=True)
class PoleCertificate:
    """Re-checkable evidence for a pole: signed d-values bracketing a zero
    of the denominator plus a negative bound for the numerator across the
    bracket.  verify() needs only the stored data."""

    bracket_lo: Fraction
    bracket_hi: Fraction
    d_lo: RealBall
    d_hi: RealBall
    numerator_bound: RealBall
    precision: int
    series_terms: int
    target_width: Fraction
    # how the search went (exact signs, terms, d evaluations per
    # precision, numerator pieces); not part of the certificate's bytes
    search: dict | None = field(default=None, compare=False, repr=False)

    def verify(self) -> list:
        """Re-check every certificate invariant; returns failure strings."""
        failures = []
        if not BRACKET_LO < self.bracket_lo < self.bracket_hi < BRACKET_HI:
            failures.append("bracket not strictly inside (5/2, 3)")
        if self.bracket_hi - self.bracket_lo > self.target_width:
            failures.append("bracket wider than target")
        if not self.d_lo.is_negative():
            failures.append("d at lower endpoint not certified negative")
        if not self.d_hi.is_positive():
            failures.append("d at upper endpoint not certified positive")
        if not self.numerator_bound.is_negative():
            failures.append("numerator bound not certified negative")
        return failures

    def to_json(self) -> dict:
        return {
            "schema": "disksig.pole_certificate/1",
            "bracket": [rat_str(self.bracket_lo), rat_str(self.bracket_hi)],
            "d_lo": self.d_lo.to_json(),
            "d_hi": self.d_hi.to_json(),
            "numerator_bound": self.numerator_bound.to_json(),
            "precision": self.precision,
            "series_terms": self.series_terms,
            "target_width": rat_str(self.target_width),
        }

    @classmethod
    def from_json(cls, obj: dict) -> "PoleCertificate":
        lo, hi = (as_rat(s) for s in obj["bracket"])
        return cls(
            bracket_lo=lo,
            bracket_hi=hi,
            d_lo=RealBall.from_json(obj["d_lo"]),
            d_hi=RealBall.from_json(obj["d_hi"]),
            numerator_bound=RealBall.from_json(obj["numerator_bound"]),
            precision=int(obj["precision"]),
            series_terms=int(obj["series_terms"]),
            target_width=as_rat(obj["target_width"]),
        )


@lru_cache(maxsize=None)
def _series_coefficients(n: int) -> tuple:
    """(integer numerators of D_0 .. D_{n-1}, their common denominator).

    With w = zeta^2 = (-1 + i sqrt 7)/2, so w^2 = -w - 2 and conj(w) =
    -1 - w, the ascending series (DLMF 10.2.2) give
        J0(l zeta) = sum_j (-1)^j w^j l^(2j) / (4^j j!^2),
        J1(l conj(zeta)) = (l conj(zeta)/2)
                           sum_k (-1)^k conj(w)^k l^(2k) / (4^k k! (k+1)!),
    and conj(alpha) conj(zeta) = conj(w) (conj(w)/2 + 1) = (conj(w) - 2)/2.
    The Cauchy product of the two series collects, at mu^m = l^(2m),
        P_m = sum_k C(m, k) C(m+1, k) w^k conj(w)^(m-k) = a_m + b_m w
    (a_m, b_m integers) over 4^m m! (m+1)!; and Im((conj(w) - 2)/2
    (a + b w)) = -sqrt(7) (a + 2 b)/4.  So d(l) = sqrt(7) l E(l^2) with
        E(mu) = sum_m D_m mu^m,
        D_m = (-1)^m (-a_m - 2 b_m) / (8 4^m m! (m+1)!).
    Since w conj(w) = 2, w^k conj(w)^(m-k) is 2^(m-k) w^(2k-m) or
    2^k conj(w)^(m-2k), so only the values of -a - 2b at powers of w
    and conj(w) are needed.

    Bound: |a + 2b| = (4/sqrt 7) |Im((conj(w) - 2)/2 P_m)|, |conj(w) - 2|
    = 2 sqrt 2, |w| = sqrt 2 and sum_k C(m, k) C(m+1, k) = C(2m+1, m) <=
    4^m give |D_m| <= (sqrt 2)^m / (sqrt 14 m! (m+1)!) <= (3/2)^m /
    (m! (m+1)!).  Term ratios of that bound are 3 mu / (2 (m+1) (m+2)),
    at most 1/2 from m = n on when 3 mu <= (n+1)(n+2), so the tail of E
    from term n on is at most 2 (3 mu/2)^n / (n! (n+1)!).

    Each D_m is returned as numerator_m / L over the one denominator
    L = 8 4^(n-1) (n-1)! n!, which 8 4^m m! (m+1)! divides for m < n.
    """
    f_w, f_wbar = [], []  # -a - 2b at w^j and at conj(w)^j
    a, b, abar, bbar = 1, 0, 1, 0
    for _ in range(n):
        f_w.append(-a - 2 * b)
        f_wbar.append(-abar - 2 * bbar)
        a, b = -2 * b, a - b  # times w
        abar, bbar = 2 * bbar - abar, -abar  # times conj(w) = -1 - w
    denominator = 8 * 4 ** (n - 1) * factorial(n - 1) * factorial(n)
    numerators = []
    for m in range(n):
        binom, minus_a_2b = 1, 0  # binom = C(m, k) C(m+1, k)
        for k in range(m + 1):
            j = 2 * k - m
            minus_a_2b += binom * (f_w[j] << (m - k) if j >= 0
                                   else f_wbar[-j] << k)
            binom = binom * (m - k) * (m + 1 - k) // ((k + 1) * (k + 1))
        c_m = -minus_a_2b if m % 2 else minus_a_2b
        numerators.append(
            c_m * (denominator // (8 * 4 ** m * factorial(m) * factorial(m + 1))))
    return tuple(numerators), denominator


def _series_sign(mu: Fraction) -> tuple:
    """(sign of E(mu), terms used) for a dyadic mu = p / 2^s > 0.

    With E's first n coefficients numerator_m / L, the partial sum is
    U / (L 2^(s(n-1))) with U = sum_m numerator_m p^m 2^(s(n-1-m)), one
    integer multiply-add per term by Horner.  It has the sign of E when
    its modulus beats the tail bound of _series_coefficients,
        |U| / (L q^(n-1)) > 2 (3 p / (2 q))^n / (n! (n+1)!),  q = 2^s,
    which for L = 8 4^(n-1) (n-1)! n! is |U| q n (n+1) > 4 (6 p)^n.
    n starts at _FIRST_TERMS and doubles until that holds; past
    _MAX_TERMS the sign is InconclusiveSign.
    """
    p, q = mu.numerator, mu.denominator
    if p <= 0 or q & (q - 1):
        raise ValueError(f"{mu} is not a positive dyadic rational")
    s = q.bit_length() - 1
    n = _FIRST_TERMS
    while n <= _MAX_TERMS:
        if 3 * p <= (n + 1) * (n + 2) * q:  # the tail bound holds from n on
            u, shift = 0, 0
            for numerator in reversed(_series_coefficients(n)[0]):
                u = u * p + (numerator << shift)
                shift += s
            if abs(u) * q * n * (n + 1) > 4 * (6 * p) ** n:
                return (1 if u > 0 else -1), n
        n *= 2
    raise InconclusiveSign(
        f"E({mu}) not certified by {_MAX_TERMS} series terms")


def _certified(lams, prec: int) -> tuple:
    """(d at each lambda in lams, the precisions tried, the last's Constants).

    d is evaluated at prec and prec is doubled while any enclosure
    contains zero, at most _MAX_ESCALATIONS times; so every returned
    enclosure has a certified sign, and all of them are at the last
    precision tried.
    """
    tried = [prec << k for k in range(_MAX_ESCALATIONS + 1)]
    for k, prec in enumerate(tried):
        constants = make_constants(prec)
        enclosures = [d_lambda(lam, constants, prec) for lam in lams]
        if not any(d.contains_zero() for d in enclosures):
            return enclosures, tried[:k + 1], constants
    raise InconclusiveSign(
        f"d enclosure at {', '.join(map(str, lams))} straddles zero up to "
        f"{prec} bits")


def exact_bracket(target_width) -> tuple:
    """(lo, hi, exact signs taken, most series terms one needed) of (5/2, 3)
    bisected on exact signs of d, each the sign of E(mid^2) (_series_sign).

    Bisection goes on until the bracket is at most target_width wide and
    strictly inside (5/2, 3), as verify() requires; so a target width of
    1/4 or more still takes the steps that move both ends inward.  The
    signs prove d(lo) < 0 < d(hi); the bracket depends on the width alone.
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


def locate_pole(target_width, precision: int = DEFAULT_PREC) -> PoleCertificate:
    """Certificate for the bracket exact_bracket(target_width).

    d at both endpoints is certified on balls from `precision` on, both
    at one final precision; the endpoints must be certified negative and
    positive (NoSignChange if the ball route disagrees with the exact
    one), and the numerator is certified negative across the bracket at
    that final precision.  Those
    enclosures, the final precision and the series length are what the
    certificate stores; `search` records the exact signs, the most
    series terms one needed, the d evaluations per precision and the
    numerator pieces.
    """
    width = as_rat(target_width)
    precision = int(precision)
    if precision < 53:
        raise ValueError("precision below 53 bits is not supported")
    lo, hi, signs, max_terms = exact_bracket(width)
    (d_lo, d_hi), tried, constants = _certified((lo, hi), precision)
    if not (d_lo.is_negative() and d_hi.is_positive()):
        raise NoSignChange(f"expected d < 0 at {lo} and d > 0 at {hi}")
    final = tried[-1]
    pieces: list = []
    num = verify_numerator_nonvanishing(lo, hi, precision=final,
                                        constants=constants, pieces=pieces)
    return PoleCertificate(
        bracket_lo=lo, bracket_hi=hi, d_lo=d_lo, d_hi=d_hi,
        numerator_bound=num, precision=final,
        series_terms=series_terms(hi, constants, final),
        target_width=width,
        search={"exact_signs": signs, "max_terms": max_terms,
                "d_evaluations": {str(prec): 2 for prec in tried},
                "numerator_pieces": len(pieces)})


def verify_numerator_nonvanishing(lo, hi, max_subdivisions: int = 64,
                                  target=0, precision: int = DEFAULT_PREC,
                                  constants: Constants | None = None,
                                  pieces: list | None = None) -> RealBall:
    """Certified enclosure of the C-numerator over the whole bracket.

    Each piece of an adaptive subdivision of [lo, hi] is evaluated with
    the piece as a single interval-shaped ball; pieces whose upper bound
    is not below target are split.  Returns the hull of all certified
    pieces, whose upper bound is the max across pieces.  Every evaluated
    piece (a, b), split or certified, is appended to `pieces` if given.
    """
    lo, hi = as_rat(lo), as_rat(hi)
    if not BRACKET_LO <= lo <= hi <= BRACKET_HI:
        raise ValueError("bracket must lie inside [5/2, 3]")
    target = as_rat(target)
    constants = constants or make_constants(precision)
    pending = [(lo, hi)]
    certified: list = []
    splits = 0
    while pending:
        a, b = pending.pop(0)
        if pieces is not None:
            pieces.append((a, b))
        lam = RealBall.from_interval(a, b, precision)
        enc = numerator_im(lam, constants, precision)
        if enc.upper() < target:
            certified.append(enc)
            continue
        if splits >= max_subdivisions:
            raise InconclusiveSign(
                "cannot certify: subdivision budget exhausted on "
                f"[{a}, {b}] (enclosure upper {float(enc.upper()):.6g}); "
                "raise the budget or precision")
        splits += 1
        m = (a + b) / 2
        pending.append((a, m))
        pending.append((m, b))
    return reduce(lambda hull, enc: hull.hull(enc, precision), certified)
