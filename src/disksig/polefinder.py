"""Certified localization of the pole of the developed generating series.

d(lambda) is continuous, certified negative at 2.5 and positive at 3, so
it has a zero in between (intermediate value theorem); the closed form
divides by d, and the series coefficients grow like the reciprocal of
that zero.  This module brackets the zero by bisection on certified
signs only.  A sign is a fact about d, not about the precision that
certified it, so each midpoint sign is first tried at a cheap rung
precision set by the midpoint's dyadic denominator (about log2 of the
inverse bracket width, plus guard bits).  A rung enclosure that
straddles zero falls back to the requested precision: the midpoint is
re-evaluated there, nudged by a sixteenth of the bracket, then retried
at doubled precision.  The enclosures stored in the PoleCertificate --
d at both final endpoints, the numerator bound -- are all computed at
the final requested precision, so the stored data re-verify offline,
with no Bessel evaluation needed, and do not depend on the rungs.

The companion check, verify_numerator_nonvanishing, certifies that the
numerator of C at r = 0 stays away from zero across a bracket, by
evaluating it with the whole sub-interval as a single ball argument and
subdividing adaptively until every piece is certified.  Together the two
facts prove the bracketed zero of d is a genuine pole of C at r = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .balls import DEFAULT_PREC, RealBall
from .bessel import (Constants, d_lambda, make_constants, numerator_im,
                     series_terms)
from .exactpoly import as_rat, rat_str

BRACKET_LO = Fraction(5, 2)
BRACKET_HI = Fraction(3)
_MAX_ESCALATIONS = 6
# rung precision of a midpoint: its denominator's bits plus a guard, at
# least _RUNG_FLOOR, rounded up to a multiple of _RUNG_STEP
_RUNG_FLOOR = 64
_RUNG_GUARD = 32
_RUNG_STEP = 32


class SignChangeError(Exception):
    """Base for sign-certification failures."""


class NoSignChange(SignChangeError):
    """Both endpoint signs certified and equal; no zero is implied."""


class InconclusiveSign(SignChangeError):
    """An enclosure straddles zero; raising precision may resolve it."""


def _sign_of(ball: RealBall) -> int:
    if ball.is_negative():
        return -1
    if ball.is_positive():
        return 1
    return 0


def verify_sign_change(lo, hi, precision: int = DEFAULT_PREC,
                       constants: Constants | None = None) -> tuple:
    """Certified d-enclosures at both endpoints, requiring opposite signs.

    Returns (d(lo), d(hi)) when the signs are certified and opposite.
    Never reports a wrong sign: an enclosure straddling zero raises
    InconclusiveSign (retry with more precision), equal certified signs
    raise NoSignChange.
    """
    lo, hi = as_rat(lo), as_rat(hi)
    if not 0 <= lo < hi:
        raise ValueError("need 0 <= lo < hi")
    constants = constants or make_constants(precision)
    d_lo = d_lambda(lo, constants, precision)
    d_hi = d_lambda(hi, constants, precision)
    s_lo, s_hi = _sign_of(d_lo), _sign_of(d_hi)
    if s_lo == 0 or s_hi == 0:
        raise InconclusiveSign(
            f"d enclosure straddles zero at an endpoint of [{lo}, {hi}] "
            f"(precision {precision}); raise precision and retry")
    if s_lo == s_hi:
        word = "negative" if s_lo < 0 else "positive"
        raise NoSignChange(
            f"d is certified {word} at both endpoints of [{lo}, {hi}]; "
            "no sign change on this bracket")
    return d_lo, d_hi


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


# rungs are few (multiples of _RUNG_STEP below the requested precision),
# so their constants are built once per process
_rung_constants = lru_cache(maxsize=None)(make_constants)


def _rung_precision(lam: Fraction) -> int:
    bits = max(_RUNG_FLOOR, lam.denominator.bit_length() + _RUNG_GUARD)
    return -(-bits // _RUNG_STEP) * _RUNG_STEP


def _certified_d(lam: Fraction, constants: Constants, precision: int):
    """(sign, ball) with sign certified nonzero, else sign 0.

    The sign is tried first at lam's rung precision when that is below
    `precision`; the ball is whichever enclosure decided, so it is at
    `precision` only when the rung was skipped or straddled zero.
    """
    rung = _rung_precision(lam)
    if rung < precision:
        ball = d_lambda(lam, _rung_constants(rung), rung)
        sign = _sign_of(ball)
        if sign:
            return sign, ball
    ball = d_lambda(lam, constants, precision)
    return _sign_of(ball), ball


def locate_pole(target_width, precision: int = DEFAULT_PREC) -> PoleCertificate:
    """Bisect (5/2, 3) down to target_width with certified signs only.

    Each midpoint sign comes from _certified_d: the rung precision first,
    then `precision`.  A midpoint inconclusive at `precision` is shifted
    by 1/16 of the bracket, then the working precision is doubled
    (bounded retries).  Only signs steer the bisection; once the bracket
    is narrow enough, d at both endpoints is evaluated at the final
    working precision and must be certified negative and positive, and
    the numerator is certified negative across the bracket at that
    precision.  Those enclosures, the final precision and the series
    length are what the certificate stores.
    """
    width = as_rat(target_width)
    if width <= 0:
        raise ValueError("target width must be positive")
    precision = int(precision)
    if precision < 53:
        raise ValueError("precision below 53 bits is not supported")
    constants = make_constants(precision)
    escalations = 0
    lo, hi = BRACKET_LO, BRACKET_HI
    while hi - lo > width:
        mid = (lo + hi) / 2
        sign, _ = _certified_d(mid, constants, precision)
        if sign == 0:
            mid = mid + (hi - lo) / 16
            sign, _ = _certified_d(mid, constants, precision)
        while sign == 0:
            if escalations >= _MAX_ESCALATIONS:
                raise InconclusiveSign(
                    "precision ceiling reached while certifying a midpoint "
                    f"sign (reached {precision} bits)")
            escalations += 1
            precision *= 2
            constants = make_constants(precision)
            sign, _ = _certified_d(mid, constants, precision)
        if sign < 0:
            lo = mid
        else:
            hi = mid
    d_lo, d_hi = verify_sign_change(lo, hi, precision, constants)
    if not (d_lo.is_negative() and d_hi.is_positive()):
        raise NoSignChange(f"expected d < 0 at {lo} and d > 0 at {hi}")
    num = verify_numerator_nonvanishing(lo, hi, precision=precision,
                                        constants=constants)
    return PoleCertificate(
        bracket_lo=lo, bracket_hi=hi, d_lo=d_lo, d_hi=d_hi,
        numerator_bound=num, precision=precision,
        series_terms=series_terms(hi, constants, precision),
        target_width=width)


def verify_numerator_nonvanishing(lo, hi, max_subdivisions: int = 64,
                                  target=0, precision: int = DEFAULT_PREC,
                                  constants: Constants | None = None) -> RealBall:
    """Certified enclosure of the C-numerator over the whole bracket.

    Each piece of an adaptive subdivision of [lo, hi] is evaluated with
    the piece as a single interval-shaped ball; pieces whose upper bound
    is not below target are split.  Returns the hull of all certified
    pieces, whose upper bound is the max across pieces.
    """
    lo, hi = as_rat(lo), as_rat(hi)
    if not BRACKET_LO <= lo <= hi <= BRACKET_HI:
        raise ValueError("bracket must lie inside [5/2, 3]")
    target = as_rat(target)
    constants = constants or make_constants(precision)
    if lo == hi:
        enc = numerator_im(lo, constants, precision)
        if enc.upper() >= target:
            raise InconclusiveSign(
                f"numerator enclosure at {lo} not below {target}")
        return enc
    pending = [(lo, hi)]
    certified: list = []
    splits = 0
    while pending:
        a, b = pending.pop(0)
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
    hull = certified[0]
    for enc in certified[1:]:
        hull = hull.hull(enc, precision)
    return hull
