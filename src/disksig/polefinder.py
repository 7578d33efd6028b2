"""Certified localization of the pole of the developed generating series.

d(lambda) is continuous, certified negative at 2.5 and positive at 3, so
it has a zero in between (intermediate value theorem); the closed form
divides by d, and the series coefficients grow like the reciprocal of
that zero.  This module brackets the zero by bisection on certified
signs only, with one precision rule per job.  A sign is a fact about d,
not about the precision that certified it, so each midpoint sign is
certified at a rung precision set by the midpoint's dyadic denominator
(about log2 of the inverse bracket width, plus guard bits), doubled
while the enclosure straddles zero; the bracket therefore depends on the
target width alone.  The enclosures stored in the PoleCertificate -- d
at both final endpoints, the numerator bound -- are computed at the
requested precision, doubled while an endpoint enclosure straddles
zero, so the stored data re-verify offline, with no Bessel evaluation
needed, and do not depend on the rungs.  One loop, _certified, does the
doubling for midpoints and endpoints alike.

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


# rungs are few (multiples of _RUNG_STEP and their doublings), so their
# constants are built once per process
_rung_constants = lru_cache(maxsize=None)(make_constants)


def _rung_precision(lam: Fraction) -> int:
    bits = max(_RUNG_FLOOR, lam.denominator.bit_length() + _RUNG_GUARD)
    return -(-bits // _RUNG_STEP) * _RUNG_STEP


def _certified(lams, prec: int, constants_at) -> tuple:
    """(d at every lambda in lams, the precision, its Constants).

    d is evaluated at prec with constants_at(prec), and prec is doubled
    while any enclosure contains zero, at most _MAX_ESCALATIONS times;
    so every returned enclosure has a certified sign, and all of them
    are at the one precision returned.
    """
    for _ in range(_MAX_ESCALATIONS + 1):
        constants = constants_at(prec)
        enclosures = [d_lambda(lam, constants, prec) for lam in lams]
        if not any(d.contains_zero() for d in enclosures):
            return enclosures, prec, constants
        prec *= 2
    raise InconclusiveSign(
        f"d enclosure at {', '.join(map(str, lams))} straddles zero up to "
        f"{prec // 2} bits")


def locate_pole(target_width, precision: int = DEFAULT_PREC) -> PoleCertificate:
    """Bisect (5/2, 3) down to target_width with certified signs only.

    Bisection goes on until the bracket is at most target_width wide and
    strictly inside (5/2, 3), as verify() requires; so a target width of
    1/4 or more still takes the steps that move both ends inward.

    Each midpoint sign is certified from the midpoint's rung precision
    on, so the bracket depends on target_width and not on `precision`.
    Once the bracket is narrow enough, d at both endpoints is certified
    from `precision` on, both at one final precision; the endpoints must
    be certified negative and positive, and the numerator is certified
    negative across the bracket at that final precision.  Those
    enclosures, the final precision and the series length are what the
    certificate stores.
    """
    width = as_rat(target_width)
    if width <= 0:
        raise ValueError("target width must be positive")
    precision = int(precision)
    if precision < 53:
        raise ValueError("precision below 53 bits is not supported")
    lo, hi = BRACKET_LO, BRACKET_HI
    while hi - lo > width or lo == BRACKET_LO or hi == BRACKET_HI:
        mid = (lo + hi) / 2
        (d_mid,), _, _ = _certified([mid], _rung_precision(mid), _rung_constants)
        if d_mid.is_negative():
            lo = mid
        else:
            hi = mid
    (d_lo, d_hi), precision, constants = _certified((lo, hi), precision,
                                                    make_constants)
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
