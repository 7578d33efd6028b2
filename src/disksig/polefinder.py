"""Certified localization of the pole of the developed generating series.

d(lambda) is continuous, certified negative at 2.5 and positive at 3, so
it has a zero in between (intermediate value theorem); the closed form
divides by d, and the series coefficients grow like the reciprocal of
that zero.  The bracket comes from exactseries.exact_bracket: bisection
on exact signs of d, each the sign of E (d(lambda) = sqrt(7) lambda
E(lambda^2)) read from exactseries.enclose at the point once its
interval excludes zero, so no ball is evaluated at a midpoint and the
bracket depends on the target width alone.  This module certifies that
bracket on balls.  The enclosures stored in the PoleCertificate -- d at
both final endpoints, the numerator bound -- are ball values computed
at the requested precision, doubled while an endpoint enclosure
straddles zero and the doubled precision stays within MAX_PRECISION
(locate_pole), so the stored data re-verify offline with no Bessel
evaluation; they also re-certify the exact route's endpoint
signs on the ball route, and the two must agree.  PoleCertificate.verify
re-derives those exact signs from the stored bracket, so balls copied
from another bracket do not pass.  A certificate read from JSON costs
bounded work: from_json reads its rationals through rational.parse_rat,
which refuses a numerator or denominator past MAX_DIGITS digits, and its
balls through RealBall.from_json, which encloses a decimal of any
exponent in O(log |exponent|) products; verify compares those balls'
floats with zero directly and reports a stored precision outside
MIN_PRECISION..MAX_PRECISION as a failure line, evaluating no ball at
it.

The companion check, verify_numerator_nonvanishing, certifies that the
numerator of C at r = 0 stays away from zero across a bracket, by
evaluating it with the whole sub-interval as a single ball argument and
subdividing adaptively until every piece is certified.  Together the two
facts prove the bracketed zero of d is a genuine pole of C at r = 0.

The bracket, its bounds and the sign exceptions live in exactseries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce

from . import DEFAULT_PREC, MAX_PRECISION
from .balls import RealBall
from .bessel import (Constants, d_lambda, make_constants, numerator_im,
                     series_terms)
from .exactseries import (BRACKET_HI, BRACKET_LO, InconclusiveSign,
                          NoSignChange, _series_sign, exact_bracket)
from .rational import as_rat, rat_str

_MAX_SUBDIVISIONS = 64  # splits before verify_numerator_nonvanishing gives up


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
        """Re-check every certificate invariant; returns failure strings.

        A bracket inside (5/2, 3) must hold the zero: E(lo^2) < 0 < E(hi^2)
        by the exact sign of E, since d(lambda) = sqrt(7) lambda E(lambda^2).
        The precision must be one make_constants accepts (53..8192 bits;
        its refusal is the failure line, so an out-of-range precision
        costs no ball work), and series_terms the length
        bessel.series_terms selects at bracket_hi at that precision.
        """
        failures = []
        if not BRACKET_LO < self.bracket_lo < self.bracket_hi < BRACKET_HI:
            failures.append("bracket not strictly inside (5/2, 3)")
        else:
            for lam, sign, end in ((self.bracket_lo, -1, "lower endpoint not negative"),
                                   (self.bracket_hi, 1, "upper endpoint not positive")):
                try:
                    if _series_sign(lam * lam)[0] != sign:
                        failures.append(f"exact sign of d at {end}")
                except (ValueError, InconclusiveSign) as exc:
                    failures.append(f"exact sign of d at {end}: {exc}")
        if self.bracket_hi - self.bracket_lo > self.target_width:
            failures.append("bracket wider than target")
        if not self.d_lo.is_negative():
            failures.append("d at lower endpoint not certified negative")
        if not self.d_hi.is_positive():
            failures.append("d at upper endpoint not certified positive")
        if not self.numerator_bound.is_negative():
            failures.append("numerator bound not certified negative")
        try:
            constants = make_constants(self.precision)
        except ValueError as exc:
            failures.append(str(exc))
        else:
            if self.series_terms != series_terms(self.bracket_hi, constants):
                failures.append("series_terms differs from the length selected at bracket_hi")
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
        for key in ("precision", "series_terms"):  # a bool, float or string is refused
            if type(obj[key]) is not int:
                raise ValueError(f"{key} must be a JSON integer, not {obj[key]!r}")
        return cls(
            bracket_lo=lo,
            bracket_hi=hi,
            d_lo=RealBall.from_json(obj["d_lo"]),
            d_hi=RealBall.from_json(obj["d_hi"]),
            numerator_bound=RealBall.from_json(obj["numerator_bound"]),
            precision=obj["precision"],
            series_terms=obj["series_terms"],
            target_width=as_rat(obj["target_width"]),
        )


def locate_pole(target_width, precision: int = DEFAULT_PREC) -> PoleCertificate:
    """Certificate for the bracket exact_bracket(target_width).

    `precision` must lie in MIN_PRECISION..MAX_PRECISION (make_constants
    refuses it with ValueError before the bisection).  d at both
    endpoints is evaluated on balls at `precision`, doubled while either
    enclosure contains zero and the doubled precision is at most
    MAX_PRECISION (then InconclusiveSign), so both share one final
    precision; the endpoints must be certified negative and positive
    (NoSignChange if the ball route disagrees with the exact one), and
    the numerator is certified negative across the bracket at that final
    precision.  Those enclosures, the final precision and the series
    length are what the certificate stores; `search` records the exact signs, the most
    series terms one needed, the d evaluations per precision and the
    numerator pieces.
    """
    width = as_rat(target_width)
    # the first rung refuses a precision out of range before the bisection
    constants = make_constants(int(precision))
    lo, hi, signs, max_terms = exact_bracket(width)
    # the requested precision, doubled while it stays at most MAX_PRECISION
    tried = [constants.prec << k
             for k in range((MAX_PRECISION // constants.prec).bit_length())]
    for final in tried:
        if final > constants.prec:
            constants = make_constants(final)
        d_lo = d_lambda(lo, constants)
        d_hi = d_lambda(hi, constants)
        if not (d_lo.contains_zero() or d_hi.contains_zero()):
            break
    else:
        raise InconclusiveSign(
            f"d enclosure at {lo}, {hi} straddles zero up to {final} bits")
    if not (d_lo.is_negative() and d_hi.is_positive()):
        raise NoSignChange(f"expected d < 0 at {lo} and d > 0 at {hi}")
    num, pieces = verify_numerator_nonvanishing(lo, hi, constants)
    return PoleCertificate(
        bracket_lo=lo, bracket_hi=hi, d_lo=d_lo, d_hi=d_hi,
        numerator_bound=num, precision=final,
        series_terms=series_terms(hi, constants),
        target_width=width,
        search={"exact_signs": signs, "max_terms": max_terms,
                "d_evaluations": {str(prec): 2 for prec in tried
                                  if prec <= final},
                "numerator_pieces": pieces})


def verify_numerator_nonvanishing(lo, hi, constants: Constants | None = None,
                                  target=0) -> tuple:
    """(hull, pieces): the C-numerator enclosed over the whole bracket.

    Each piece of an adaptive subdivision of [lo, hi] is evaluated at
    constants.prec (make_constants() by default) as a single interval
    ball; pieces whose upper bound is not below target are split, at most
    _MAX_SUBDIVISIONS times.  hull is the hull of the certified pieces,
    and pieces counts every evaluated piece, certified or split.
    """
    lo, hi = as_rat(lo), as_rat(hi)
    if not BRACKET_LO <= lo <= hi <= BRACKET_HI:
        raise ValueError("bracket must lie inside [5/2, 3]")
    target = as_rat(target)
    constants = constants or make_constants()
    prec = constants.prec
    pending = [(lo, hi)]
    certified: list = []
    splits = 0
    while pending:
        a, b = pending.pop(0)
        lam = RealBall.from_interval(a, b, prec)
        enc = numerator_im(lam, constants)
        if enc.upper() < target:
            certified.append(enc)
            continue
        if splits >= _MAX_SUBDIVISIONS:
            raise InconclusiveSign(
                "cannot certify: subdivision budget exhausted on "
                f"[{a}, {b}] (enclosure upper {float(enc.upper()):.6g}); "
                "raise the precision")
        splits += 1
        m = (a + b) / 2
        pending.append((a, m))
        pending.append((m, b))
    hull = reduce(lambda hull, enc: hull.hull(enc, prec), certified)
    return hull, len(certified) + splits
