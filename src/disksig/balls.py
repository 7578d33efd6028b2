"""Midpoint-radius interval arithmetic with a strict containment contract.

A RealBall is a pair (mid, rad) of binary floats: mid at a working
precision chosen per call, rad a short nonnegative float.  The contract,
enforced by every operation and relied on by the pole certificates:

    if x is in ball a and y is in ball b, then op(x, y) is in op(a, b).

Midpoints are combined by correctly rounded floating point at the working
precision; the rounding error is absorbed into the radius as one ulp of
the result (an upper bound for the half-ulp nearest-rounding error, with
slack for faithful rounding).  Radius combinations are rounded away from
zero at a fixed short precision.  Balls never underflow or overflow: the
underlying floats carry unbounded exponents, so a zero result of an exact
operation is exactly zero and needs no error term.

The floats themselves are disksig.bigfloat's (sign, man, exp, bc)
tuples on Python integers (mpmath's raw mpf format, and the tuples its
libmp returns), used only through the correctly rounded primitives add,
sub, mul, div, sqrt and the exact ones neg, abs, shift, and printed by
its to_str.  All containment logic, radius bookkeeping, comparisons,
and serialization live here and are exact (endpoint queries return
Fractions, not floats); a printed radius is rounded up to decimal by
rational.decimal_up, which the exact enclosures print with too.

ComplexBall is a rectangle: independent real and imaginary RealBalls.
Complex square roots are principal-branch and refuse rectangles that
touch the closed negative real axis, where no continuous branch exists.
"""

from __future__ import annotations

from fractions import Fraction

from . import DEFAULT_PREC, MAX_DIGITS
from .bigfloat import (from_int, from_man_exp, from_rational, fzero, mpf_abs,
                       mpf_add, mpf_cmp, mpf_div, mpf_mul, mpf_neg, mpf_shift,
                       mpf_sqrt, mpf_sub, pow10, to_str)
from .rational import decimal_digits, decimal_up

RADPREC = 30  # radii are coarse by design; only their upper bound matters


def mpf_to_fraction(x) -> Fraction:
    """Exact rational value of a float tuple (finite values only)."""
    sign, man, exp, _ = x
    if man == 0:
        if x == fzero:
            return Fraction(0)
        raise ValueError("non-finite float has no rational value")
    v = Fraction(man << exp) if exp >= 0 else Fraction(man, 1 << -exp)
    return -v if sign else v


def _ulp(res, prec):
    """Upper bound for the rounding error of a correctly rounded result."""
    if res[1] == 0:
        return fzero  # exact zero result; unbounded exponents, no underflow
    return from_man_exp(1, res[2] + res[3] - prec)


def _decimal_bounds(value, prec: int) -> tuple:
    """(lo, hi), floats of prec bits with lo <= value <= hi, for a finite
    Decimal: its digits times a power of ten rounded outward (pow10)."""
    sign, digits, exponent = value.as_tuple()
    man = from_int(int("".join(map(str, digits))))
    if exponent >= 0:
        lo = mpf_mul(man, pow10(exponent, prec, "d"), prec, "d")
        hi = mpf_mul(man, pow10(exponent, prec, "u"), prec, "u")
    else:
        lo = mpf_div(man, pow10(-exponent, prec, "u"), prec, "d")
        hi = mpf_div(man, pow10(-exponent, prec, "d"), prec, "u")
    return (mpf_neg(hi), mpf_neg(lo)) if sign else (lo, hi)


def _ball_decimal(text):
    """A ball string as a finite Decimal of at most MAX_DIGITS digits."""
    from decimal import Decimal, InvalidOperation  # reading balls only

    try:
        value = Decimal(text) if isinstance(text, str) else None
    except InvalidOperation:
        value = None
    if value is None or not value.is_finite():
        raise ValueError(f"not a decimal: {text!r}")
    if len(value.as_tuple().digits) > MAX_DIGITS:
        raise ValueError(f"more than {MAX_DIGITS} digits: {text!r}")
    return value


def _rup_add(a, b):
    return mpf_add(a, b, RADPREC, "u")


def _rup_mul(a, b):
    return mpf_mul(a, b, RADPREC, "u")


class RealBall:
    """A closed interval [mid - rad, mid + rad] with outward rounding."""

    __slots__ = ("mid", "rad")

    def __init__(self, mid, rad):
        self.mid = mid
        self.rad = rad

    # -- construction -------------------------------------------------------

    @classmethod
    def zero(cls) -> "RealBall":
        return cls(fzero, fzero)

    @classmethod
    def from_int(cls, k: int) -> "RealBall":
        return cls(from_int(k), fzero)

    @classmethod
    def from_rational(cls, q, prec: int = DEFAULT_PREC) -> "RealBall":
        q = Fraction(q)
        den = q.denominator
        if den & (den - 1) == 0 and abs(q.numerator).bit_length() <= prec:
            return cls(from_rational(q.numerator, den, prec, "n"), fzero)
        m = from_rational(q.numerator, den, prec, "n")
        return cls(m, _ulp(m, prec))

    @classmethod
    def from_mid_rad(cls, mid_q, rad_q, prec: int = DEFAULT_PREC) -> "RealBall":
        mid_q, rad_q = Fraction(mid_q), Fraction(rad_q)
        if rad_q < 0:
            raise ValueError("negative radius")
        base = cls.from_rational(mid_q, prec)
        slack = rad_q + abs(mid_q - mpf_to_fraction(base.mid))
        if slack == 0:
            return base
        r = from_rational(slack.numerator, slack.denominator, RADPREC, "u")
        return cls(base.mid, _rup_add(base.rad, r))

    @classmethod
    def from_interval(cls, lo_q, hi_q, prec: int = DEFAULT_PREC) -> "RealBall":
        lo_q, hi_q = Fraction(lo_q), Fraction(hi_q)
        if hi_q < lo_q:
            raise ValueError("empty interval")
        return cls.from_mid_rad((lo_q + hi_q) / 2, (hi_q - lo_q) / 2, prec)

    # -- exact queries -------------------------------------------------------

    def mid_fraction(self) -> Fraction:
        return mpf_to_fraction(self.mid)

    def rad_fraction(self) -> Fraction:
        return mpf_to_fraction(self.rad)

    def lower(self) -> Fraction:
        return self.mid_fraction() - self.rad_fraction()

    def upper(self) -> Fraction:
        return self.mid_fraction() + self.rad_fraction()

    def contains(self, q) -> bool:
        return self.lower() <= Fraction(q) <= self.upper()

    def contains_zero(self) -> bool:
        return not (self.is_negative() or self.is_positive())

    def is_negative(self) -> bool:
        """True when every point of the ball is < 0: mid < -rad, compared
        exactly on the floats, so a ball read with a huge exponent
        (from_json) builds no huge Fraction."""
        return mpf_cmp(self.mid, mpf_neg(self.rad)) < 0

    def is_positive(self) -> bool:
        return mpf_cmp(self.mid, self.rad) > 0

    # -- arithmetic ----------------------------------------------------------

    def add(self, other: "RealBall", prec: int = DEFAULT_PREC) -> "RealBall":
        m = mpf_add(self.mid, other.mid, prec, "n")
        r = _rup_add(_rup_add(self.rad, other.rad), _ulp(m, prec))
        return RealBall(m, r)

    def sub(self, other: "RealBall", prec: int = DEFAULT_PREC) -> "RealBall":
        m = mpf_sub(self.mid, other.mid, prec, "n")
        r = _rup_add(_rup_add(self.rad, other.rad), _ulp(m, prec))
        return RealBall(m, r)

    def neg(self) -> "RealBall":
        return RealBall(mpf_neg(self.mid), self.rad)

    def mul(self, other: "RealBall", prec: int = DEFAULT_PREC) -> "RealBall":
        m = mpf_mul(self.mid, other.mid, prec, "n")
        am, bm = mpf_abs(self.mid), mpf_abs(other.mid)
        r = _rup_add(_rup_mul(am, other.rad), _rup_mul(self.rad, bm))
        r = _rup_add(r, _rup_mul(self.rad, other.rad))
        r = _rup_add(r, _ulp(m, prec))
        return RealBall(m, r)

    def sqr(self, prec: int = DEFAULT_PREC) -> "RealBall":
        return self.mul(self, prec)

    def mul_2exp(self, k: int) -> "RealBall":
        return RealBall(mpf_shift(self.mid, k), mpf_shift(self.rad, k))

    def div(self, other: "RealBall", prec: int = DEFAULT_PREC) -> "RealBall":
        bm = mpf_abs(other.mid)
        if mpf_cmp(bm, other.rad) <= 0:
            raise ZeroDivisionError("divisor ball contains zero")
        m = mpf_div(self.mid, other.mid, prec, "n")
        am = mpf_abs(self.mid)
        # |x/y - m0/mu| <= (ra |mu| + |m0| rb) / (|mu| (|mu| - rb))
        num = _rup_add(_rup_mul(self.rad, bm), _rup_mul(am, other.rad))
        lb = mpf_sub(bm, other.rad, RADPREC, "d")
        den = mpf_mul(bm, lb, RADPREC, "d")
        r = _rup_add(mpf_div(num, den, RADPREC, "u"), _ulp(m, prec))
        return RealBall(m, r)

    def sqrt(self, prec: int = DEFAULT_PREC) -> "RealBall":
        if mpf_cmp(self.mid, self.rad) < 0:
            raise ValueError("sqrt of a ball containing negative values")
        lo = mpf_sub(self.mid, self.rad, prec + 20, "f")
        hi = mpf_add(self.mid, self.rad, prec + 20, "c")
        s_lo = mpf_sqrt(lo, prec, "f")
        s_hi = mpf_sqrt(hi, prec, "c")
        return RealBall._from_mpf_endpoints(s_lo, s_hi, prec)

    @staticmethod
    def _from_mpf_endpoints(lo, hi, prec: int) -> "RealBall":
        m = mpf_shift(mpf_add(lo, hi, prec, "n"), -1)
        r1 = mpf_abs(mpf_sub(m, lo, RADPREC, "u"))
        r2 = mpf_abs(mpf_sub(hi, m, RADPREC, "u"))
        return RealBall(m, r1 if mpf_cmp(r1, r2) >= 0 else r2)

    def hull(self, other: "RealBall", prec: int = DEFAULT_PREC) -> "RealBall":
        lo = min(self.lower(), other.lower())
        hi = max(self.upper(), other.upper())
        return RealBall.from_interval(lo, hi, prec)

    def inflate(self, extra_q) -> "RealBall":
        """Widen the radius by an exact nonnegative rational."""
        extra_q = Fraction(extra_q)
        if extra_q < 0:
            raise ValueError("negative inflation")
        if extra_q == 0:
            return self
        e = from_rational(extra_q.numerator, extra_q.denominator, RADPREC, "u")
        return RealBall(self.mid, _rup_add(self.rad, e))

    # -- presentation --------------------------------------------------------

    def decimal_parts(self) -> tuple:
        """(mid, rad) decimal strings; the printed ball contains self.

        The midpoint string is a rounded decimal, so its printing error is
        measured exactly and pushed into the printed radius, outward.
        """
        mid_str = to_str(self.mid, decimal_digits(self.mid[3]))
        printed = Fraction(mid_str)
        slack = abs(self.mid_fraction() - printed) + self.rad_fraction()
        return mid_str, decimal_up(slack)

    def __str__(self) -> str:
        mid_str, rad_str = self.decimal_parts()
        return f"{mid_str} +/- {rad_str}"

    def __repr__(self) -> str:
        return f"RealBall({self})"

    def to_json(self) -> dict:
        mid_str, rad_str = self.decimal_parts()
        return {"mid": mid_str, "rad": rad_str}

    @classmethod
    def from_json(cls, obj: dict) -> "RealBall":
        """The ball to_json printed, its midpoint at DEFAULT_PREC bits and
        the rounding added to its radius, so it contains the printed one.

        Each string must be a decimal of at most MAX_DIGITS digits (to_json
        prints at most decimal_digits(MAX_PRECISION) = 2469), or ValueError
        is raised.  No power of ten is built exactly: _decimal_bounds
        rounds it outward in O(log |exponent|) products, so a ball of any
        exponent, such as the radius of a long `bessel --terms` tail at a
        tiny point, is read at bounded cost.
        """
        mid, rad = (_ball_decimal(obj[key]) for key in ("mid", "rad"))
        if rad < 0:
            raise ValueError("negative radius")
        # guard bits for the roundings of the power and of the product or
        # quotient, a few units of the last of these bits
        prec = DEFAULT_PREC + 32
        base = cls._from_mpf_endpoints(*_decimal_bounds(mid, prec), DEFAULT_PREC)
        return cls(base.mid, _rup_add(base.rad, _decimal_bounds(rad, prec)[1]))


def _nonneg_part(b: RealBall, prec: int) -> RealBall:
    """Intersect with [0, inf); callers invoke this only when the true
    value is nonnegative for structural reasons, so the result still
    encloses it.  The replacement interval is exactly [0, 2h] with
    h >= upper/2 rounded up, so the lower endpoint cannot dip back
    below zero."""
    if mpf_cmp(b.mid, b.rad) >= 0:  # lower endpoint already >= 0
        return b
    hi = b.upper()
    if hi < 0:
        raise ValueError("enclosure certifies a negative value")
    half = from_rational(hi.numerator, 2 * hi.denominator, prec, "u")
    return RealBall(half, half)


class ComplexBall:
    """A rectangle re + i*im of two RealBalls (box containment model)."""

    __slots__ = ("re", "im")

    def __init__(self, re: RealBall, im: RealBall):
        self.re = re
        self.im = im

    @classmethod
    def from_real(cls, rb: RealBall) -> "ComplexBall":
        return cls(rb, RealBall.zero())

    @classmethod
    def from_rationals(cls, re_q, im_q, prec: int = DEFAULT_PREC) -> "ComplexBall":
        return cls(RealBall.from_rational(re_q, prec),
                   RealBall.from_rational(im_q, prec))

    def add(self, other: "ComplexBall", prec: int = DEFAULT_PREC) -> "ComplexBall":
        return ComplexBall(self.re.add(other.re, prec), self.im.add(other.im, prec))

    def sub(self, other: "ComplexBall", prec: int = DEFAULT_PREC) -> "ComplexBall":
        return ComplexBall(self.re.sub(other.re, prec), self.im.sub(other.im, prec))

    def conj(self) -> "ComplexBall":
        return ComplexBall(self.re, self.im.neg())

    def mul(self, other: "ComplexBall", prec: int = DEFAULT_PREC) -> "ComplexBall":
        ac = self.re.mul(other.re, prec)
        bd = self.im.mul(other.im, prec)
        ad = self.re.mul(other.im, prec)
        bc = self.im.mul(other.re, prec)
        return ComplexBall(ac.sub(bd, prec), ad.add(bc, prec))

    def mul_real(self, rb: RealBall, prec: int = DEFAULT_PREC) -> "ComplexBall":
        return ComplexBall(self.re.mul(rb, prec), self.im.mul(rb, prec))

    def mul_2exp(self, k: int) -> "ComplexBall":
        return ComplexBall(self.re.mul_2exp(k), self.im.mul_2exp(k))

    def abs2(self, prec: int = DEFAULT_PREC) -> RealBall:
        # the true value is a sum of squares, so the enclosure may be
        # intersected with [0, inf) without losing soundness
        return _nonneg_part(self.re.sqr(prec).add(self.im.sqr(prec), prec),
                            prec)

    def sqrt(self, prec: int = DEFAULT_PREC) -> "ComplexBall":
        """Principal square root; the box must avoid the closed negative axis.

        With u = Re, v = Im: s = sqrt((|w| + u)/2), t = v/(2s).  Both are
        inclusion-monotone expressions in (u, v), so interval evaluation
        encloses the pointwise principal root over the whole box.
        """
        off_axis = (self.re.is_positive()
                    or self.im.is_positive() or self.im.is_negative())
        if not off_axis:
            raise ValueError("box meets the closed negative real axis; "
                             "no continuous square root branch")
        mag = self.abs2(prec).sqrt(prec)
        # |w| + u >= 0 pointwise, so the clamp below is sound
        s2 = _nonneg_part(mag.add(self.re, prec).mul_2exp(-1), prec)
        s = s2.sqrt(prec)
        t = self.im.div(s.mul_2exp(1), prec)
        return ComplexBall(s, t)

    def contains(self, re_q, im_q) -> bool:
        return self.re.contains(re_q) and self.im.contains(im_q)

    def __str__(self) -> str:
        return f"({self.re}) + ({self.im})*i"

    def __repr__(self) -> str:
        return f"ComplexBall({self})"

    def to_json(self) -> dict:
        return {"re": self.re.to_json(), "im": self.im.to_json()}
