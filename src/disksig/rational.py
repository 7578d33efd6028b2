"""Exact rationals in and out: coercion, "num/den" strings and decimal printing.

as_rat coerces ints, Fractions and "num/den" strings; rat_str writes a
rational as "num/den".  decimal_up, decimal_nearest and decimal_parts
print exact values in decimal on the standard library's decimal
division, which rounds the exact quotient correctly; decimal_digits is
the digit count printed for a given number of bits.  Every layer reads
these from here, so a subcommand that only prints rationals executes
no polynomial code.
"""

from __future__ import annotations

from fractions import Fraction


def as_rat(x) -> Fraction:
    """Coerce ints, Fractions and 'num/den' strings to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def rat_str(q: Fraction) -> str:
    """Serialize a rational as 'num/den' (always with denominator)."""
    return f"{q.numerator}/{q.denominator}"


def decimal_digits(bits: int) -> int:
    """Significant digits printed for a value of `bits` binary digits."""
    return max(5, int(bits * 0.30103) + 3)


def _divide(q: Fraction, digits: int, rounding: str):
    """q correctly rounded to `digits` significant digits, as a Decimal."""
    from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal  # printing only

    ctx = Context(prec=digits, rounding=rounding, Emax=MAX_EMAX, Emin=MIN_EMIN)
    return ctx.divide(Decimal(q.numerator), Decimal(q.denominator))


def decimal_up(q: Fraction) -> str:
    """Decimal string >= q >= 0 with 3 significant digits ("1.00e-3")."""
    if q < 0:
        raise ValueError("radius must be nonnegative")
    return f"{_divide(q, 3, 'ROUND_CEILING'):.2e}" if q else "0"


def decimal_nearest(q: Fraction, digits: int) -> str:
    """q rounded to nearest (ties away from zero) at `digits` significant
    digits, positional, trailing zeros stripped ("4.25", "1.0", "0.0012")."""
    whole, _, frac = f"{_divide(q, digits, 'ROUND_HALF_UP'):f}".partition(".")
    return f"{whole}.{frac.rstrip('0') or '0'}"


def decimal_parts(lo: Fraction, hi: Fraction, digits: int) -> tuple:
    """(mid, rad) decimal strings of [lo, hi]: the midpoint to `digits`
    significant digits, and a radius rounded up so the ball holds [lo, hi]."""
    mid = decimal_nearest((lo + hi) / 2, digits)
    printed = Fraction(mid)
    return mid, decimal_up(max(hi - printed, printed - lo))
