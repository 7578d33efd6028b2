"""Exact rationals in and out: coercion, parsing and decimal printing.

parse_rat reads a rational from "num/den" or an exact decimal such as
"2.82" or "1e-6", and refuses one whose numerator or denominator would
pass MAX_DIGITS digits (too_many_digits), deciding a long exponent
before it builds the integer, and refusing a value that is not a str;
it is the one reader of text rationals: as_rat on strings and the
command line's options read through it, so a file or an option costs
bounded work (a ball's decimal strings are enclosed, not read exactly,
by balls.RealBall.from_json).  as_rat coerces ints, Fractions and such
strings; rat_str writes a rational as "num/den".  decimal_up,
decimal_nearest and decimal_parts print exact values in decimal,
rounding the exact quotient correctly in integers (_divide), from short
bounds where they decide it; decimal_digits is the digit count
printed for a given number of bits.  Every layer reads these from here,
so a subcommand that only prints rationals executes no polynomial code.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import MAX_DIGITS


def too_many_digits(q: Fraction) -> bool:
    """Whether q's numerator or denominator has more than MAX_DIGITS digits."""
    n = max(abs(q.numerator), q.denominator)
    # 2^(3k) < 10^k, so the power of ten is built only for a huge n
    return n.bit_length() > 3 * MAX_DIGITS and n >= 10 ** MAX_DIGITS


def parse_rat(text: str) -> Fraction:
    """Rational from "num/den" or an exact decimal like "2.82" / "1e-6".

    Raises ValueError for malformed text, for a decimal exponent past
    MAX_DIGITS plus the number of digits (the numerator or denominator
    would pass MAX_DIGITS digits anyway), refused before any power of
    ten is built, and for a numerator or denominator of more than
    MAX_DIGITS digits, and for a value that is not a str.
    """
    if not isinstance(text, str):
        raise ValueError(f"not a rational: {text!r}")
    try:
        if "/" in text:
            q = Fraction(text)
        else:
            from decimal import Decimal  # decimal text only

            value = Decimal(text)
            _, digits, exponent = value.as_tuple()
            # beyond this the numerator or denominator passes MAX_DIGITS
            # digits anyway; refusing first never builds a huge integer
            too_long = value.is_finite() and abs(exponent) > MAX_DIGITS + len(digits)
            q = None if too_long else Fraction(value)
    except (ValueError, ArithmeticError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc
    if q is None:
        raise ValueError(f"exponent out of range: {text!r}")
    if too_many_digits(q):
        raise ValueError(
            f"more than {MAX_DIGITS} digits in numerator or denominator: {text!r}")
    return q


def as_rat(x) -> Fraction:
    """Coerce ints, Fractions and "num/den" or decimal strings (parse_rat)
    to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rat(x)
    raise TypeError(f"not an exact rational: {x!r}")


def rat_str(q: Fraction) -> str:
    """Serialize a rational as 'num/den' (always with denominator)."""
    return f"{q.numerator}/{q.denominator}"


def decimal_digits(bits: int) -> int:
    """Significant digits printed for a value of `bits` binary digits."""
    return max(5, int(bits * 0.30103) + 3)


def _cut(lo: int, hi: int, exp: int, bits: int) -> tuple:
    """(lo', hi', exp') with lo' 2^exp' <= lo 2^exp and hi 2^exp <=
    hi' 2^exp', hi' of at most `bits` bits (lo <= hi, both >= 0)."""
    drop = max(hi.bit_length() - bits, 0)
    return lo >> drop, -(-hi >> drop), exp + drop


def _pow5_bounds(k: int, bits: int) -> tuple:
    """(lo, hi, exp) with lo 2^exp <= 5^k <= hi 2^exp, by squaring with
    every product cut to `bits` bits, lo down and hi up."""
    lo = hi = 1
    exp = 0
    base = (5, 5, 0)
    while k:
        if k & 1:
            lo, hi, exp = _cut(lo * base[0], hi * base[1], exp + base[2], bits)
        k >>= 1
        if k:
            base = _cut(base[0] ** 2, base[1] ** 2, 2 * base[2], bits)
    return lo, hi, exp


def _floor_rest(num: int, den: int, exp: int) -> tuple:
    """(floor(x), whether x is not an integer) for x = num 2^exp / den."""
    m, rest = divmod(num << exp, den) if exp >= 0 else divmod(num, den << -exp)
    return m, rest != 0


def _round_digits(m: int, rest: bool, digits: int, rounding: str) -> tuple:
    """(n, e): x >= 10^digits, of floor m and fraction nonzero when rest,
    rounded to n 10^e with 10^(digits - 1) <= n < 10^digits."""
    extra = len(str(m)) - digits
    n, dropped = divmod(m, 10 ** extra)
    if (2 * dropped >= 10 ** extra if rounding == "ROUND_HALF_UP"
            else dropped or rest):
        n += 1
    if n == 10 ** digits:  # carry out of the leading digit
        n, extra = n // 10, extra + 1
    return n, extra


def _round_bracketed(num: int, den: int, t: int, digits: int, rounding: str):
    """_round_digits of x = num 10^t / den from two bounds of x, its
    operands and 5^|t| cut to 4 digits + 64 bits, or None when the two
    round apart."""
    bits = 4 * digits + 64
    plo, phi, pexp = _pow5_bounds(abs(t), bits)
    nlo, nhi, nexp = _cut(num, num, 0, bits)
    dlo, dhi, dexp = _cut(den, den, 0, bits)
    if t >= 0:  # x = num 5^t 2^t / den
        nlo, nhi, nexp = nlo * plo, nhi * phi, nexp + pexp + t
    else:  # x = num / (den 5^|t| 2^|t|)
        dlo, dhi, dexp = dlo * plo, dhi * phi, dexp + pexp - t
    low = _round_digits(*_floor_rest(nlo, dhi, nexp - dexp), digits, rounding)
    high = _round_digits(*_floor_rest(nhi, dlo, nexp - dexp), digits, rounding)
    return low if low == high else None


def _divide(q: Fraction, digits: int, rounding: str):
    """q rounded to `digits` significant digits, as a Decimal: up
    (rounding "ROUND_CEILING", for q >= 0) or to nearest, ties away from
    zero ("ROUND_HALF_UP").

    In integers: |q| > 2^(l - 1), l the bit length of its numerator less
    that of its denominator, picks t with x = |q| 10^t >= 10^digits, and
    x rounded at its `digits` leading digits gives the result.  Rounding
    is monotone in x, so where 10^|t| is longer than the digits need, x
    is first bracketed (_round_bracketed): if both ends round alike, so
    does x, and only an x that close to a digit or rounding boundary
    builds 10^|t|.  A radius of 2^-k thus costs O(log k) short products,
    not a power of five of 0.7 k bits.
    """
    from decimal import Decimal  # printing only

    if not q:
        return Decimal(0)
    num, den = abs(q.numerator), q.denominator
    # 10^t >= 10^digits 2^(1 - l), with a margin of one for the float
    t = digits + 2 + math.ceil((den.bit_length() - num.bit_length()) * math.log10(2))
    rounded = None
    if abs(t) > 4 * digits + 64:
        rounded = _round_bracketed(num, den, t, digits, rounding)
    if rounded is None:
        power = 5 ** abs(t) << abs(t)  # 10^|t|; the 2^|t| costs one shift
        m, rest = divmod(num * power, den) if t >= 0 else divmod(num, den * power)
        rounded = _round_digits(m, rest != 0, digits, rounding)
    n, extra = rounded
    return Decimal((q < 0, tuple(map(int, str(n))), extra - t))


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
