"""Binary floating point on Python integers, correctly rounded.

A float is a tuple (sign, man, exp, bc): the value (-1)^sign man 2^exp,
with man odd (or the zero (0, 0, 0, 0)) and bc its bit count.  This is
the raw mpf format of mpmath's libmp, and each function here returns
the tuple libmp's function of the same name returns, so balls built or
compared as such tuples are the same balls.  Exponents are unbounded
and only finite values exist: nothing overflows, underflows or is NaN.

Rounding modes are libmp's one-letter names: "n" to nearest (ties to
even), "f" toward -inf, "c" toward +inf, "d" toward zero, "u" away from
zero.  add, sub, mul, div and sqrt round at a precision of `prec` bits
(add, sub and mul are exact when prec is 0); neg, abs and shift are
exact.  The results are correctly rounded, with one exception that
libmp shares: an addend more than prec + 4 bits below the other and
more than 100 exponents apart from it is replaced by one unit prec + 4
bits below the other's top bit, which can move the rounding only when
the other has more than prec bits.  to_str prints at `dps` digits as
libmp's to_str lays a float out.
"""

from __future__ import annotations

import math

fzero = (0, 0, 0, 0)
_ONE = (0, 1, 0, 1)

# floor(ln 2 2^256) and floor(ln 10 2^254): to_str picks the decade of
# a float with a huge exponent from ln 2 and ln 10 rounded down, as libmp
# does, at fewer bits than this
_LN2 = 0xB17217F7D1CF79ABC9E3B39803F2F6AF40F343267298B62D8A0D175B8BAAFA2B
_LN10 = 0x935D8DDDAAA8AC16EA56D62B82D30A28E28FECF9DA5DF90E83C61E8201F02D72
_LOG2_10 = math.log(10, 2)


def _truncates(sign: int, rnd: str) -> bool:
    """Whether rounding in direction rnd cuts a magnitude down (floor)
    rather than up (ceiling); "n" is neither."""
    return rnd == "d" or rnd == ("c" if sign else "f")


def _normalize(sign: int, man: int, exp: int, prec: int, rnd: str):
    """The float (-1)^sign man 2^exp, man >= 0, rounded to prec bits
    (exact when prec is 0), its trailing zero bits stripped."""
    if not man:
        return fzero
    cut = man.bit_length() - prec
    if prec and cut > 0:
        if rnd == "n":
            head = man >> (cut - 1)  # the kept bits and the first cut one
            up = head & 1 and (head & 2 or man & ((1 << (cut - 1)) - 1))
            man = (head >> 1) + 1 if up else head >> 1
        elif _truncates(sign, rnd):
            man >>= cut
        else:
            man = -(-man >> cut)
        exp += cut
    zeros = (man & -man).bit_length() - 1
    man >>= zeros
    return sign, man, exp + zeros, man.bit_length()


def from_man_exp(man: int, exp: int):
    """man 2^exp, exactly, for a signed integer man."""
    return _normalize(int(man < 0), abs(man), exp, 0, "d")


def from_int(n: int):
    return from_man_exp(n, 0)


def from_rational(p: int, q: int, prec: int, rnd: str):
    """p/q (q != 0) rounded to prec bits."""
    return mpf_div(from_int(p), from_int(q), prec, rnd)


def mpf_neg(s):
    sign, man, exp, bc = s
    return (1 - sign, man, exp, bc) if man else s


def mpf_abs(s):
    sign, man, exp, bc = s
    return (0, man, exp, bc) if sign else s


def mpf_pos(s, prec: int, rnd: str):
    """s rounded to prec bits (s itself when prec is 0)."""
    sign, man, exp, _ = s
    return _normalize(sign, man, exp, prec, rnd) if prec else s


def mpf_shift(s, n: int):
    """s 2^n, exactly."""
    sign, man, exp, bc = s
    return (sign, man, exp + n, bc) if man else s


def mpf_cmp(s, t) -> int:
    """-1, 0 or 1 as s <, = or > t; no exponent gap is ever shifted out."""
    ssign, sman, sexp, sbc = s
    tsign, tman, texp, tbc = t
    ss = (-1 if ssign else 1) if sman else 0
    ts = (-1 if tsign else 1) if tman else 0
    if ss != ts or not ss:
        return (ss > ts) - (ss < ts)
    stop, ttop = sexp + sbc, texp + tbc
    if stop != ttop:  # magnitudes with different top bits
        return ss if stop > ttop else -ss
    low = min(sexp, texp)  # the gap is below the bit counts
    a, b = sman << (sexp - low), tman << (texp - low)
    return ss * ((a > b) - (a < b))


def mpf_add(s, t, prec: int = 0, rnd: str = "d"):
    """s + t rounded to prec bits (exact when prec is 0)."""
    if s[2] < t[2]:
        s, t = t, s  # s has the larger exponent
    ssign, sman, sexp, sbc = s
    tsign, tman, texp, tbc = t
    if not tman:
        return mpf_pos(s, prec, rnd)
    if not sman:
        return mpf_pos(t, prec, rnd)
    offset = sexp - texp
    if offset > 100 and prec and sbc + offset - tbc > prec + 4:
        # t only perturbs s below every bit the rounding reads
        man = (sman << (prec + 4)) + (1 if ssign == tsign else -1)
        return _normalize(ssign, man, sexp - prec - 4, prec, rnd)
    man = -(sman << offset) if ssign else sman << offset
    man = man - tman if tsign else man + tman
    return _normalize(int(man < 0), abs(man), texp, prec, rnd)


def mpf_sub(s, t, prec: int, rnd: str):
    return mpf_add(s, mpf_neg(t), prec, rnd)


def mpf_mul(s, t, prec: int, rnd: str):
    """s t rounded to prec bits (exact when prec is 0)."""
    ssign, sman, sexp, _ = s
    tsign, tman, texp, _ = t
    return _normalize(ssign ^ tsign, sman * tman, sexp + texp, prec, rnd)


def mpf_div(s, t, prec: int, rnd: str):
    """s / t rounded to prec bits; ZeroDivisionError when t is zero."""
    ssign, sman, sexp, sbc = s
    tsign, tman, texp, tbc = t
    if not tman:
        raise ZeroDivisionError
    sign = ssign ^ tsign
    if tman == 1:
        return _normalize(sign, sman, sexp - texp, prec, rnd)
    # the quotient to at least prec + 4 bits, and a sticky bit below them
    extra = max(prec - sbc + tbc + 5, 5)
    quot, rem = divmod(sman << extra, tman)
    if rem:
        quot, extra = (quot << 1) + 1, extra + 1
    return _normalize(sign, quot, sexp - texp - extra, prec, rnd)


def mpf_sqrt(s, prec: int, rnd: str):
    """sqrt(s) rounded to prec bits; ValueError when s is negative."""
    sign, man, exp, bc = s
    if sign:
        raise ValueError("square root of a negative number")
    if not man:
        return s
    if exp & 1:
        man, exp, bc = man << 1, exp - 1, bc + 1
    shift = max(4, 2 * prec - bc + 4)
    shift += shift & 1
    root = math.isqrt(man << shift)
    if rnd not in "fd" and root * root != man << shift:
        root, shift = (root << 1) + 1, shift + 2  # a sticky bit
    return _normalize(0, root, (exp - shift) // 2, prec, rnd)


def pow10(n: int, prec: int, rnd: str):
    """10^n at prec bits, in O(log |n|) products, as libmp's
    mpf_pow_int(10, n) takes it: exact up to n = 333 and then by squaring
    at prec + 4 bitlen(n) + 4 bits, each product cut in the direction of
    rnd (down for "n"), so for "d" and "u" it lies on that side of 10^n;
    for n < 0 the reciprocal of 10^-n taken at prec + 5 bits the other
    way."""
    if n < 0:
        other = {"d": "u", "u": "d", "f": "c", "c": "f", "n": "n"}[rnd]
        return mpf_div(_ONE, pow10(-n, prec + 5, other), prec, rnd)
    if n <= 333:
        return _normalize(0, 5 ** n, n, prec, rnd)
    work = prec + 4 * n.bit_length() + 4
    down = rnd == "n" or _truncates(0, rnd)
    pman, pexp, man, exp = 1, 0, 5, 1
    while True:
        if n & 1:
            pman, pexp = pman * man, pexp + exp
            cut = pman.bit_length() - work
            if cut > 0:
                pman = pman >> cut if down else -(-pman >> cut)
                pexp += cut
            n -= 1
            if not n:
                return _normalize(0, pman, pexp, prec, rnd)
        man, exp = man * man, exp + exp
        cut = man.bit_length() - work
        if cut > 0:
            man = man >> cut if down else -(-man >> cut)
            exp += cut
        n //= 2


def _digits_exp(s, dps: int) -> tuple:
    """(sign, digits, exponent) of |s| > 0 truncated to at least dps
    decimal digits, the leading one worth 10^exponent, as libmp's
    to_digits_exp: exact unless the top bit of s lies more than 3500
    binary places from the point, where s is first divided by 10^b
    (b from ln 2 / ln 10) rounded at about 3.3 dps + 10 bits."""
    sign, man, exp, bc = s
    bits = int(dps * _LOG2_10) + 10
    exponent = 0
    if abs(exp + bc) > 3500:
        eprec = abs(exp).bit_length() + 5  # past 256 a negative shift raises
        # the quotient of exp ln 2 by ln 10, each rounded down to eprec
        # bits, truncated: rounding it to eprec bits first, as libmp
        # does, moves no integer part
        num = exp * (_LN2 >> (256 - eprec))
        den = (_LN10 >> (256 - eprec)) << 2
        exponent = num // den if num >= 0 else -(-num // den)
        _, man, exp, bc = mpf_div((0, man, exp, bc), pow10(exponent, bits, "d"),
                                  bits, "d")
    fixprec = max(bits - exp - bc, 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    shift = exp + fixprec
    fixed = man << shift if shift >= 0 else man >> -shift
    digits = str(fixed * 10 ** fixdps >> fixprec)
    return ("-" if sign else ""), digits, exponent + len(digits) - fixdps - 1


def to_str(s, dps: int) -> str:
    """s at dps >= 1 significant digits, rounded half up from its digits
    (_digits_exp), positional when its decade is in (min(-(dps // 3), -5),
    dps) and "d.ddde-N" otherwise, trailing zeros stripped: libmp's to_str."""
    if not s[1]:
        return "0.0"
    sign, digits, exponent = _digits_exp(s, dps + 3)
    if len(digits) > dps and digits[dps] in "56789":
        kept = int(digits[:dps]) + 1
        if kept == 10 ** dps:
            kept //= 10
            exponent += 1
        digits = str(kept)
    else:
        digits = digits[:dps]
    split = 1
    if min(-(dps // 3), -5) < exponent < dps:
        if exponent < 0:
            digits = "0" * -exponent + digits
        else:
            split = exponent + 1
            digits = digits.ljust(split, "0")
        exponent = 0
    digits = (digits[:split] + "." + digits[split:]).rstrip("0")
    if digits.endswith("."):
        digits += "0"
    if exponent == 0:
        return sign + digits
    return f"{sign}{digits}e{'+' if exponent > 0 else ''}{exponent}"
