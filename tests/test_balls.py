"""Ball arithmetic soundness: every operation encloses the exact result.

The oracle is exact rational arithmetic on sampled member points: if
x is in [a] and y is in [b], then x op y must lie in [a] op [b].  All
membership queries go through the exact Fraction endpoints, so these
tests involve no floating comparison at all.
"""

import time
from decimal import Decimal
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from mpmath import libmp
from mpmath.libmp import from_man_exp, from_rational, fzero, mpf_neg

from disksig import MAX_DIGITS
from disksig import bigfloat
from disksig.balls import ComplexBall, RealBall
from disksig.bessel import bessel_j
from disksig.rational import (_divide, decimal_digits, decimal_parts, decimal_up,
                              parse_rat, rat_str)
from reference import divide_in_context

mids = st.fractions(min_value=-100, max_value=100, max_denominator=10 ** 6)
rads = st.fractions(min_value=0, max_value=2, max_denominator=10 ** 4)
units = st.fractions(min_value=0, max_value=1, max_denominator=64)


def member(ball: RealBall, t: F) -> F:
    """The point lo + t (hi - lo), a member for t in [0, 1]."""
    lo, hi = ball.lower(), ball.upper()
    return lo + t * (hi - lo)


@given(mids, rads, mids, rads, units, units)
@settings(max_examples=150, deadline=None)
def test_add_sub_mul_containment(ma, ra, mb, rb, ta, tb):
    a = RealBall.from_mid_rad(ma, ra)
    b = RealBall.from_mid_rad(mb, rb)
    x = member(a, ta)
    y = member(b, tb)
    assert a.add(b).contains(x + y)
    assert a.sub(b).contains(x - y)
    assert a.mul(b).contains(x * y)
    assert a.sqr().contains(x * x)
    assert a.neg().contains(-x)


@given(mids, rads, mids, rads, units, units)
@settings(max_examples=150, deadline=None)
def test_div_containment_or_guard(ma, ra, mb, rb, ta, tb):
    a = RealBall.from_mid_rad(ma, ra)
    b = RealBall.from_mid_rad(mb, rb)
    if b.contains_zero():
        with pytest.raises(ZeroDivisionError):
            a.div(b)
        return
    x = member(a, ta)
    y = member(b, tb)
    assert a.div(b).contains(x / y)


@given(mids, rads, units)
@settings(max_examples=150, deadline=None)
def test_sqrt_containment_exact(ma, ra, t):
    a = RealBall.from_mid_rad(abs(ma), ra)
    assume(a.lower() >= 0)
    s = a.sqrt()
    q = member(a, t)
    # sqrt(q) in [s] iff q <= upper^2 and (lower <= 0 or lower^2 <= q),
    # checked exactly; outward rounding may push lower a hair below 0
    lo, hi = s.lower(), s.upper()
    assert hi >= 0
    assert q <= hi ** 2
    assert lo <= 0 or lo ** 2 <= q


@given(mids, rads, st.fractions(min_value=0, max_value=1,
                                max_denominator=100))
@settings(max_examples=150, deadline=None)
def test_widening_inputs_never_shrinks_output(ma, ra, extra):
    a = RealBall.from_mid_rad(ma, ra)
    b = RealBall.from_rational(F(7, 3))
    wider = a.inflate(extra)
    assert wider.lower() <= a.lower() and a.upper() <= wider.upper()
    narrow = a.mul(b)
    wide = wider.mul(b)
    assert wide.lower() <= narrow.lower()
    assert narrow.upper() <= wide.upper()


@given(mids, rads, units)
@settings(max_examples=150, deadline=None)
def test_serialization_round_trip_is_outward(ma, ra, t):
    a = RealBall.from_mid_rad(ma, ra)
    q = member(a, t)
    back = RealBall.from_json(a.to_json())
    assert back.contains(q)


def test_exact_construction_and_queries():
    a = RealBall.from_rational(F(1, 3))
    assert a.rad_fraction() > 0  # 1/3 is not dyadic
    assert a.contains(F(1, 3))
    b = RealBall.from_rational(F(3, 8))
    assert b.rad_fraction() == 0  # dyadic stays exact
    assert b.mid_fraction() == F(3, 8)
    c = RealBall.from_interval(F(-1, 3), F(2, 5))
    assert c.contains(F(-1, 3)) and c.contains(F(2, 5)) and c.contains(0)


def test_sign_predicates():
    neg = RealBall.from_interval(F(-3), F(-1, 7))
    pos = RealBall.from_interval(F(1, 7), F(3))
    mixed = RealBall.from_interval(F(-1), F(1))
    assert neg.is_negative() and not neg.is_positive()
    assert pos.is_positive() and not pos.is_negative()
    assert not mixed.is_negative() and not mixed.is_positive()
    assert mixed.contains_zero()


@pytest.mark.parametrize("mid,rad,want", [
    ((0, 0), (0, 0), True),  # the point 0
    ((3, -2), (0, 0), False),  # rad 0 off zero, either side
    ((-3, -2), (0, 0), False),
    ((3, -2), (3, -2), True),  # zero on the boundary: mid = +-rad
    ((-3, -2), (3, -2), True),
    ((3, -2), (1, -1), False),
    ((-3, -2), (1, -1), False),
])
def test_contains_zero_at_the_sign_edges(mid, rad, want):
    def mpf(man_exp):
        man, exp = man_exp
        value = from_man_exp(abs(man), exp) if man else fzero
        return mpf_neg(value) if man < 0 else value

    ball = RealBall(mpf(mid), mpf(rad))
    assert ball.contains_zero() is want
    assert (ball.lower() <= 0 <= ball.upper()) is want
    assert ball.contains_zero() is not (ball.is_negative() or ball.is_positive())


def test_contains_zero_builds_no_rational_at_huge_exponents():
    # endpoints of a billion bits would take far longer than the bound
    start = time.perf_counter()
    for e in (10 ** 9, -10 ** 9):
        far = from_man_exp(5, e)
        assert RealBall(far, from_man_exp(5, e)).contains_zero()  # mid = rad
        assert not RealBall(far, from_man_exp(3, e)).contains_zero()
        assert RealBall(mpf_neg(far), from_man_exp(1, e + 3)).contains_zero()
    one, huge, tiny = from_man_exp(1, 0), from_man_exp(1, 10 ** 9), from_man_exp(1, -10 ** 9)
    assert not RealBall(one, tiny).contains_zero()
    assert RealBall(tiny, one).contains_zero()
    assert not RealBall(mpf_neg(huge), one).contains_zero()
    assert RealBall(one, huge).contains_zero()
    assert time.perf_counter() - start < 0.1


def test_sqrt_rejects_possibly_negative():
    with pytest.raises(ValueError):
        RealBall.from_interval(F(-1, 10), F(1)).sqrt()


def test_hull_contains_both():
    a = RealBall.from_interval(F(-2), F(-1))
    b = RealBall.from_interval(F(3), F(4))
    h = a.hull(b)
    for q in (F(-2), F(-1), F(0), F(3), F(4)):
        assert h.contains(q)


complex_parts = st.fractions(min_value=-20, max_value=20,
                             max_denominator=1000)


@given(complex_parts, rads, complex_parts, rads,
       complex_parts, rads, complex_parts, rads, units, units, units, units)
@settings(max_examples=150, deadline=None)
def test_complex_mul_containment(mar, rar, mai, rai, mbr, rbr, mbi, rbi,
                                 tar, tai, tbr, tbi):
    a = ComplexBall(RealBall.from_mid_rad(mar, rar),
                    RealBall.from_mid_rad(mai, rai))
    b = ComplexBall(RealBall.from_mid_rad(mbr, rbr),
                    RealBall.from_mid_rad(mbi, rbi))
    xr, xi = member(a.re, tar), member(a.im, tai)
    yr, yi = member(b.re, tbr), member(b.im, tbi)
    prod = a.mul(b)
    assert prod.contains(xr * yr - xi * yi, xr * yi + xi * yr)
    assert a.conj().contains(xr, -xi)
    assert a.abs2().contains(xr * xr + xi * xi)


@given(complex_parts, rads, complex_parts, rads, units, units)
@settings(max_examples=150, deadline=None)
def test_complex_sqrt_squares_back(mar, rar, mai, rai, tr, ti):
    a = ComplexBall(RealBall.from_mid_rad(mar, rar),
                    RealBall.from_mid_rad(mai, rai))
    ok_box = (a.re.is_positive() or a.im.is_positive()
              or a.im.is_negative())
    if not ok_box:
        with pytest.raises(ValueError):
            a.sqrt()
        return
    try:
        s = a.sqrt()
    except (ValueError, ZeroDivisionError):
        return  # box too wide relative to its distance from the cut
    # the square of the enclosure must recover every member point
    xr, xi = member(a.re, tr), member(a.im, ti)
    assert s.mul(s).contains(xr, xi)
    # principal branch: real part never certified negative
    assert not s.re.is_negative()


def test_complex_sqrt_fixture():
    # sqrt(-1 + 0i) is rejected (box touches the cut), sqrt(2i) = 1 + i
    with pytest.raises(ValueError):
        ComplexBall.from_rationals(F(-1), F(0)).sqrt()
    s = ComplexBall.from_rationals(F(0), F(2)).sqrt()
    assert s.contains(F(1), F(1))


def test_decimal_parts_enclose():
    a = RealBall.from_rational(F(1, 3))
    mid_str, rad_str = a.decimal_parts()
    # the printed pair must parse back to an enclosure of 1/3
    back = RealBall.from_json({"mid": mid_str, "rad": rad_str})
    assert back.contains(F(1, 3))
    # every decimal form a reader may hand back, with its exact value
    for text, value in (("1.", F(1)), (".5", F(1, 2)), ("-.5", F(-1, 2)),
                        ("+3.25E-7", F(325, 10 ** 9))):
        ball = RealBall.from_json({"mid": text, "rad": "0"})
        assert ball.contains(value) and ball.rad_fraction() < F(1, 2 ** 100)


# the precisions the command line's balls are printed at: its floor, the
# default, the benchmark's high precision and its ceiling
PRINT_PRECISIONS = (53, 128, 512, 8192)


def parses_back(text: str) -> bool:
    """Whether the one text parser reads text as its exact decimal value."""
    return parse_rat(text) == F(Decimal(text))


# midpoints of magnitude 2^-14600 .. 2^1450, from J_1 at the smallest
# `bessel` point (--re 1e-4299, J_1 about 5e-4300 = 2^-14285) to J_0 at
# the largest (1000i, about 10^432), with radii down to 2^-8300 times the
# midpoint, and zero midpoints with radii down to 2^-100000 (a `--terms`
# tail at a tiny point prints such radii; "6.23e-1720471" is read in
# test_far_bessel_balls_are_read_outward)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(prec=st.sampled_from(PRINT_PRECISIONS),
       num=st.integers(-10 ** 30, 10 ** 30), den=st.integers(1, 10 ** 30),
       exp=st.integers(-14600, 1450), rad_bits=st.integers(-8, 8300),
       zero_rad_bits=st.one_of(st.none(), st.integers(0, 100000)))
def test_printed_balls_read_back(prec, num, den, exp, rad_bits, zero_rad_bits):
    if zero_rad_bits is None:
        mid = F(num, den) * F(2) ** exp
        ball = RealBall.from_mid_rad(mid, abs(mid) / F(2) ** rad_bits, prec)
    else:
        ball = RealBall.from_mid_rad(0, F(1, 2 ** zero_rad_bits), prec)
    printed = ball.to_json()
    back = RealBall.from_json(printed)
    pm, pr = (F(Decimal(printed[key])) for key in ("mid", "rad"))
    # the read ball contains the printed one, which contains the ball
    assert back.lower() <= pm - pr and pm + pr <= back.upper()
    assert back.lower() <= ball.lower() and ball.upper() <= back.upper()
    # and is wider by at most a rounding of its midpoint to DEFAULT_PREC
    # bits and of its radius to 30 bits
    assert back.rad_fraction() <= pr * (1 + F(1, 2 ** 28)) + abs(pm) / F(2) ** 126


# the exact enclosures `compare` prints, at magnitudes 2^-3000..2^3000
# and a ball's midpoint digits, parse back exactly
@settings(max_examples=120, deadline=None, derandomize=True)
@given(prec=st.sampled_from(PRINT_PRECISIONS),
       num=st.integers(-10 ** 30, 10 ** 30), den=st.integers(1, 10 ** 30),
       exp=st.integers(-3000, 3000), rad_bits=st.integers(-8, 8300))
def test_printed_enclosures_parse_back_exactly(prec, num, den, exp, rad_bits):
    mid = F(num, den) * F(2) ** exp
    lo, hi = sorted((mid, mid + abs(mid) / F(2) ** rad_bits))
    assert all(parses_back(text)
               for text in decimal_parts(lo, hi, decimal_digits(prec)))


@pytest.mark.parametrize("obj", [
    # `bessel --nu 1 --re 1e-4299` at 128 bits, its real and imaginary parts
    {"mid": "5.000000000000000000000000000000000000011e-4300", "rad": "5.78e-4338"},
    {"mid": "0.0", "rad": "2.51e-8599"},
    # the imaginary part of the same point with --terms 200
    {"mid": "0.0", "rad": "6.23e-1720471"},
    # no package output is this far; it is read in O(log |exponent|)
    {"mid": "-1e-999999999999999999", "rad": "1e-999999999999999999"},
], ids=["bessel-tiny-re", "bessel-tiny-im", "bessel-terms-im", "extreme-exponent"])
def test_far_bessel_balls_are_read_outward(obj):
    t0 = time.perf_counter()
    back = RealBall.from_json(obj)
    assert time.perf_counter() - t0 < 0.1
    # compare the read endpoints with the printed ones on integers: with
    # the printed decimal m 10^-k, lower <= m 10^-k iff lower 10^k <= m
    (_, mid_digits, mid_exp), (_, rad_digits, rad_exp) = (
        Decimal(obj[key]).as_tuple() for key in ("mid", "rad"))
    if -rad_exp < 10 ** 7:
        printed_rad = F(int("".join(map(str, rad_digits))), 10 ** -rad_exp)
        if mid_digits == (0,):
            assert back.mid_fraction() == 0 and back.rad_fraction() >= printed_rad
        else:
            printed_mid = F(int("".join(map(str, mid_digits))), 10 ** -mid_exp)
            assert back.lower() <= printed_mid - printed_rad
            assert printed_mid + printed_rad <= back.upper()
    else:
        # sign only: the ball straddles zero whatever its width
        assert not back.is_negative() and not back.is_positive()


@pytest.mark.parametrize("obj, message", [
    ({"mid": 1.5, "rad": "0"}, "not a decimal"),
    ({"mid": "0", "rad": 0}, "not a decimal"),
    ({"mid": "1/3", "rad": "0"}, "not a decimal"),
    ({"mid": "NaN", "rad": "0"}, "not a decimal"),
    ({"mid": "1", "rad": "-1e-9000"}, "negative radius"),
    ({"mid": "1" * (MAX_DIGITS + 1), "rad": "0"}, f"more than {MAX_DIGITS} digits"),
])
def test_ball_text_refusals(obj, message):
    with pytest.raises(ValueError, match=message):
        RealBall.from_json(obj)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(num=st.integers(-(10 ** MAX_DIGITS - 1), 10 ** MAX_DIGITS - 1),
       den=st.integers(1, 10 ** MAX_DIGITS - 1))
def test_printed_rationals_parse_back_up_to_the_digit_limit(num, den):
    q = F(num, den)
    assert parse_rat(rat_str(q)) == q
    for edge in (F(10 ** MAX_DIGITS - 1), F(1, 10 ** MAX_DIGITS - 1)):
        assert parse_rat(rat_str(edge)) == edge
    # one digit more is refused (by Python's own limit from 3.11 on)
    with pytest.raises(ValueError):
        parse_rat("1/1" + "0" * MAX_DIGITS)


@pytest.mark.parametrize("value", [1, 1.5, None, b"1/2"])
def test_parse_rat_refuses_a_value_that_is_not_text(value):
    with pytest.raises(ValueError, match="not a rational"):
        parse_rat(value)


def fraction_to_dec_up_by_scaling(q: F) -> str:
    """Reference: find the decade by one Fraction product per power of ten,
    then round up to 3 significant digits."""
    if q == 0:
        return "0"
    e = 0
    while q < 1:
        q *= 10
        e -= 1
    while q >= 10:
        q /= 10
        e += 1
    scaled = q * 100
    n = scaled.numerator // scaled.denominator
    if n * scaled.denominator < scaled.numerator:
        n += 1
    if n >= 1000:  # carry out of the leading digit
        n //= 10
        e += 1
    digits = str(n)
    return f"{digits[0]}.{digits[1:]}e{e:+d}"


@given(st.integers(1, 10 ** 40), st.integers(1, 10 ** 40),
       st.integers(-400, 400))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_radius_printing_matches_decade_scaling(num, den, k):
    q = F(num, den) * F(10) ** k
    assert decimal_up(q) == fraction_to_dec_up_by_scaling(q)


def assert_rounds_as_the_decimal_context(q: F) -> None:
    got = _divide(q, 3, "ROUND_CEILING")
    want = divide_in_context(q, 3, "ROUND_CEILING")
    assert got == want and f"{got:.2e}" == f"{want:.2e}"


def test_radius_printing_edge_cases():
    tiny = F(1, 10 ** 60)
    cases = [F(10) ** k for k in range(-40, 41)]
    cases += [F(10) ** k - tiny for k in range(-20, 21)]  # just below a decade
    cases += [F(10) ** k + tiny for k in range(-20, 21)]
    cases += [F(9995, 10 ** k) for k in range(8)]  # digit carries
    cases += [F(1, 2 ** k) for k in range(0, 400, 7)]
    cases += [F(2 ** k, 3) for k in range(0, 400, 7)]
    for q in cases:
        assert decimal_up(q) == fraction_to_dec_up_by_scaling(q)
        assert_rounds_as_the_decimal_context(q)
    assert decimal_up(F(0)) == "0"
    assert decimal_up(F(9995, 10 ** 7)) == "1.00e-3"
    with pytest.raises(ValueError):
        decimal_up(F(-1, 3))


@given(st.integers(1, 10 ** 40), st.integers(1, 10 ** 40),
       st.integers(-400, 400), st.integers(-5000, 5000))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_radius_rounding_matches_the_decimal_context(num, den, k, j):
    # the integer rounding equals the decimal module's in value and in
    # print, on the decade-scaling grid widened by 2^-5000 .. 2^5000
    assert_rounds_as_the_decimal_context(F(num, den) * F(10) ** k * F(2) ** j)


def test_a_radius_at_the_term_cap_prints_in_bounded_time():
    # at --terms 1000 the tail is about 2^-28580000; the exact power of
    # five its decade needed took 4.6 s, the bracket of _divide takes ms
    ball = bessel_j(1, F(1, 10 ** 4299), n_terms=1000)
    start = time.perf_counter()
    assert ball.im.to_json() == {"mid": "0.0", "rad": "5.38e-8603738"}
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("k", [-3000, -1234, -200, 200, 777, 3000])
def test_roundings_on_a_boundary_at_far_decades(k):
    # x = q 10^t on or next to a rounding boundary: the bracket of
    # _divide cannot decide, and the exact power must give the digits
    tiny = F(1, 10 ** (abs(k) + 40))
    for m in (1, 5, 15, 125, 999, 1005, 9995, 99995):
        for q in (m * F(10) ** k, m * F(10) ** k + tiny, m * F(10) ** k - tiny):
            assert_rounds_as_the_decimal_context(q)
            for digits in (2, 3, 5):
                got = _divide(q, digits, "ROUND_HALF_UP")
                want = divide_in_context(q, digits, "ROUND_HALF_UP")
                assert got == want and f"{got:.{digits - 1}e}" == f"{want:.{digits - 1}e}"


def test_a_radius_far_below_one_prints_in_bounded_time():
    # the tail of 200 terms at 1e-4299 is about 2^-5715300; the decimal
    # division of its denominator took about 50 s
    ball = bessel_j(1, F(1, 10 ** 4299), n_terms=200)
    start = time.perf_counter()
    assert ball.im.to_json() == {"mid": "0.0", "rad": "6.23e-1720471"}
    assert time.perf_counter() - start < 10


@given(st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30),
       st.integers(0, 300), st.integers(0, 300),
       st.sampled_from([30, 53, 128]), st.sampled_from(["n", "u", "d"]))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_from_rational_matches_mpmath(p, q, i, j, prec, rnd):
    # powers of 2 and 10 give long runs of trailing zero bits
    p, q = p * 10 ** i, q * 2 ** j
    assert bigfloat.from_rational(p, q, prec, rnd) == from_rational(p, q, prec, rnd)


# the float kernel against mpmath's libmp, its independent reference:
# every primitive must return the same (sign, man, exp, bc) tuple
MODES = st.sampled_from("nfcdu")
mantissas = st.integers(-(2 ** 700), 2 ** 700)
raw_floats = st.builds(libmp.from_man_exp, mantissas, st.integers(-5000, 5000))
# 0 asks add, sub and mul for the exact result
KERNEL_PRECS = st.sampled_from([0, 1, 2, 5, 30, 53, 64, 128, 512, 1000])


@given(raw_floats, mantissas, st.integers(-3000, 3000), KERNEL_PRECS, MODES)
@example(from_man_exp(3, 0), 1, 200, 53, "d")  # offset past 100 and prec + 4
@example(from_man_exp(3, 0), -1, 200, 53, "f")
@example(from_man_exp(2 ** 200 + 1, 0), -(2 ** 150 - 1), 101, 53, "d")  # wide s
@example(fzero, 5, 0, 53, "u")
@example(from_man_exp(7, 3), 0, 0, 53, "c")
@settings(max_examples=500, deadline=None, derandomize=True)
def test_kernel_add_sub_mul_match_libmp(s, tman, offset, prec, rnd):
    # t sits `offset` binary places below s, so exponent gaps over 100 and
    # over prec + 4 bits (libmp's perturbation branch) come up often
    t = from_man_exp(tman, s[2] - offset)
    for name in ("mpf_add", "mpf_sub", "mpf_mul"):
        for a, b in ((s, t), (t, s)):
            assert (getattr(bigfloat, name)(a, b, prec, rnd)
                    == getattr(libmp, name)(a, b, prec, rnd)), name


@given(raw_floats, raw_floats, st.integers(1, 1000), MODES)
@example(fzero, from_man_exp(3, 1), 53, "n")
@example(from_man_exp(1, 8), from_man_exp(1, 0), 53, "n")  # sqrt of 2^even
@settings(max_examples=500, deadline=None, derandomize=True)
def test_kernel_div_sqrt_cmp_pos_match_libmp(s, t, prec, rnd):
    assert bigfloat.mpf_cmp(s, t) == libmp.mpf_cmp(s, t)
    assert bigfloat.mpf_cmp(s, s) == 0
    if t != fzero:
        assert bigfloat.mpf_div(s, t, prec, rnd) == libmp.mpf_div(s, t, prec, rnd)
    for x in (libmp.mpf_abs(s), libmp.mpf_shift(libmp.mpf_abs(s), 1)):
        # the shift flips the parity of the exponent
        assert bigfloat.mpf_sqrt(x, prec, rnd) == libmp.mpf_sqrt(x, prec, rnd)
    assert bigfloat.mpf_pos(s, prec, rnd) == libmp.mpf_pos(s, prec, rnd)
    assert bigfloat.mpf_neg(s) == libmp.mpf_neg(s)
    assert bigfloat.mpf_abs(s) == libmp.mpf_abs(s)
    assert bigfloat.mpf_shift(s, -77) == libmp.mpf_shift(s, -77)


@given(mantissas, st.integers(-5000, 5000))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_kernel_conversions_match_libmp(man, exp):
    # from_rational: test_from_rational_matches_mpmath
    assert bigfloat.from_int(man) == libmp.from_int(man)
    assert bigfloat.from_man_exp(man, exp) == libmp.from_man_exp(man, exp)


@given(st.integers(1, 2 ** 8192), st.one_of(st.integers(-3600, 3600),
                                             st.integers(-(10 ** 9), 10 ** 9)),
       st.booleans())
@example(1, 3500, False)
@example(1, 3501, True)
@example(3, -3500, False)
@example(2 ** 127 + 1, -3501, False)
# 2^-45 above a tie at 7 digits: to_str's division by a power of ten
# rounded down puts it below the tie, "7.206817e-1060", where the digits
# read without the division would round up
@example(from_rational(72068175 * (2 ** 45 + 1), 10 ** 1067 * 2 ** 45, 200, "n")[1],
         -3518, False)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_kernel_to_str_matches_libmp(man, top, negative):
    # top = exp + bc, the binary place of the leading bit; past 3500 either
    # way to_str first divides by a power of ten rounded down
    x = from_man_exp(-man if negative else man, top - man.bit_length())
    dps = decimal_digits(x[3])
    assert bigfloat.to_str(x, dps) == libmp.to_str(x, dps)
    assert bigfloat.to_str(x, 7) == libmp.to_str(x, 7)
    assert bigfloat.to_str(fzero, dps) == libmp.to_str(fzero, dps)


def test_kernel_ln2_ln10_and_powers_of_ten_match_libmp():
    from mpmath.libmp.libelefun import mpf_ln2, mpf_ln10
    from mpmath.libmp.libmpf import ften, mpf_pow_int

    for bits in range(6, 257):  # the precisions to_str takes them at
        assert from_man_exp(bigfloat._LN2 >> (256 - bits), -bits) == mpf_ln2(bits)
        assert (from_man_exp(bigfloat._LN10 >> (256 - bits), 2 - bits)
                == mpf_ln10(bits))
    for n in (*range(-400, 400, 7), -(10 ** 6) - 1, 10 ** 6 + 3, -(2 ** 40) + 1):
        for rnd in "nfcdu":
            assert bigfloat.pow10(n, 300, rnd) == mpf_pow_int(ften, n, 300, rnd)
