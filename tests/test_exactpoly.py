"""Exact polynomial layer: ring ops, traces, harmonic extension, words."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disksig.exactpoly import (Poly2, TensorPoly, ZPoly, boundary_trace,
                               harmonic_extension, laplacian,
                               poisson_particular, words, word_index)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)


def poly_strategy(max_terms=5, max_deg=4):
    term = st.tuples(st.integers(0, max_deg), st.integers(0, max_deg),
                     rationals)
    return st.lists(term, max_size=max_terms).map(
        lambda ts: sum((Poly2.monomial(i, j, v) for i, j, v in ts),
                       Poly2.zero()))


@given(poly_strategy(), poly_strategy(), rationals, rationals)
@settings(max_examples=100, deadline=None)
def test_ring_ops_agree_with_evaluation(p, q, x, y):
    assert (p + q).evaluate(x, y) == p.evaluate(x, y) + q.evaluate(x, y)
    assert (p * q).evaluate(x, y) == p.evaluate(x, y) * q.evaluate(x, y)
    assert (p - q).evaluate(x, y) == p.evaluate(x, y) - q.evaluate(x, y)


def test_partials_on_monomials():
    p = Poly2.monomial(3, 2)
    assert p.partial_x() == Poly2.monomial(2, 2, 3)
    assert p.partial_y() == Poly2.monomial(3, 1, 2)
    assert Poly2.const(5).partial_x().is_zero()


def test_laplacian_kills_harmonic_polynomials():
    x = Poly2.monomial(1, 0)
    y = Poly2.monomial(0, 1)
    for p in (x * x - y * y, x * y, x * x * x - 3 * x * y * y):
        assert laplacian(p).is_zero()
    assert laplacian(x * x) == Poly2.const(2)


def test_boundary_trace_of_radius_squared_is_one():
    x = Poly2.monomial(1, 0)
    y = Poly2.monomial(0, 1)
    t = boundary_trace(x * x + y * y)
    assert t == boundary_trace(Poly2.const(1)) == ({0: F(1)}, {})
    assert boundary_trace(Poly2.zero()) == ({}, {})


@given(poly_strategy(max_terms=4, max_deg=3))
@settings(max_examples=100, deadline=None)
def test_harmonic_extension_matches_trace(p):
    """The extension of a trace is harmonic and agrees on the circle."""
    ext = harmonic_extension(boundary_trace(p))
    assert laplacian(ext).is_zero()
    assert boundary_trace(ext - p) == ({}, {})


# coefficients mixing small denominators with huge ones, so the
# common denominator of one polynomial spans many orders of magnitude;
# powers of two meet the 2^degree scale of the integer trace
mixed_rationals = st.one_of(
    rationals,
    st.builds(F, st.integers(-10 ** 30, 10 ** 30),
              st.integers(10 ** 12, 10 ** 30)),
    st.builds(lambda n, e: F(n, 2 ** e), st.integers(-10 ** 6, 10 ** 6),
              st.integers(0, 60)),
    st.integers(-10 ** 6, 10 ** 6).map(F))


def deep_poly_strategy(max_deg=24):
    term = st.tuples(st.integers(0, max_deg), st.integers(0, max_deg),
                     mixed_rationals).filter(lambda t: t[0] + t[1] <= max_deg)
    return st.lists(term, max_size=12).map(
        lambda ts: sum((Poly2.monomial(i, j, v) for i, j, v in ts),
                       Poly2.zero()))


def assert_exact_trace(p, trace):
    """trace is p on the unit circle, exactly.

    Its keys lie in range, so trace minus the true trace is a Fourier
    polynomial of degree <= N = deg p, which vanishes at 2N+1 distinct
    angles only if it is zero.  Those angles are the rational points
    ((1-s^2)/(1+s^2), 2s/(1+s^2)), s = 0..2N: there cos(k theta) and
    sin(k theta) are the parts of ((1-s^2) + 2si)^k over (1+s^2)^k.
    """
    cos, sin = trace
    n = max(p.degree(), 0)
    assert all(0 <= k <= n and v for k, v in cos.items())
    assert all(1 <= k <= n and v for k, v in sin.items())
    for s in range(2 * n + 1):
        m = 1 + s * s
        re, im = 1, 0  # ((1-s^2) + 2si)^k
        value = F(0)
        for k in range(n + 1):
            value += (cos.get(k, 0) * re + sin.get(k, 0) * im) / F(m) ** k
            re, im = re * (1 - s * s) - im * 2 * s, re * 2 * s + im * (1 - s * s)
        assert value == p.evaluate(F(1 - s * s, m), F(2 * s, m))


def reference_extension(t):
    """Re((x+iy)^k) and Im((x+iy)^k) built by Poly2 products."""
    cos, sin = t
    kmax = max([0, *cos, *sin])
    out = Poly2.zero()
    re, im = Poly2.const(1), Poly2.zero()
    x, y = Poly2.monomial(1, 0), Poly2.monomial(0, 1)
    for k in range(kmax + 1):
        out = out + re * cos.get(k, 0) + im * sin.get(k, 0)
        re, im = re * x - im * y, re * y + im * x
    return out


@given(st.one_of(deep_poly_strategy(),
                 mixed_rationals.map(Poly2.const),
                 st.just(Poly2.zero())))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_boundary_trace_matches_product_to_sum(p):
    """The integer product-to-sum tables give p's exact values on the circle."""
    assert_exact_trace(p, boundary_trace(p))


def nonzero(modes):
    return {k: v for k, v in modes.items() if v}


trig_strategy = st.tuples(
    st.dictionaries(st.integers(0, 24), mixed_rationals, max_size=8).map(nonzero),
    st.dictionaries(st.integers(1, 24), mixed_rationals, max_size=8).map(nonzero))


@given(trig_strategy)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_harmonic_extension_matches_poly_products(t):
    ext = harmonic_extension(t)
    assert ext == reference_extension(t)
    assert boundary_trace(ext) == t


def test_boundary_trace_results_do_not_alias_shared_tables():
    x = Poly2.monomial(1, 0)
    y = Poly2.monomial(0, 1)
    for p in (Poly2.const(1), x * x * y, x * y * y + F(1, 3)):
        want = boundary_trace(p)
        assert_exact_trace(p, want)
        want = tuple(dict(modes) for modes in want)
        cos, sin = boundary_trace(p)
        for k in cos:
            cos[k] += 7
        cos[0] = F(-5)
        for k in sin:
            sin[k] *= 3
        sin[99] = F(1)
        assert boundary_trace(p) == want
        ext = harmonic_extension(want)
        want_ext = reference_extension(want)
        ext._c.clear()
        assert harmonic_extension(want) == want_ext


def test_words_enumeration_round_trips():
    for n in range(5):
        ws = words(n)
        assert len(ws) == 2 ** n
        assert ws == sorted(ws)
        for idx, w in enumerate(ws):
            assert word_index(w) == idx
    assert words(0) == [""]
    with pytest.raises(ValueError):
        word_index("13")


def test_tensor_poly_json_round_trip():
    x = Poly2.monomial(1, 0)
    t = TensorPoly.zeros(2)
    t.entries[word_index("12")] = x * x - F(1, 3)
    back = TensorPoly.from_json(t.to_json())
    assert back.level == 2
    assert back.entries == t.entries


def test_zpoly_parts_are_products_of_z_and_zbar():
    # z^a zbar^b as Poly2 pairs (re, im), multiplied out longhand
    x, y = Poly2.monomial(1, 0), Poly2.monomial(0, 1)

    def times(p, q):
        return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])

    for a in range(5):
        for b in range(5):
            want = (Poly2.const(1), Poly2.zero())
            for _ in range(a):
                want = times(want, (x, y))
            for _ in range(b):
                want = times(want, (x, -y))
            for e, scaled in ((0, want), (1, (-want[1], want[0]))):
                got = ZPoly({(a, b, e): 6}).parts(4)
                assert got == tuple(p * F(3, 2) for p in scaled), (a, b, e)


def test_zpoly_ring_operations():
    p = ZPoly({(1, 0, 0): 2, (0, 1, 1): -3, (2, 2, 0): 0})
    q = ZPoly({(1, 0, 0): -2, (0, 0, 1): 5})
    assert p + q == ZPoly({(0, 1, 1): -3, (0, 0, 1): 5})
    assert p - p == ZPoly() and not (p - p)
    assert p.mul_i() == ZPoly({(1, 0, 1): 2, (0, 1, 0): 3})
    assert p.mul_i().mul_i() == ZPoly() - p
    # i times a real polynomial swaps the parts: Re(i p) = -Im(p)
    re, im = p.parts(7)
    assert p.mul_i().parts(7) == (-im, re)


def test_poly_json_round_trip():
    p = Poly2.monomial(2, 1, F(-7, 3)) + Poly2.const(F(1, 9))
    assert Poly2.from_json(p.to_json()) == p


# -- the integer numerator form of Poly2 against a plain Fraction map ------

def ref_of(p):
    return dict(p.terms())


def ref_clean(c):
    return {k: v for k, v in c.items() if v}


def ref_add(a, b, sign=1):
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, F(0)) + sign * v
    return ref_clean(out)


def ref_mul(a, b):
    out = {}
    for (i1, j1), v1 in a.items():
        for (i2, j2), v2 in b.items():
            k = (i1 + i2, j1 + j2)
            out[k] = out.get(k, F(0)) + v1 * v2
    return ref_clean(out)


def ref_evaluate(a, x, y):
    return sum((v * x ** i * y ** j for (i, j), v in a.items()), F(0))


def assert_lowest_terms(p):
    """Canonical form: positive denominator, no zero numerator, gcd 1."""
    assert p._d > 0
    assert all(p._c.values())
    assert math.gcd(p._d, *p._c.values()) == 1
    if p.is_zero():
        assert p._d == 1
    assert p == Poly2(ref_of(p))
    assert hash(p) == hash(Poly2(ref_of(p)))


ref_maps = st.dictionaries(
    st.tuples(st.integers(0, 12), st.integers(0, 12)), mixed_rationals,
    max_size=10).map(ref_clean)


@st.composite
def ref_pairs(draw):
    """Two maps where b repeats some of a's terms negated, so sums cancel."""
    a = draw(ref_maps)
    b = draw(ref_maps)
    for k in draw(st.lists(st.sampled_from(sorted(a)), unique=True)) if a else []:
        b[k] = -a[k]
    return a, b


scalars = st.one_of(mixed_rationals, st.just(F(0)), st.just(F(1)),
                    st.integers(-5, 5))


@given(ref_pairs(), scalars, mixed_rationals, mixed_rationals)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_poly2_ops_match_fraction_reference(pair, v, x, y):
    a, b = pair
    p, q = Poly2(a), Poly2(b)
    assert ref_of(p) == a
    results = {
        "add": (p + q, ref_add(a, b)),
        "sub": (p - q, ref_add(a, b, -1)),
        "self-cancel": (p - p, {}),
        "neg": (-p, {k: -c for k, c in a.items()}),
        "mul": (p * q, ref_mul(a, b)),
        "scale": (p * v, ref_clean({k: c * v for k, c in a.items()})),
        "rscale": (v * p, ref_clean({k: c * v for k, c in a.items()})),
        "partial_x": (p.partial_x(),
                      {(i - 1, j): c * i for (i, j), c in a.items() if i}),
        "partial_y": (p.partial_y(),
                      {(i, j - 1): c * j for (i, j), c in a.items() if j}),
        "laplacian": (laplacian(p), ref_add(
            {(i - 2, j): c * i * (i - 1) for (i, j), c in a.items() if i >= 2},
            {(i, j - 2): c * j * (j - 1) for (i, j), c in a.items() if j >= 2})),
    }
    for name, (got, want) in results.items():
        assert ref_of(got) == want, name
        assert_lowest_terms(got)
    if v:
        assert ref_of(p / v) == {k: c / v for k, c in a.items()}
    assert p.evaluate(x, y) == ref_evaluate(a, x, y)
    for k in a:
        assert p.coeff(*k) == a[k]
    assert p.coeff(99, 99) == 0
    assert p.to_json() == [[i, j, f"{c.numerator}/{c.denominator}"]
                           for (i, j), c in sorted(a.items())]
    assert Poly2.from_json(p.to_json()) == p


def test_poly2_reduces_to_lowest_terms():
    half = Poly2.monomial(1, 0, F(1, 2))
    for p in (half + half, half * 2, Poly2.monomial(1, 1, F(1, 2)).partial_y(),
              (half + Poly2.monomial(0, 1, F(1, 3))).partial_x() * F(4, 3),
              half - half, Poly2({(0, 0): F(2 ** 70, 3 ** 40)}) * F(3 ** 40, 2 ** 70)):
        assert_lowest_terms(p)
    assert half + half == Poly2.monomial(1, 0)
    assert (half - half) == Poly2.zero() == 0
    assert Poly2.const(F(3, 2)) == F(3, 2)


def reference_particular(f):
    """The Fraction sweep by repeated max: always absorb the remaining
    term of highest y-degree, then highest x-degree."""
    residue = dict(f.terms())
    part = {}
    while residue:
        a, b = max(residue, key=lambda k: (k[1], k[0]))
        c = residue.pop((a, b))
        den = F((a + 1) * (a + 2))
        part[(a + 2, b)] = part.get((a + 2, b), F(0)) + c / den
        if b >= 2:
            k2 = (a + 2, b - 2)
            w = residue.get(k2, F(0)) - c * F(b * (b - 1)) / den
            if w:
                residue[k2] = w
            else:
                residue.pop(k2, None)
    return Poly2(part)


@given(st.one_of(deep_poly_strategy(),
                 mixed_rationals.map(Poly2.const),
                 st.just(Poly2.zero())))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_poisson_particular_matches_fraction_sweep(f):
    u = poisson_particular(f)
    assert u == reference_particular(f)
    assert laplacian(u) == f
    assert_lowest_terms(u)


def test_poisson_particular_on_cancelling_corrections():
    # lap(x^2 y^2 / 2) = y^2 + x^2: the correction from y^2 cancels x^2's
    # own term, so row 0 ends empty
    f = Poly2.monomial(0, 2) + Poly2.monomial(2, 0)
    u = poisson_particular(f)
    assert u == reference_particular(f) == Poly2.monomial(2, 2, F(1, 2))
    assert laplacian(u) == f
