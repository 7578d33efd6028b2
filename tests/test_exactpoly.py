"""Exact polynomial layer: ring ops, traces, harmonic extension, and the
reference tensor words."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disksig.exactpoly import (Poly2, ZPoly, boundary_trace, harmonic_extension,
                               laplacian)
from reference import (TensorPoly, laplacian_xy, partial_xy, vanishes_on_circle,
                       word_index, words)

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


# coefficients mixing small denominators with huge ones, so the
# common denominator of one polynomial spans many orders of magnitude
mixed_rationals = st.one_of(
    rationals,
    st.builds(F, st.integers(-10 ** 30, 10 ** 30),
              st.integers(10 ** 12, 10 ** 30)),
    st.builds(lambda n, e: F(n, 2 ** e), st.integers(-10 ** 6, 10 ** 6),
              st.integers(0, 60)),
    st.integers(-10 ** 6, 10 ** 6).map(F))
big_ints = st.one_of(st.integers(-50, 50), st.integers(-10 ** 30, 10 ** 30))


def zpoly_strategy(max_terms=8, max_deg=12):
    term = st.tuples(st.integers(0, max_deg), st.integers(0, max_deg),
                     st.integers(0, 1), big_ints)
    return st.lists(term, max_size=max_terms).map(
        lambda ts: ZPoly({(a, b, e): v for a, b, e, v in ts}))


def test_partials_on_monomials():
    p = ZPoly({(3, 2, 1): 5})
    assert p.d_z() == ZPoly({(2, 2, 1): 15})
    assert p.d_zbar() == ZPoly({(3, 1, 1): 10})
    assert not ZPoly({(0, 0, 0): 7}).d_z() and not ZPoly({(0, 0, 1): 7}).d_zbar()


@given(zpoly_strategy(), st.integers(-5, 5))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_zpoly_calculus_matches_the_xy_calculus(p, k):
    """d/dx = d/dz + d/dzbar, d/dy = i (d/dz - d/dzbar) and the Laplacian
    4 d/dz d/dzbar, against the x, y calculus of the parts."""
    re, im = p.parts(3)
    for got, axis in ((p.d_z() + p.d_zbar(), 0), ((p.d_z() - p.d_zbar()).mul_i(), 1)):
        assert got.parts(3) == (partial_xy(re, axis), partial_xy(im, axis))
    assert laplacian(p).parts(3) == (laplacian_xy(re), laplacian_xy(im))
    assert (p * k).parts(3) == (re * k, im * k) == (k * p).parts(3)


def test_laplacian_kills_harmonic_polynomials():
    for k in range(5):
        for e in (0, 1):
            assert not laplacian(ZPoly({(k, 0, e): 3, (0, k, e): -2}))
    assert laplacian(ZPoly({(1, 1, 0): 1})) == ZPoly({(0, 0, 0): 4})
    assert laplacian(ZPoly({(3, 2, 1): 1})) == ZPoly({(2, 1, 1): 24})


def test_boundary_trace_of_radius_squared_is_one():
    assert boundary_trace(ZPoly({(1, 1, 0): 1})) == boundary_trace(
        ZPoly({(0, 0, 0): 1})) == {(0, 0): 1}
    assert boundary_trace(ZPoly()) == {}
    # z^3 zbar and z^2 cancel on the circle; i z zbar^3 is i zbar^2 there
    p = ZPoly({(3, 1, 0): 1, (2, 0, 0): -1, (1, 3, 1): 5})
    assert boundary_trace(p) == {(-2, 1): 5}


trace_strategy = st.dictionaries(
    st.tuples(st.integers(-24, 24), st.integers(0, 1)),
    big_ints.filter(bool), max_size=8)


@given(trace_strategy)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_harmonic_extension_matches_trace(t):
    """The extension of a trace is harmonic, and its trace is t again."""
    ext = harmonic_extension(t)
    assert not laplacian(ext)
    assert boundary_trace(ext) == t


def reference_extension(t):
    """(Re, Im) of sum v i^e (x+iy)^k, (x-iy)^(-k) for k < 0, built by
    Poly2 products."""
    x, y = Poly2.monomial(1, 0), Poly2.monomial(0, 1)
    re, im = Poly2.zero(), Poly2.zero()
    for (k, e), v in t.items():
        sy = y if k > 0 else -y
        p, q = Poly2.const(1), Poly2.zero()  # (x + i sy)^|k|
        for _ in range(abs(k)):
            p, q = p * x - q * sy, p * sy + q * x
        if e:
            p, q = -q, p
        re, im = re + p * v, im + q * v
    return re, im


@given(trace_strategy)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_harmonic_extension_matches_poly_products(t):
    assert harmonic_extension(t).parts(1) == reference_extension(t)


@given(zpoly_strategy())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_boundary_trace_matches_circle_values(p):
    """p and the extension of its trace agree at rational points of the
    circle, enough of them to make the difference zero there."""
    for part in (p - harmonic_extension(boundary_trace(p))).parts(1):
        assert vanishes_on_circle(part)


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


zpolys = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 1)),
    st.integers(-10 ** 6, 10 ** 6), max_size=8).map(ZPoly)


@given(zpolys, st.integers(1, 30))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_zpoly_conj_negates_the_imaginary_part(p, den):
    re, im = p.parts(den)
    assert p.conj().parts(den) == (re, -im)
    assert p.conj().conj() == p
    # real exactly when equal to the conjugate: p + conj(p) is, i (p - conj(p)) too
    assert (p == p.conj()) == (not im)
    for q in (p + p.conj(), (p - p.conj()).mul_i()):
        assert q == q.conj() and not q.parts(den)[1]


def test_zpoly_conj_fixture():
    # conj(3 z^2 zbar + 5i z) = 3 z zbar^2 - 5i zbar
    p = ZPoly({(2, 1, 0): 3, (1, 0, 1): 5})
    assert p.conj() == ZPoly({(1, 2, 0): 3, (0, 1, 1): -5})
    assert ZPoly({(1, 0, 1): 1, (0, 1, 1): 1}).conj() != ZPoly({(1, 0, 1): 1, (0, 1, 1): 1})


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
    if not p:
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
    for p in (half + half, half * 2, Poly2.monomial(1, 1, F(1, 2)) * F(2, 3),
              (half + Poly2.monomial(0, 1, F(1, 3))) * F(4, 3),
              half - half, Poly2({(0, 0): F(2 ** 70, 3 ** 40)}) * F(3 ** 40, 2 ** 70)):
        assert_lowest_terms(p)
    assert half + half == Poly2.monomial(1, 0)
    assert (half - half) == Poly2.zero() == 0
    assert Poly2.const(F(3, 2)) == F(3, 2)
