"""Exact polynomial layer: the z, zbar calculus, traces, harmonic
extension, the x, y output value Poly2, and the reference tensor words."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disksig.exactpoly import (Poly2, ZPoly, boundary_trace, harmonic_extension,
                               laplacian)
from reference import (XY, TensorPoly, X, Y, laplacian_xy, partial_xy,
                       vanishes_on_circle, word_index, words, xy_of_json,
                       zpoly_parts)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=20)

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
    re, im = zpoly_parts(p, 3)
    for got, axis in ((p.d_z() + p.d_zbar(), 0), ((p.d_z() - p.d_zbar()).mul_i(), 1)):
        assert zpoly_parts(got, 3) == (partial_xy(re, axis), partial_xy(im, axis))
    assert zpoly_parts(laplacian(p), 3) == (laplacian_xy(re), laplacian_xy(im))
    assert zpoly_parts(p * k, 3) == (re * k, im * k) == zpoly_parts(k * p, 3)


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
    products of XYs."""
    re, im = XY(), XY()
    for (k, e), v in t.items():
        sy = Y if k > 0 else -Y
        p, q = XY({(0, 0): 1}), XY()  # (x + i sy)^|k|
        for _ in range(abs(k)):
            p, q = p * X - q * sy, p * sy + q * X
        if e:
            p, q = -q, p
        re, im = re + p * v, im + q * v
    return re, im


@given(trace_strategy)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_harmonic_extension_matches_poly_products(t):
    assert zpoly_parts(harmonic_extension(t), 1) == reference_extension(t)


@given(zpoly_strategy())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_boundary_trace_matches_circle_values(p):
    """p and the extension of its trace agree on the circle: both parts of
    their difference vanish modulo x^2 + y^2 - 1."""
    for part in zpoly_parts(p - harmonic_extension(boundary_trace(p)), 1):
        assert vanishes_on_circle(part)


def test_vanishes_on_circle_fixtures():
    disk = 1 - X * X - Y * Y
    assert vanishes_on_circle(disk) and vanishes_on_circle(X * Y * disk)
    assert vanishes_on_circle(XY())
    assert not vanishes_on_circle(X) and not vanishes_on_circle(Y)
    assert not vanishes_on_circle(disk + Y * Y * Y)


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
    t = TensorPoly.zeros(2)
    t.entries[word_index("12")] = X * X - F(1, 3)
    back = TensorPoly.from_json(t.to_json())
    assert back.level == 2
    assert back.entries == t.entries


def test_zpoly_parts_are_products_of_z_and_zbar():
    # z^a zbar^b as XY pairs (re, im), multiplied out as powers of z and
    # of zbar; production's real part is the first of the pair
    def times(p, q):
        return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])

    def power(p, k):
        out = (XY({(0, 0): 1}), XY())
        for _ in range(k):
            out = times(out, p)
        return out

    for a in range(5):
        for b in range(5):
            want = times(power((X, Y), a), power((X, -Y), b))
            for e, scaled in ((0, want), (1, (-want[1], want[0]))):
                p = ZPoly({(a, b, e): 6})
                scaled = tuple(part * F(3, 2) for part in scaled)
                assert zpoly_parts(p, 4) == scaled, (a, b, e)
                assert xy_of_json(p.real_part(4).to_json()) == scaled[0], (a, b, e)


def test_zpoly_ring_operations():
    p = ZPoly({(1, 0, 0): 2, (0, 1, 1): -3, (2, 2, 0): 0})
    q = ZPoly({(1, 0, 0): -2, (0, 0, 1): 5})
    assert p + q == ZPoly({(0, 1, 1): -3, (0, 0, 1): 5})
    assert p - p == ZPoly() and not (p - p)
    assert p.mul_i() == ZPoly({(1, 0, 1): 2, (0, 1, 0): 3})
    assert p.mul_i().mul_i() == ZPoly() - p
    # i times a real polynomial swaps the parts: Re(i p) = -Im(p)
    re, im = zpoly_parts(p, 7)
    assert zpoly_parts(p.mul_i(), 7) == (-im, re)


zpolys = st.dictionaries(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 1)),
    st.integers(-10 ** 6, 10 ** 6), max_size=8).map(ZPoly)


@given(zpolys, st.integers(1, 30))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_zpoly_conj_negates_the_imaginary_part(p, den):
    re, im = zpoly_parts(p, den)
    assert zpoly_parts(p.conj(), den) == (re, -im)
    assert p.conj().conj() == p
    # real exactly when equal to the conjugate: p + conj(p) is, i (p - conj(p)) too
    assert (p == p.conj()) == (not im)
    for q in (p + p.conj(), (p - p.conj()).mul_i()):
        assert q == q.conj() and not zpoly_parts(q, den)[1]


def test_zpoly_conj_fixture():
    # conj(3 z^2 zbar + 5i z) = 3 z zbar^2 - 5i zbar
    p = ZPoly({(2, 1, 0): 3, (1, 0, 1): 5})
    assert p.conj() == ZPoly({(1, 2, 0): 3, (0, 1, 1): -5})
    assert ZPoly({(1, 0, 1): 1, (0, 1, 1): 1}).conj() != ZPoly({(1, 0, 1): 1, (0, 1, 1): 1})


# -- Poly2, the x, y output value, against the plain XY ring --------------

def poly2_of(a: XY, scale: int = 1) -> Poly2:
    """The production Poly2 of a Fraction map, its numerators taken over
    scale times the lcm of its denominators."""
    d = scale * math.lcm(*(v.denominator for v in a.values()))
    return Poly2({k: int(v * d) for k, v in a.items()}, d)


def assert_lowest_terms(p):
    """Canonical form: positive denominator, no zero numerator, gcd 1."""
    assert p._d > 0
    assert all(p._c.values())
    assert math.gcd(p._d, *p._c.values()) == 1
    if not p._c:
        assert p._d == 1


ref_maps = st.dictionaries(
    st.tuples(st.integers(0, 12), st.integers(0, 12)), mixed_rationals,
    max_size=10).map(XY)


@given(ref_maps, ref_maps, st.integers(1, 10 ** 12), mixed_rationals, mixed_rationals)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_poly2_ops_match_fraction_reference(a, b, scale, x, y):
    """A Poly2 given over any multiple of its denominator reduces to one
    form; its to_json, evaluate and product agree with the XY ring."""
    p, q = poly2_of(a, scale), poly2_of(b)
    assert (p._c, p._d) == (poly2_of(a)._c, poly2_of(a)._d)
    for got, want in ((p, a), (p * q, a * b)):
        assert xy_of_json(got.to_json()) == want
        assert_lowest_terms(got)
        assert got.evaluate(x, y) == want.evaluate(x, y)
    assert p.to_json() == [[i, j, f"{c.numerator}/{c.denominator}"]
                           for (i, j), c in sorted(a.items())]


def test_poly2_reduces_to_lowest_terms():
    x_of_z = ZPoly({(1, 0, 0): 3, (0, 1, 0): 3})  # 3 (z + zbar) = 6x
    imaginary = ZPoly({(1, 0, 1): 1, (0, 1, 1): 1})  # i (z + zbar) = 2ix
    for p in (Poly2({(1, 0): 2}, 2), Poly2({(1, 1): 6, (0, 0): 4}, 10), Poly2({}, 7),
              Poly2({(0, 0): 2 ** 70 * 3 ** 40}, 2 ** 70 * 3 ** 40 * 5),
              x_of_z.real_part(6), imaginary.real_part(3)):
        assert_lowest_terms(p)
    assert Poly2({(1, 0): 2}, 2).to_json() == x_of_z.real_part(6).to_json() == [[1, 0, "1/1"]]
    assert imaginary.real_part(3).to_json() == []


@given(zpoly_strategy(), st.one_of(st.integers(1, 50), st.integers(1, 10 ** 30)),
       rationals, rationals)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_real_part_is_the_real_half_of_zpoly_parts(p, den, x, y):
    got = p.real_part(den)
    re, _ = zpoly_parts(p, den)
    assert xy_of_json(got.to_json()) == re
    assert_lowest_terms(got)
    assert got.evaluate(x, y) == re.evaluate(x, y)
