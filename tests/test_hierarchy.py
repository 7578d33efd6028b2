"""PDE hierarchy: Poisson solver, exact levels, radial reduction, ratios."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from disksig.balls import RealBall
from disksig.exactpoly import ZPoly, boundary_trace, laplacian
import disksig.hierarchy as hierarchy
from disksig.hierarchy import (HierarchyState, a_coefficients, developed_rhs,
                               developed_values, level_norms, radial_levels,
                               origin_development, origin_values, poisson_scale,
                               radial_levels_ball, radius_estimate,
                               solve_poisson_zero_bd, word_polys,
                               developed_checks, tensor_checks)
from reference import (XY, M1, M2, X, Y, developed_at, developed_view, fold_letters,
                       laplacian_xy, mat_mul, mat_vec, partial_xy,
                       radial_levels_fraction, tensor_levels_bivariate, tensor_view,
                       vanishes_on_circle, zpoly_parts)


@st.composite
def sources(draw):
    """A ZPoly with terms z^a zbar^b on the diagonal a = b and on both
    sides of it, plus a few more anywhere."""
    coeff = st.tuples(st.integers(0, 1), st.integers(-10 ** 12, 10 ** 12).filter(bool))
    lo, gap = draw(st.integers(0, 5)), draw(st.integers(1, 5))
    terms = {(a, b, draw(coeff)) for a, b in ((lo, lo), (lo + gap, lo), (lo, lo + gap))}
    terms |= set(draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6), coeff),
                               max_size=4)))
    f = {}
    for a, b, (e, v) in terms:
        f[(a, b, e)] = f.get((a, b, e), 0) + v
    return ZPoly(f)


@given(sources())
@settings(max_examples=100, deadline=None, derandomize=True)
def test_poisson_solver_solves_and_vanishes_on_circle(f):
    scale = poisson_scale([f])
    u = solve_poisson_zero_bd(f, scale)
    assert laplacian(u) == f * scale
    assert boundary_trace(u) == {}
    assert all(vanishes_on_circle(part) for part in zpoly_parts(u, 1))
    assert solve_poisson_zero_bd(f, 3 * scale) == u * 3


def test_poisson_solver_linear_source():
    # Delta u = 2x with zero boundary data has u = x (x^2 + y^2 - 1)/4
    f = ZPoly({(1, 0, 0): 1, (0, 1, 0): 1})  # z + zbar = 2x
    scale = poisson_scale([f])
    assert scale == 8
    want = X * (X * X + Y * Y - 1) * F(1, 4)
    assert zpoly_parts(solve_poisson_zero_bd(f, scale), scale) == (want, XY())


def test_poisson_solver_on_cancelling_traces():
    # the particular solution 4 z zbar - 4 z^2 zbar^2 of 16 (1 - 4 z zbar)
    # is zero on the circle already, so no harmonic term is subtracted;
    # 1 + z zbar shares the trace key k = 0 but does not cancel
    f = ZPoly({(0, 0, 0): 1, (1, 1, 0): -4})
    assert poisson_scale([f]) == 16
    assert solve_poisson_zero_bd(f, 16) == ZPoly({(1, 1, 0): 4, (2, 2, 0): -4})
    f = ZPoly({(0, 0, 0): 1, (1, 1, 0): 1})
    assert solve_poisson_zero_bd(f, 16) == ZPoly({(1, 1, 0): 4, (2, 2, 0): 1,
                                                  (0, 0, 0): -5})


def test_first_levels_are_the_known_solutions(state):
    disk = 1 - X * X - Y * Y
    # pi_1 = 0, pi_2 = (1 - |z|^2)/4 (e11 + e22)
    assert not any(tensor_view(state, 1).entries)
    t2 = tensor_view(state, 2)
    assert t2.entry("11") == disk * F(1, 4)
    assert t2.entry("22") == disk * F(1, 4)
    assert not t2.entry("12")
    assert not t2.entry("21")
    # developed: V_2 = (0, 0, (1 - |z|^2)/2)
    assert developed_view(state, 2) == (XY(), XY(), disk * F(1, 2))


def test_exactness_checks_small_levels(state):
    for n in range(1, 9):
        assert tensor_checks(state, n) == {"residual_ok": True,
                                           "boundary_ok": True}
        assert developed_checks(state, n) == {"residual_ok": True,
                                              "boundary_ok": True}


def test_checks_out_of_order_use_their_own_right_hand_side():
    # each level's residual verdict is recorded when it is solved, so
    # checks may run in any order and more than once
    fresh = HierarchyState()
    fresh.tensor_z(5)
    fresh.developed_z(6)
    ok = {"residual_ok": True, "boundary_ok": True}
    for n in (3, 5, 2, 5):
        assert tensor_checks(fresh, n) == ok
    for n in (4, 6, 6, 2):
        assert developed_checks(fresh, n) == ok


@pytest.mark.parametrize("broken", ["residual_ok", "boundary_ok"])
@pytest.mark.parametrize("mode, checks", [("tensor", tensor_checks),
                                          ("developed", developed_checks)])
def test_checks_flag_a_wrong_level(wrong_level, mode, checks, broken):
    wrong_level(mode, 3, broken)
    fresh = HierarchyState()
    for n in range(1, 6):
        want = {"residual_ok": True, "boundary_ok": True}
        if n == 3:
            want[broken] = False
        assert checks(fresh, n) == want, n


def test_tensor_expansion_equals_the_bivariate_oracle_word_for_word():
    """Each e-word of the reduced levels, expanded and read in x, y, is
    the polynomial one bivariate Poisson solve per word gives."""
    fresh = HierarchyState()
    for n, want in enumerate(tensor_levels_bivariate(8)):
        got = tensor_view(fresh, n)
        assert got.level == n
        for idx, (g, w) in enumerate(zip(got.entries, want.entries)):
            assert g == w, (n, idx)


def test_reduced_levels_are_integer_numerators_over_one_reduced_denominator(state):
    for n in range(13):
        level = state.reduced(n)
        assert len(level.words) == max(1, 2 ** (n - 1))
        assert len(level.entries()) == 2 ** n
        assert level.den > 0
        nums = [c for word in level.words for c in word.values()]
        assert all(nums) and math.gcd(level.den, *nums) == 1
        # a word p_k s^j has degree |k| + 2j <= n
        for idx, word in enumerate(level.words):
            assert all(abs(n - 2 * bin(idx).count("1")) + 2 * j <= n for j in word)


def test_development_of_reduced_tensor_equals_radial_levels(state):
    """M(pi_n) e3 folded from the words in f, fbar (the reference
    fold_letters) is (x A_n/r, y A_n/r, C_n) of the radial route, as
    polynomials, through level 16; at the origin origin_development gives
    the same vector (0, 0, a_n)."""
    s_powers = [XY({(0, 0): 1})]
    for _ in range(8):
        s_powers.append(s_powers[-1] * (X * X + Y * Y))
    a_list, c_list = radial_levels(16)
    for n in range(17):
        a_over_r = sum((q * s_powers[m // 2] for m, q in a_list[n].items()), XY())
        c_n = sum((q * s_powers[m // 2] for m, q in c_list[n].items()), XY())
        level = state.reduced(n)
        parts = [zpoly_parts(c, level.den) for c in fold_letters(word_polys(level))]
        real, imag = (tuple(p[i] for p in parts) for i in (0, 1))
        assert real == (X * a_over_r, Y * a_over_r, c_n), n
        assert not any(imag), n
        assert origin_development(origin_values(state, n)) == tuple(c.evaluate(0, 0) for c in real), n


def test_origin_values_vanish_where_the_unit_is_imaginary(state):
    # pi_n is real, so an e-word with an odd number of e2 letters has
    # value 0 at the origin; origin_development relies on it
    for n in range(13):
        vals, _ = origin_values(state, n)
        assert not any(v for idx, v in enumerate(vals) if idx.bit_count() % 2), n


def test_developed_rhs_is_the_generic_matrix_form(state):
    """-2 (M(e1) dV/dx + M(e2) dV/dy) - (M(e1)^2 + M(e2)^2) V_{n-2}, with
    every matrix product spelled out over the reference 3x3 algebra and
    every derivative taken in x, y: the x, y view of each developed level
    has it as Laplacian, and so does developed_rhs, and the view is zero
    on the circle, through level 16."""
    msq = tuple(tuple(p + q for p, q in zip(row1, row2))
                for row1, row2 in zip(mat_mul(M1, M1), mat_mul(M2, M2)))
    for n in range(2, 17):
        prev = tuple(developed_view(state, n - 1))
        t1 = mat_vec(M1, tuple(partial_xy(c, 0) for c in prev))
        t2 = mat_vec(M2, tuple(partial_xy(c, 1) for c in prev))
        t3 = mat_vec(msq, tuple(developed_view(state, n - 2)))
        want = tuple(-2 * (t1[k] + t2[k]) - t3[k] for k in range(3))
        view = tuple(developed_view(state, n))
        assert tuple(laplacian_xy(c) for c in view) == want, n
        assert all(vanishes_on_circle(c) for c in view), n
        rhs = developed_rhs(state, n)
        assert tuple(zpoly_parts(c, rhs.den) for c in rhs.comps) == tuple(
            (w, XY()) for w in want), n


def test_a_coefficients_fixtures():
    a_vals = a_coefficients(8)
    assert a_vals[0] == 1
    assert a_vals[2] == F(1, 2)
    assert a_vals[4] == F(1, 16)
    assert a_vals[6] == F(1, 192)
    assert a_vals[8] == F(11, 18432)
    assert a_vals[1] == a_vals[3] == a_vals[5] == a_vals[7] == 0


def test_dev_coefficient_off_origin(state):
    assert developed_at(state, 2, F(1, 2), F(0)) == (0, 0, F(3, 8))
    assert list(developed_values(2, F(1, 2), F(0)))[2] == (0, 0, F(3, 8))


def test_radial_reduction_matches_bivariate(state):
    """On the positive x-axis, V_n = (A_n(r), 0, C_n(r)) exactly."""
    a_list, c_list = radial_levels(10)
    for n in range(11):
        for r in (F(0), F(1, 3), F(3, 4), F(1)):
            a_val = sum((coef * r ** m for m, coef in a_list[n].items()), F(0))
            c_val = sum((coef * r ** m for m, coef in c_list[n].items()), F(0))
            assert developed_at(state, n, r, F(0)) == (a_val, 0, c_val)
    # off the axis the production triples equal the bivariate oracle
    for x, y in ((F(1, 2), F(1, 3)), (F(-3, 5), F(4, 5)), (F(0), F(2, 3)),
                 (F(-1, 7), F(-5, 6)), (F(0), F(0))):
        values = list(developed_values(16, x, y))
        assert len(values) == 17
        for n in range(17):
            assert values[n] == developed_at(state, n, x, y)


def test_developed_values_rejects_broken_parity(monkeypatch):
    a_list, c_list = radial_levels(4)
    c_list[4] = {**c_list[4], 3: F(1)}  # an odd power in C_4
    monkeypatch.setattr(hierarchy, "radial_levels", lambda n: (a_list, c_list))
    with pytest.raises(ArithmeticError):
        list(developed_values(4, F(1, 2), F(1, 3)))


def test_integer_radial_route_matches_the_fraction_recursion():
    # value for value through level 200; the Fraction recursion keeps some
    # explicit zeros, which the integer route leaves out
    ref_a, ref_c = radial_levels_fraction(200)
    new_a, new_c = radial_levels(200)
    for ref_list, new_list in ((ref_a, new_a), (ref_c, new_c)):
        assert len(new_list) == 201
        for ref, new in zip(ref_list, new_list):
            assert dict(new.items()) == {m: q for m, q in ref.items() if q}
            assert all(new.nums.values())
    # A_n and C_n share one positive denominator, reduced once per level
    for a_n, c_n in zip(new_a, new_c):
        assert a_n.den == c_n.den > 0
        assert math.gcd(a_n.den, *a_n.nums.values(), *c_n.nums.values()) == 1
    assert a_coefficients(200) == [c.get(0, F(0)) for c in ref_c]


def test_radial_ball_route_contains_exact():
    exact_a, exact_c = radial_levels(200)
    ball_a, ball_c = radial_levels_ball(200, 128)
    for exact_list, ball_list in ((exact_a, ball_a), (exact_c, ball_c)):
        for n in range(201):
            assert exact_list[n].keys() == ball_list[n].keys()
            for m, q in exact_list[n].items():
                b = ball_list[n][m]
                assert isinstance(b, RealBall)
                assert b.contains(q)


def test_level_norms_fixture(state):
    norms = level_norms(origin_values(state, 2))
    assert norms.l1 == F(1, 2)
    assert norms.l2sq == F(1, 8)
    assert norms.l2sq <= norms.l1 ** 2


def test_radius_estimate_geometric_oracle():
    # a_{2k} = 3^{-k} gives lhat_k = sqrt(3) for every k
    coeffs = []
    for k in range(7):
        coeffs.extend([F(1, 3 ** k), F(0)])
    ests = radius_estimate(coeffs)
    assert len(ests) > 0
    for est in ests:
        assert est == pytest.approx(3 ** 0.5, rel=1e-12)


def test_radius_estimate_error_paths():
    with pytest.raises(ValueError):
        radius_estimate([F(1), F(0), F(0), F(0), F(1)])  # vanishing even term
    with pytest.raises(ValueError):
        radius_estimate([F(1), F(0), F(-1), F(0), F(1)])  # sign flip
    assert radius_estimate([F(1), F(0), F(2)]) == []  # too short


def test_radius_estimates_drift_toward_bracket():
    a_vals = a_coefficients(24)
    ests = radius_estimate(a_vals)
    assert 2.5 < ests[-1] < 3.0
