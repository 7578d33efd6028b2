"""Development layer: the matrix word map, folding, and partial sums."""

from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from disksig.development import Vec3Poly, fold_apply, m_action, partial_sum_F
from disksig.exactpoly import Poly2, ZPoly
from reference import (M1, M2, TensorPoly, developed_view, fold_apply_naive,
                       fold_letters, identity3, m_of_vector, m_word, mat_mul,
                       mat_vec, tensor_view, words)

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
vectors = st.tuples(rationals, rationals, rationals)
E3 = (F(0), F(0), F(1))


def test_m_of_basis_vectors():
    m1 = m_of_vector((F(1), F(0)))
    m2 = m_of_vector((F(0), F(1)))
    assert m1 == ((0, 0, 1), (0, 0, 0), (1, 0, 0))
    assert m2 == ((0, 0, 0), (0, 0, 1), (0, 1, 0))


def test_sum_of_squared_basis_matrices_is_diag_1_1_2():
    """sum_i M(e_i)^2, the coefficient of V_{n-2} in hierarchy.developed_rhs."""
    m1sq, m2sq = mat_mul(M1, M1), mat_mul(M2, M2)
    msq = tuple(tuple(m1sq[i][j] + m2sq[i][j] for j in range(3)) for i in range(3))
    assert msq == ((1, 0, 0), (0, 1, 0), (0, 0, 2))


@given(vectors, vectors)
@settings(max_examples=100, deadline=None)
def test_m_action_is_the_basis_matrices_applied(a, b):
    want = tuple(p + q for p, q in zip(mat_vec(M1, a), mat_vec(M2, b)))
    assert m_action(a, b) == want


def test_m_word_fixtures():
    assert m_word("12") == ((0, 1, 0), (0, 0, 0), (0, 0, 0))
    assert m_word("11") == ((1, 0, 0), (0, 0, 0), (0, 0, 1))
    assert m_word("") == identity3()


@given(st.text(alphabet="12", max_size=6), st.text(alphabet="12", max_size=6))
@settings(max_examples=100, deadline=None)
def test_m_word_is_multiplicative(u, v):
    assert m_word(u + v) == mat_mul(m_word(u), m_word(v))


@given(rationals, rationals)
@settings(max_examples=100, deadline=None)
def test_quarter_turn_equivariance(x, y):
    """Rotating the vector conjugates M by the block rotation R + 1."""
    rot = ((F(0), F(-1), F(0)), (F(1), F(0), F(0)), (F(0), F(0), F(1)))
    rot_t = ((F(0), F(1), F(0)), (F(-1), F(0), F(0)), (F(0), F(0), F(1)))
    lhs = m_of_vector((-y, x))
    rhs = mat_mul(rot, mat_mul(m_of_vector((x, y)), rot_t))
    assert lhs == rhs


def random_tensor(rng, level):
    t = TensorPoly.zeros(level)
    for idx in range(2 ** level):
        if rng.random() < 0.5:
            i, j = rng.randrange(3), rng.randrange(3)
            t.entries[idx] = Poly2.monomial(i, j, F(rng.randrange(-9, 10), 4))
    return t


@given(st.integers(0, 6), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_fold_matches_brute_force(level, rng):
    t = random_tensor(rng, level)
    assert fold_apply(t.entries) == fold_apply_naive(t, E3)


@given(st.integers(0, 6), st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_fold_over_integers_and_zpolys_matches_brute_force(level, rng):
    """fold_apply over int entries, and over ZPolys, is the brute-force
    fold of the same entries as Poly2s."""
    ints = [rng.randrange(-9, 10) if rng.random() < 0.5 else 0
            for _ in range(2 ** level)]
    t = TensorPoly(level, [Poly2.const(v) for v in ints])
    assert tuple(map(Poly2.const, fold_apply(ints))) == fold_apply_naive(t, E3)
    values = random_letter_values(rng, level)
    real = TensorPoly(level, [v.parts(1)[0] for v in values])
    assert tuple(c.parts(1)[0] for c in fold_apply(values)) == fold_apply_naive(real, E3)


def test_fold_of_level2_solution(state):
    """Folding pi_2 against e3 gives (0, 0, (1 - x^2 - y^2)/2)."""
    c1, c2, c3 = fold_apply(tensor_view(state, 2).entries)
    x2 = Poly2.monomial(2, 0)
    y2 = Poly2.monomial(0, 2)
    assert not c1
    assert not c2
    assert c3 == (Poly2.const(1) - x2 - y2) * F(1, 2)


def test_fold_against_explicit_sum(state):
    """fold(pi_n) = sum_w pi_n[w] M(w) e3, spelled out longhand."""
    t = tensor_view(state, 3)
    acc = Vec3Poly(Poly2.zero(), Poly2.zero(), Poly2.zero())
    for w in words(3):
        column = mat_vec(m_word(w), E3)
        acc = acc + Vec3Poly(*(t.entry(w) * c for c in column))
    assert fold_apply(t.entries) == tuple(acc)


def test_fold_letters_on_level2_words():
    # M(f) M(fbar) e3 = M(f) (1, -i, 0) = (0, 0, 2), M(f) M(f) e3 = 0, and
    # M(fbar) M(f) e3 = (0, 0, 2): f = e1 + i e2 and fbar = e1 - i e2
    one, zero = ZPoly({(0, 0, 0): 1}), ZPoly()
    two = ZPoly({(0, 0, 0): 2})
    assert fold_letters([one, zero, zero, zero]) == (zero, zero, zero)
    assert fold_letters([zero, one, zero, zero]) == (zero, zero, two)
    assert fold_letters([zero, zero, one, zero]) == (zero, zero, two)
    # a single letter: M(f) e3 = (1, i, 0)
    assert fold_letters([one, zero]) == (one, one.mul_i(), zero)


def random_letter_values(rng, level):
    values = []
    for _ in range(2 ** level):
        terms = {}
        for _ in range(rng.randrange(3)):
            key = (rng.randrange(3), rng.randrange(3), rng.randrange(2))
            terms[key] = rng.randrange(-9, 10)
        values.append(ZPoly(terms))
    return values


@given(st.integers(0, 5), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_fold_letters_matches_fold_apply_in_the_e_basis(level, rng):
    """The e-word w of T = sum_u T_u f_u is sum_u T_u prod_k c(u_k, w_k),
    with c(f, e1) = c(fbar, e1) = 1, c(f, e2) = i and c(fbar, e2) = -i;
    fold_apply folds its real and imaginary parts."""
    values = random_letter_values(rng, level)
    real, imag = TensorPoly.zeros(level), TensorPoly.zeros(level)
    for w_idx in range(2 ** level):
        acc = ZPoly()
        for u_idx, value in enumerate(values):
            term = value
            for k in range(level):
                if (w_idx >> k) & 1:  # e2 at this letter
                    term = term.mul_i()
                    if (u_idx >> k) & 1:  # fbar: -i
                        term = ZPoly() - term
            acc = acc + term
        real.entries[w_idx], imag.entries[w_idx] = acc.parts(1)
    folded = [c.parts(1) for c in fold_letters(values)]
    assert tuple(re for re, _ in folded) == fold_apply(real.entries)
    assert tuple(im for _, im in folded) == fold_apply(imag.entries)


def values_at(state, z, n_max):
    """Exact triples V_0(z) .. V_N(z) from the bivariate developed hierarchy."""
    return [developed_view(state, n).evaluate(*z) for n in range(n_max + 1)]


def test_partial_sum_trivial_cases(state):
    assert partial_sum_F(F(7, 3), values_at(state, (F(1, 5), F(-1, 7)), 0)) == (0, 0, 1)
    # on the circle every V_n with n >= 1 vanishes, so any partial sum is e3
    assert partial_sum_F(F(2), values_at(state, (F(3, 5), F(4, 5)), 2)) == (0, 0, 1)
    # N = 2 at the origin picks up a_2 = 1/2
    assert partial_sum_F(1, values_at(state, (0, 0), 2)) == (0, 0, F(3, 2))


def test_partial_sum_axis_symmetry(state):
    for xq in (F(0), F(1, 3), F(-2, 5)):
        val = partial_sum_F(F(1, 2), values_at(state, (xq, F(0)), 8))
        assert val[1] == 0
