"""Exact solution of the expected-signature PDE hierarchy on the unit disk.

Level n of the expected signature solves a Poisson problem driven by
levels n-1 and n-2:

    lap pi_n = -2 sum_i e_i o d(pi_{n-1})/dz_i  -  (sum_i e_i o e_i) o pi_{n-2}

with zero boundary values for n >= 1 and pi_0 = 1, pi_1 = 0.

The tensor hierarchy in the letters f = e1 + i e2 and fbar = e1 - i e2.
With d/dz = (d/dx - i d/dy)/2 and d/dzbar = (d/dx + i d/dy)/2,

    sum_i e_i o d/dz_i = f o d/dz + fbar o d/dzbar,
    sum_i e_i o e_i    = (f o fbar + fbar o f) / 2,

so writing pi_n = sum_w Psi_w f_w over the words w in {f, fbar}^n, the
level equation holds word by word:

    lap Psi_{abw''} = -2 D_a Psi_{bw''} - (1/2) [a != b] Psi_{w''},

D_f = d/dz, D_fbar = d/dzbar, every coefficient real and rational.  By
rotation equivariance Psi_w = p_k Q_w(s), where k = #f - #fbar,
p_k = zbar^k for k >= 0 and z^(-k) for k < 0, s = |z|^2 and Q_w is a
univariate rational polynomial.  On these terms lap = 4 d/dz d/dzbar acts
diagonally, lap(p_k s^j) = 4 j (j + |k|) p_k s^(j-1), and p_k itself is
harmonic, so each word is one diagonal solve plus a constant that makes
Q_w(1) = 0 (the zero boundary value).  D_a raises |k| by one (p_k Q ->
p_k' Q'(s)) or lowers it (p_k Q -> p_k' (|k| Q + s Q'(s))).  pi_n is
real, so Psi_wbar = conj(Psi_w) for the conjugate word wbar (every
letter swapped): conj(zbar^k Q(s)) = z^k Q(s), that is Q_wbar = Q_w with
k -> -k.  Each level is therefore solved for the words whose first
letter is f only, on integer numerators over one denominator per level,
reduced once per level (ReducedLevel).  This is the only tensor route:
HierarchyState.tensor_z expands a level into its 2^n e-word ZPolys by
the butterfly (1, 1; i, -i) over each letter, and level_norms and
origin_development run the same butterfly on the values at the origin.
A level's residual verdict re-checks the solve's own division by
4 j (j + |k|), not the derivation of its right-hand side; the checks
independent of that derivation are the fold of the expanded level
against the developed level and, at every level, the fold of its value
at the origin against the radial a_n (see the hierarchy subcommand).

The same recursion, pushed through the hyperbolic development and
applied to (0, 0, 1), closes on a 3-vector of polynomials V_n:

    lap V_n = -2 sum_i M(e_i) d(V_{n-1})/dz_i  -  (sum_i M(e_i)^2) V_{n-2}

with sum_i M(e_i)^2 = diag(1, 1, 2); developed_rhs applies the first
term through development.m_action and the diagonal entry by entry, so
no 3x3 matrix is formed.  By rotation equivariance V_n
reduces further to a radial pair (A_n, C_n) of univariate polynomials,
solved diagonally; that radial recursion (disksig.radial) is the
production route for a_n and V_n.  `radius` and `compare` execute none
of this module, and `develop` runs it only for its point check against
the tensor fold.  This module holds the two oracles that the
`hierarchy` subcommand runs: the tensor hierarchy and the bivariate
developed hierarchy (three polynomials per level), kept at bounded
depth.  Each level of either hierarchy records, when it is solved,
whether every component's Laplacian equals its right-hand side
exactly, and the checks read that verdict next to the zero boundary
values.  Everything here is exact; radial_levels_ball only encloses the
exact radial levels in balls.

The bivariate developed hierarchy runs on ZPolys, polynomials in z and
zbar, with one denominator per level, reduced once per level
(HierarchyState.developed_z).  There the Dirichlet problem is diagonal
(see exactpoly): a term c z^a zbar^b of the right-hand side is absorbed
by c/(4(a+1)(b+1)) z^(a+1) zbar^(b+1), and the harmonic extension of
that particular solution's boundary trace, z^(a-b) or zbar^(b-a), is
subtracted.

Both hierarchies are checked in z and zbar: a level is real when each
of its ZPolys equals its conjugate, and a tensor level folds
(development.fold_apply) to the developed level of the same index.
x and y are an output value only: a caller that writes a dump or
evaluates at a point takes the real part of each ZPoly over the level's
denominator (exactpoly.ZPoly.real_part); nothing here builds x, y.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from . import radial
from .development import fold_apply, m_action
from .exactpoly import ZPoly, boundary_trace, harmonic_extension, laplacian

# a_n and the radial levels are computed in disksig.radial; the benchmark's
# tracer and checks look them up here by name, so they stay bound here
a_coefficients = radial.a_coefficients
radial_levels = radial.radial_levels


def solve_poisson_zero_bd(f: ZPoly, scale: int) -> ZPoly:
    """The unique u with lap(u) = scale * f exactly and zero trace on the
    circle, for a scale that 4(a+1)(b+1) divides for every term
    z^a zbar^b of f (poisson_scale gives the least).

    Particular solution: each term c z^a zbar^b of f gives
    c scale/(4(a+1)(b+1)) z^(a+1) zbar^(b+1).  Boundary correction:
    subtract the harmonic extension of the particular solution's trace.
    """
    particular = ZPoly({(a + 1, b + 1, e): v * (scale // (4 * (a + 1) * (b + 1)))
                        for (a, b, e), v in f.terms()})
    return particular - harmonic_extension(boundary_trace(particular))


def poisson_scale(polys) -> int:
    """The lcm of 4(a+1)(b+1) over the terms z^a zbar^b of polys: the
    least scale at which solve_poisson_zero_bd solves each of them in
    integers."""
    return math.lcm(*{4 * (a + 1) * (b + 1) for f in polys for (a, b, _), _ in f.terms()})


class DevelopedLevel(namedtuple("DevelopedLevel", "comps den")):
    """The three components of a developed level V_n, or of its
    right-hand side, as ZPolys of integer numerators over the positive
    denominator den."""

    __slots__ = ()


class ReducedLevel(namedtuple("ReducedLevel", "n words den")):
    """Level n of the tensor hierarchy in the letters f, fbar.

    words[idx] maps each power j of s to the integer numerator of q_j,
    Q_w(s) = sum_j q_j s^j, over the positive denominator den, for the
    2^(n-1) words whose first letter is f, in lexicographic order (f
    before fbar; level 0 holds the empty word).
    """

    __slots__ = ()

    def entries(self) -> list:
        """The numerator maps of all 2^n words in lexicographic order: the
        conjugate of word idx sits at 2^n - 1 - idx and has the same Q."""
        return self.words + self.words[::-1] if self.n else self.words


def _k(n: int, idx: int) -> int:
    """k = #f - #fbar of word idx of level n, whose set bits are its fbars."""
    return n - 2 * idx.bit_count()


class HierarchyState:
    """Computed levels of both hierarchies, extended on demand.

    reduced_levels[n] is a ReducedLevel, developed_levels[n] a
    DevelopedLevel.
    Levels 0 and 1 are definitions; level n >= 2 needs only n-1 and n-2,
    so extension is a simple sequential sweep that solves the level's
    right-hand side and records, in residual_ok[name][n], whether every
    solved word or component has its right-hand side as Laplacian
    exactly.  One writer at a time; reads between level completions are
    safe.
    """

    def __init__(self):
        self.reduced_levels: list[ReducedLevel] = [
            ReducedLevel(0, [{0: 1}], 1), ReducedLevel(1, [{}], 1)]
        self.developed_levels: list[DevelopedLevel] = [
            DevelopedLevel((ZPoly(), ZPoly(), ZPoly({(0, 0, 0): 1})), 1),
            DevelopedLevel((ZPoly(), ZPoly(), ZPoly()), 1)]
        self.residual_ok = {"tensor": [True, True], "developed": [True, True]}

    def reduced(self, n: int) -> ReducedLevel:
        if n < 0:
            raise ValueError("negative level")
        while len(self.reduced_levels) <= n:
            rhs = tensor_rhs(self, len(self.reduced_levels))
            level = solve_reduced_level(rhs)
            self.residual_ok["tensor"].append(_reduced_residual_ok(level, rhs))
            self.reduced_levels.append(level)
        return self.reduced_levels[n]

    def tensor_z(self, n: int) -> tuple:
        """(values, den): level n in the e-basis, the 2^n e-word ZPolys in
        lexicographic order over the level's denominator, from the
        butterfly (1, 1; i, -i) over every letter of the words'
        polynomials (f -> e1 + i e2, fbar -> e1 - i e2).  Each call
        expands the level afresh."""
        level = self.reduced(n)
        work = word_polys(level)
        for _ in range(n):  # the last letter, then moved to the front
            work = ([p + q for p, q in zip(work[::2], work[1::2])]
                    + [(p - q).mul_i() for p, q in zip(work[::2], work[1::2])])
        return work, level.den

    def developed_z(self, n: int) -> DevelopedLevel:
        """Level n in z and zbar: each level is solved at one scale for its
        three components, its residual verdict recorded, and reduced once."""
        if n < 0:
            raise ValueError("negative level")
        while len(self.developed_levels) <= n:
            rhs = developed_rhs(self, len(self.developed_levels))
            scale = poisson_scale(rhs.comps)
            solved = [solve_poisson_zero_bd(f, scale) for f in rhs.comps]
            self.residual_ok["developed"].append(
                all(laplacian(u) == f * scale for u, f in zip(solved, rhs.comps)))
            common = math.gcd(rhs.den * scale, *(v for u in solved for _, v in u.terms()))
            self.developed_levels.append(DevelopedLevel(
                tuple(ZPoly({key: v // common for key, v in u.terms()}) for u in solved),
                rhs.den * scale // common))
        return self.developed_levels[n]


def tensor_rhs(self: HierarchyState, n: int) -> ReducedLevel:
    """Right-hand side of level n >= 2 in the letters f, fbar, for the
    words w = f b w'' (first letter f):

        -2 d/dz Psi_{bw''} - (1/2) [b = fbar] Psi_{w''},

    over the lcm of level n-1's denominator and twice level n-2's.  With
    k the tail's k, d/dz(zbar^k s^j) = j zbar^(k+1) s^(j-1) for k >= 0 and
    d/dz(z^m s^j) = (m + j) z^(m-1) s^j for m = -k > 0.
    """
    if n < 2:
        raise ValueError("RHS defined for n >= 2")
    prev, prev2 = self.reduced(n - 1), self.reduced(n - 2)
    tails, rests = prev.entries(), prev2.entries()
    den = math.lcm(prev.den, 2 * prev2.den)
    k1, k2 = den // prev.den, den // (2 * prev2.den)
    quarter = 1 << (n - 2)
    words = []
    for idx in range(1 << (n - 1)):  # the tail b w'' is word idx of level n-1
        k = _k(n - 1, idx)
        if k >= 0:
            rhs = {j - 1: -2 * k1 * j * c for j, c in tails[idx].items() if j}
        else:
            rhs = {j: 2 * k1 * (k - j) * c for j, c in tails[idx].items()}
        if idx >= quarter:  # b = fbar, w'' = idx - quarter
            for j, c in rests[idx - quarter].items():
                v = rhs.get(j, 0) - k2 * c
                if v:
                    rhs[j] = v
                else:
                    del rhs[j]
        words.append(rhs)
    return ReducedLevel(n, words, den)


def solve_reduced_level(rhs: ReducedLevel) -> ReducedLevel:
    """Psi_w = p_k Q_w(s) with lap Psi_w = rhs_w and Q_w(1) = 0, per word.

    lap(p_k s^j) = 4 j (j + |k|) p_k s^(j-1), so q_(j+1) = r_j / (4 (j+1)
    (j+1+|k|)); the harmonic constant q_0 = -sum_{j>=1} q_j meets
    Q_w(1) = 0.  The divisions go to one lcm for the level, and the level
    is reduced once.
    """
    n = rhs.n
    pairs = [(abs(_k(n, idx)), r) for idx, r in enumerate(rhs.words)]
    q = math.lcm(*{4 * (j + 1) * (j + 1 + a) for a, r in pairs for j in r})
    words = []
    for a, r in pairs:
        word = {j + 1: c * (q // (4 * (j + 1) * (j + 1 + a))) for j, c in r.items()}
        if word:
            word[0] = -sum(word.values())
        words.append(word)
    den = rhs.den * q
    common = math.gcd(den, *(c for word in words for c in word.values()))
    return ReducedLevel(n, [{j: c // common for j, c in word.items() if c}
                            for word in words], den // common)


def _reduced_residual_ok(level: ReducedLevel, rhs: ReducedLevel) -> bool:
    """Whether lap Psi_w equals rhs_w exactly for every solved word, with
    lap(p_k s^j) = 4 j (j + |k|) p_k s^(j-1), compared over both
    denominators."""
    for idx, (word, r) in enumerate(zip(level.words, rhs.words)):
        a = abs(_k(level.n, idx))
        lap = {j - 1: 4 * j * (j + a) * c * rhs.den for j, c in word.items() if j}
        if lap != {j: c * level.den for j, c in r.items()}:
            return False
    return True


def word_polys(level: ReducedLevel) -> list:
    """Psi_w for all 2^n words of a level, as ZPolys over level.den:
    zbar^k s^j = z^j zbar^(j+k) and z^m s^j = z^(j+m) zbar^j."""
    out = []
    for idx, word in enumerate(level.entries()):
        k = _k(level.n, idx)
        a, b = max(-k, 0), max(k, 0)
        out.append(ZPoly({(j + a, j + b, 0): c for j, c in word.items()}))
    return out


def developed_rhs(self: HierarchyState, n: int) -> DevelopedLevel:
    """Right-hand side 3-vector for the developed level-n problem, n >= 2:

        -2 (M(e1) dV_{n-1}/dx + M(e2) dV_{n-1}/dy) - diag(1, 1, 2) V_{n-2}

    over the lcm of both levels' denominators, with d/dx = d/dz + d/dzbar
    and d/dy = i (d/dz - d/dzbar).
    """
    if n < 2:
        raise ValueError("RHS defined for n >= 2")
    prev, prev2 = self.developed_z(n - 1), self.developed_z(n - 2)
    den = math.lcm(prev.den, prev2.den)
    k1, k2 = -2 * (den // prev.den), den // prev2.den
    dz = [c.d_z() for c in prev.comps]
    dzbar = [c.d_zbar() for c in prev.comps]
    first = m_action(tuple(p + q for p, q in zip(dz, dzbar)),
                     tuple((p - q).mul_i() for p, q in zip(dz, dzbar)))
    return DevelopedLevel(tuple(m * k1 - q * (k2 * w) for m, q, w
                                in zip(first, prev2.comps, (1, 1, 2))), den)


class LevelNorms(namedtuple("LevelNorms", "l1 l2sq")):
    """Coefficient-norm bracket of pi_n at the origin: l2 <= projective <= l1."""

    __slots__ = ()


def level_norms(origin: tuple) -> LevelNorms:
    """l1 and squared l2 norms of the tensor pi_n(Phi(0)), from the
    reduced level's values at the origin, origin = origin_values(state,
    n); the units i^p do not change a norm."""
    vals, den = origin
    return LevelNorms(l1=Fraction(sum(map(abs, vals)), den),
                      l2sq=Fraction(sum(v * v for v in vals), den * den))


def origin_development(origin: tuple) -> tuple:
    """M(pi_n(0)) e3 as three Fractions, folded (development.fold_apply)
    from the reduced level's values at the origin, origin =
    origin_values(state, n).

    The e-word entry with p letters e2 is i^p v over den.
    pi_n is real by construction (a conjugate word has the same Q), so
    v = 0 where p is odd and the entry is (-1)^(p/2) v where p is even.
    The radial route gives (0, 0, a_n) for the same vector.
    """
    vals, den = origin
    signed = [-v if idx.bit_count() % 4 == 2 else v for idx, v in enumerate(vals)]
    return tuple(Fraction(c, den) for c in fold_apply(signed))


def origin_values(state: HierarchyState, n: int) -> tuple:
    """(vals, den): pi_n at the origin in the e-basis, up to units.

    At the origin only the words with k = 0 are nonzero, each equal to
    q_0.  The e-basis values come from n butterfly passes with
    (1, 1; i, -i) = diag(1, i) (1, 1; 1, -1): the real passes run on the
    integer numerators, and the factors i collect into a unit i^p per
    e-word, p its number of e2 letters; entry idx is i^p vals[idx] / den.
    """
    level = state.reduced(n)
    vals = [word.get(0, 0) if _k(n, idx) == 0 else 0
            for idx, word in enumerate(level.entries())]
    for _ in range(n):
        evens, odds = vals[::2], vals[1::2]
        vals = [a + b for a, b in zip(evens, odds)] + [a - b for a, b in zip(evens, odds)]
    return vals, level.den


# -- exactness checks (used by tests and by the CLI's embedded verification) --

def tensor_checks(state: HierarchyState, n: int) -> dict:
    """Exact residual and boundary verification for tensor level n: the
    reduced level's recorded residual verdict, and Q_w(1) = 0 for every
    solved word.  The verdict recomputes lap Psi_w by the same rule
    lap(p_k s^j) = 4 j (j + |k|) p_k s^(j-1) that the solve divides by,
    so it checks the division, not tensor_rhs; origin_development and
    the fold against the developed level check those."""
    return _checks(state.residual_ok["tensor"], n,
                   (not sum(word.values()) for word in state.reduced(n).words))


def developed_checks(state: HierarchyState, n: int) -> dict:
    """Exact residual and boundary verification for developed level n."""
    return _checks(state.residual_ok["developed"], n,
                   (not boundary_trace(c) for c in state.developed_z(n).comps))


def _checks(residual_ok: list, n: int, on_circle) -> dict:
    """Level n's recorded residual verdict, and zero boundary values
    (every item of on_circle true) when n >= 1; level 0 is the
    definition pi_0 = 1."""
    return {"residual_ok": residual_ok[n], "boundary_ok": n == 0 or all(on_circle)}


def radial_levels_ball(n_max: int, prec: int):
    """RealBall enclosures, at `prec` bits, of the exact (A_n, C_n) maps.

    Unused by the CLI; kept under this name for the benchmark's tracer.
    """
    from .balls import RealBall

    return tuple([{m: RealBall.from_rational(q, prec) for m, q in level.items()}
                  for level in levels] for levels in radial_levels(n_max))
