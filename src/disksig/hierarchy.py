"""Exact solution of the expected-signature PDE hierarchy on the unit disk.

Level n of the expected signature solves a Poisson problem driven by
levels n-1 and n-2:

    lap pi_n = -2 sum_i e_i o d(pi_{n-1})/dz_i  -  (sum_i e_i o e_i) o pi_{n-2}

with zero boundary values for n >= 1 and pi_0 = 1, pi_1 = 0.  The same
recursion, pushed through the hyperbolic development and applied to
(0, 0, 1), closes on a 3-vector of polynomials V_n:

    lap V_n = -2 sum_i M(e_i) d(V_{n-1})/dz_i  -  (sum_i M(e_i)^2) V_{n-2}

with sum_i M(e_i)^2 = diag(1, 1, 2); developed_rhs applies the first
term through development.m_action and the diagonal entry by entry, so
no 3x3 matrix is formed.  By rotation equivariance V_n
reduces further to a radial pair (A_n, C_n) of univariate polynomials,
solved diagonally; that radial recursion is the production route for
a_n and V_n.  It runs on integer numerators over one denominator per
level, reduced once per level, and builds a Fraction only for a
coefficient a caller reads (RadialMap).  The tensor hierarchy (2^n
entries per level) and the bivariate developed hierarchy (three
polynomials per level) are kept as independent oracles at bounded
depth; each level records, when it is solved, whether every
component's Laplacian equals its right-hand side exactly, and the
checks read that verdict next to a zero boundary trace.  Everything
here is exact; radial_levels_ball only encloses the exact radial levels
in balls.

The elementary Dirichlet solver: a particular polynomial solution of
lap u = f found monomial by monomial (the undetermined-coefficient
system is triangular when processed by descending y-degree, see
exactpoly.poisson_particular), corrected by the harmonic extension of
its boundary trace.
"""

from __future__ import annotations

import math
from collections import namedtuple
from collections.abc import Iterator, Mapping
from fractions import Fraction

from .development import Vec3Poly, m_action
from .exactpoly import (Poly2, TensorPoly, as_rat, boundary_trace,
                        harmonic_extension, laplacian, poisson_particular)


def solve_poisson_zero_bd(f: Poly2) -> Poly2:
    """The unique u with lap(u) = f exactly and zero trace on the circle.

    Particular solution: exactpoly.poisson_particular, one integer sweep
    over the y-degree rows of f from the highest down, each term
    c x^a y^b absorbed by c x^{a+2} y^b / ((a+1)(a+2)) and its correction
    passed two rows down.  Boundary correction: subtract the harmonic
    extension of the particular solution's trace.
    """
    if f.is_zero():
        return Poly2.zero()
    u_p = poisson_particular(f)
    return u_p - harmonic_extension(boundary_trace(u_p))


class HierarchyState:
    """Computed levels of both hierarchies, extended on demand.

    tensor_levels[n] is a TensorPoly (2^n entries), developed_levels[n]
    a Vec3Poly.  Levels 0 and 1 are definitions; level n >= 2 needs only
    n-1 and n-2, so extension is a simple sequential sweep that solves
    each component of the level's right-hand side and records, in
    residual_ok[name][n], whether every solved component's Laplacian
    equals its right-hand side exactly.  One writer at a time; reads
    between level completions are safe.
    """

    def __init__(self):
        self.tensor_levels: list[TensorPoly] = [
            TensorPoly(0, [Poly2.const(1)]), TensorPoly.zeros(1)]
        self.developed_levels: list[Vec3Poly] = [
            Vec3Poly(Poly2.zero(), Poly2.zero(), Poly2.const(1)), Vec3Poly.zero()]
        self.residual_ok = {"tensor": [True, True], "developed": [True, True]}

    def tensor(self, n: int) -> TensorPoly:
        if n < 0:
            raise ValueError("negative level")
        while len(self.tensor_levels) <= n:
            m = len(self.tensor_levels)
            entries = self._solve("tensor", tensor_rhs(self, m).entries)
            self.tensor_levels.append(TensorPoly(m, entries))
        return self.tensor_levels[n]

    def developed(self, n: int) -> Vec3Poly:
        if n < 0:
            raise ValueError("negative level")
        while len(self.developed_levels) <= n:
            m = len(self.developed_levels)
            self.developed_levels.append(
                Vec3Poly(*self._solve("developed", developed_rhs(self, m))))
        return self.developed_levels[n]

    def _solve(self, name: str, rhs) -> list:
        """Solve each component of rhs; record the exact residual verdict."""
        solved = [solve_poisson_zero_bd(f) for f in rhs]
        self.residual_ok[name].append(
            all(laplacian(u) == f for u, f in zip(solved, rhs)))
        return solved


def tensor_rhs(self: HierarchyState, n: int) -> TensorPoly:
    """Right-hand side tensor of the level-n Poisson problem, n >= 2.

    For word w = (i1, i2, w''): the first-derivative term contributes
    -2 d(pi_{n-1}[i2 w''])/dz_{i1}; the level n-2 term contributes
    -pi_{n-2}[w''] exactly when i1 = i2.
    """
    if n < 2:
        raise ValueError("RHS defined for n >= 2")
    prev = self.tensor(n - 1)
    prev2 = self.tensor(n - 2)
    entries = []
    half = 1 << (n - 1)
    quarter = 1 << (n - 2)
    for idx in range(1 << n):
        first = idx >> (n - 1)              # 0 for letter 1, 1 for letter 2
        rest = idx & (half - 1)
        tail = prev.entries[rest]
        rhs = -2 * (tail.partial_x() if first == 0 else tail.partial_y())
        second = (idx >> (n - 2)) & 1
        if first == second:
            rhs = rhs - prev2.entries[idx & (quarter - 1)]
        entries.append(rhs)
    return TensorPoly(n, entries)


def developed_rhs(self: HierarchyState, n: int) -> tuple:
    """Right-hand side 3-vector for the developed level-n problem, n >= 2:

        -2 (M(e1) dV_{n-1}/dx + M(e2) dV_{n-1}/dy) - diag(1, 1, 2) V_{n-2}
    """
    if n < 2:
        raise ValueError("RHS defined for n >= 2")
    prev = self.developed(n - 1)
    q1, q2, q3 = self.developed(n - 2)
    first = m_action(tuple(c.partial_x() for c in prev),
                     tuple(c.partial_y() for c in prev))
    return tuple(-2 * m - q for m, q in zip(first, (q1, q2, 2 * q3)))


def a_coefficients(n_max: int) -> list:
    """The scalars a_n = C_n(0), the third component of V_n at the origin, n <= N."""
    return [c.get(0, Fraction(0)) for c in radial_levels(n_max)[1]]


def developed_values(n_max: int, x, y) -> Iterator[tuple]:
    """Exact triples V_n(x, y) for n = 0 .. N, from the radial route.

    With r = |(x, y)|, V_n(x, y) = (x A_n(r)/r, y A_n(r)/r, C_n(r)).  Both
    A_n/r and C_n are evaluated as polynomials in s = x^2 + y^2 (see the
    parity note at the radial recursion below), so the result is exact at
    rational points, the origin included.  The triples are yielded one
    level at a time, so a caller that stops early evaluates no later level.
    """
    x, y = as_rat(x), as_rat(y)
    s = x * x + y * y
    a_levels, c_levels = radial_levels(n_max)
    for n, (a_n, c_n) in enumerate(zip(a_levels, c_levels)):
        if any(m % 2 == 0 for m in a_n) or any(m % 2 for m in c_n):
            raise ArithmeticError(f"level {n}: radial parity violated")
        a_over_r = _horner_in_s(a_n, s)
        yield x * a_over_r, y * a_over_r, _horner_in_s(c_n, s)


def _horner_in_s(level: RadialMap, s: Fraction) -> Fraction:
    """sum_m c_m s^(m // 2) for a radial map {m: c_m} of one parity.

    With s = p/q and K the top power of s, the integer Horner sum
    sum_k c_k p^k q^(K-k) over den q^K gives the value as one Fraction.
    """
    p, q = s.numerator, s.denominator
    by_power = {m // 2: c for m, c in level.nums.items()}
    top = max(by_power, default=0)
    acc, q_power = 0, 1
    for k in range(top, -1, -1):
        acc = acc * p + by_power.get(k, 0) * q_power
        q_power *= q
    return Fraction(acc, level.den * q ** top)


class LevelNorms(namedtuple("LevelNorms", "l1 l2sq")):
    """Coefficient-norm bracket of pi_n at the origin: l2 <= projective <= l1."""

    __slots__ = ()


def level_norms(state: HierarchyState, n: int) -> LevelNorms:
    """l1 and squared l2 norms of the tensor pi_n(Phi(0))."""
    t = state.tensor(n)
    vals = [e.coeff(0, 0) for e in t.entries]
    return LevelNorms(l1=sum((abs(v) for v in vals), Fraction(0)),
                      l2sq=sum((v * v for v in vals), Fraction(0)))


def radius_estimate(coeffs) -> list:
    """Ratio diagnostics lhat_k = sqrt(a_{2k} / a_{2k+2}) as floats, k >= 1.

    coeffs is the sequence a_0 .. a_N.  k = 0 is excluded (a_0 = 1 is the
    empty tensor, not part of the even tail pattern), so N < 4 yields no
    estimates.  No convergence claim is made for the sequence; it is
    reported as evidence.  Raises if a used even coefficient vanishes or
    a ratio is negative.
    """
    coeffs = [as_rat(c) for c in coeffs]
    out = []
    k = 1
    while 2 * k + 2 < len(coeffs):
        num = coeffs[2 * k]
        den = coeffs[2 * k + 2]
        if den == 0:
            raise ValueError(f"even coefficient a_{2 * k + 2} vanishes; ratio undefined")
        if num == 0:
            raise ValueError(f"even coefficient a_{2 * k} vanishes; ratio undefined")
        ratio = num / den
        if ratio < 0:
            raise ValueError(f"negative ratio a_{2 * k}/a_{2 * k + 2}; no real estimate")
        out.append(math.sqrt(ratio))
        k += 1
    return out


# -- exactness checks (used by tests and by the CLI's embedded verification) --

def tensor_checks(state: HierarchyState, n: int) -> dict:
    """Exact residual and boundary verification for tensor level n."""
    return _checks(state.residual_ok["tensor"], state.tensor(n).entries, n)


def developed_checks(state: HierarchyState, n: int) -> dict:
    """Exact residual and boundary verification for developed level n."""
    return _checks(state.residual_ok["developed"], state.developed(n), n)


def _checks(residual_ok: list, components, n: int) -> dict:
    """Level n's recorded residual verdict, and a zero trace on the circle
    for every component when n >= 1 (level 0 is the definition pi_0 = 1)."""
    return {"residual_ok": residual_ok[n],
            "boundary_ok": n == 0 or all(boundary_trace(c) == ({}, {})
                                         for c in components)}


# -- radial form of the developed recursion ---------------------------------
#
# By rotation equivariance, V_n(r cos t, r sin t) = (R_t + 1) (A_n, B_n, C_n)(r)
# with B_n = 0.  Matching powers of lambda in the radial ODE system gives
#
#   r^2 A_n'' + r A_n' - A_n = -r^2 A_{n-2} - 2 r^2 C_{n-1}'
#   C_n' + r C_n''           = -2 r C_{n-2} - 2 r A_{n-1}' - 2 A_{n-1}
#
# solved by polynomials in r with A_n(0) = A_n(1) = 0, C_n(1) = 0 (n >= 1).
# On monomials the left sides act diagonally: r^m -> (m^2 - 1) r^m for A,
# h_m r^m -> h_m/(m+1)^2 r^{m+1} for C.  This univariate recursion is the
# production route to A_n, C_n; the bivariate developed hierarchy is an
# independent oracle for the same polynomials (cross-checked in tests).
#
# Parity: A_n has only odd powers of r and C_n only even ones.  By
# induction, if A_{n-2}, A_{n-1} are odd and C_{n-2}, C_{n-1} even, the
# A-source -r^2 A_{n-2} - 2 r^2 C_{n-1}' is odd, the C-source
# -2 r C_{n-2} - 2 r A_{n-1}' - 2 A_{n-1} is odd, so A_n (diagonal solve
# plus an r^1 correction) is odd and C_n (one power up plus an r^0
# correction) is even.  developed_values relies on this and checks it.

class RadialMap(Mapping):
    """A radial coefficient map {power: Fraction}, held as nonzero integer
    numerators over one positive denominator; reading a value builds its
    Fraction, so a caller pays only for the coefficients it reads."""

    __slots__ = ("nums", "den")

    def __init__(self, nums: dict, den: int):
        self.nums, self.den = nums, den

    def __getitem__(self, m) -> Fraction:
        return Fraction(self.nums[m], self.den)

    def __iter__(self):
        return iter(self.nums)

    def __len__(self) -> int:
        return len(self.nums)

    def __repr__(self):
        return f"RadialMap({dict(self.items())!r})"


def radial_levels(n_max: int):
    """Exact univariate (A_n, C_n) coefficient maps {power: Fraction}, n <= N.

    A_n and C_n are RadialMaps over one denominator per level.  Each level
    takes its sources over the lcm of the two levels below, solves the
    diagonal system over one more common factor, and reduces once.
    """
    a_levels: list = [RadialMap({}, 1), RadialMap({}, 1)]
    c_levels: list = [RadialMap({0: 1}, 1), RadialMap({}, 1)]
    for n in range(2, n_max + 1):
        a2, c2 = a_levels[n - 2], c_levels[n - 2]
        a1, c1 = a_levels[n - 1], c_levels[n - 1]
        den = math.lcm(a2.den, a1.den)
        k2, k1 = den // a2.den, den // a1.den
        # g = -r^2 A_{n-2} - 2 r^2 C_{n-1}', numerators over den
        g = {m + 2: -k2 * c for m, c in a2.nums.items()}
        for m, c in c1.nums.items():
            if m:
                g[m + 1] = g.get(m + 1, 0) - 2 * m * k1 * c
        # h = -2 r C_{n-2} - 2 r A_{n-1}' - 2 A_{n-1}, numerators over den
        h = {m + 1: -2 * k2 * c for m, c in c2.nums.items()}
        for m, c in a1.nums.items():
            h[m] = h.get(m, 0) - 2 * (m + 1) * k1 * c
        # the diagonal solves divide by m^2 - 1 (m >= 3) and (m + 1)^2;
        # by parity g has no r^1 and the C-solve no r^0 term to correct
        q = math.lcm(*(m * m - 1 for m in g), *((m + 1) * (m + 1) for m in h))
        a_n = {m: c * (q // (m * m - 1)) for m, c in g.items()}
        if a_n:
            a_n[1] = -sum(a_n.values())
        c_n = {m + 1: c * (q // ((m + 1) * (m + 1))) for m, c in h.items()}
        if c_n:
            c_n[0] = -sum(c_n.values())
        den *= q
        common = math.gcd(den, *a_n.values(), *c_n.values())
        a_levels.append(RadialMap({m: c // common for m, c in a_n.items() if c},
                                  den // common))
        c_levels.append(RadialMap({m: c // common for m, c in c_n.items() if c},
                                  den // common))
    return a_levels[: n_max + 1], c_levels[: n_max + 1]


def radial_levels_ball(n_max: int, prec: int):
    """RealBall enclosures, at `prec` bits, of the exact (A_n, C_n) maps.

    Unused by the CLI; kept under this name for the benchmark's tracer.
    """
    from .balls import RealBall

    return tuple([{m: RealBall.from_rational(q, prec) for m, q in level.items()}
                  for level in levels] for levels in radial_levels(n_max))
