"""Exact solution of the expected-signature PDE hierarchy on the unit disk.

Level n of the expected signature solves a Poisson problem driven by
levels n-1 and n-2:

    lap pi_n = -2 sum_i e_i o d(pi_{n-1})/dz_i  -  (sum_i e_i o e_i) o pi_{n-2}

with zero boundary values for n >= 1 and pi_0 = 1, pi_1 = 0.  The same
recursion, pushed through the hyperbolic development and applied to
(0, 0, 1), closes on a 3-vector of polynomials V_n:

    lap V_n = -2 sum_i M(e_i) d(V_{n-1})/dz_i  -  (sum_i M(e_i)^2) V_{n-2}

with sum_i M(e_i)^2 = diag(1, 1, 2).  By rotation equivariance V_n
reduces further to a radial pair (A_n, C_n) of univariate polynomials,
solved diagonally; that radial recursion is the production route for
a_n and V_n.  The tensor hierarchy (2^n entries per level) and the
bivariate developed hierarchy (three polynomials per level) are kept as
independent oracles at bounded depth.  Everything here is exact;
radial_levels_ball only encloses the exact radial levels in balls.

The elementary Dirichlet solver: a particular polynomial solution of
lap u = f found monomial by monomial (the undetermined-coefficient
system is triangular when processed by descending y-degree, see
exactpoly.poisson_particular), corrected by the harmonic extension of
its boundary trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .development import Vec3Poly, m_of_vector, mat_mul, mat_vec
from .exactpoly import (Poly2, TensorPoly, as_rat, boundary_trace,
                        harmonic_extension, laplacian, poisson_particular)

_M1 = m_of_vector((Fraction(1), Fraction(0)))
_M2 = m_of_vector((Fraction(0), Fraction(1)))

# sum_i M(e_i)^2, derived by direct multiplication rather than hardcoded
_MSQ = tuple(tuple(mat_mul(_M1, _M1)[i][j] + mat_mul(_M2, _M2)[i][j]
                   for j in range(3)) for i in range(3))
assert _MSQ == ((1, 0, 0), (0, 1, 0), (0, 0, 2))


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
    a Vec3Poly.  Level n needs only n-1 and n-2, so extension is a
    simple sequential sweep.  The right-hand side of the newest solved
    level of each hierarchy is held until take_rhs hands it to that
    level's exactness check, so a level solved and then checked builds
    it once.  One writer at a time; reads between level completions are
    safe.
    """

    def __init__(self):
        self.tensor_levels: list[TensorPoly] = []
        self.developed_levels: list[Vec3Poly] = []
        self._rhs: dict = {}  # hierarchy name -> (level, right-hand side)

    def take_rhs(self, name: str, n: int):
        """The held right-hand side of level n of `name`, once; else None."""
        held = self._rhs.pop(name, None)
        return held[1] if held is not None and held[0] == n else None

    # -- tensor hierarchy ------------------------------------------------

    def tensor(self, n: int) -> TensorPoly:
        if n < 0:
            raise ValueError("negative level")
        while len(self.tensor_levels) <= n:
            self.tensor_levels.append(self._next_tensor())
        return self.tensor_levels[n]

    def _next_tensor(self) -> TensorPoly:
        n = len(self.tensor_levels)
        if n == 0:
            return TensorPoly(0, [Poly2.const(1)])
        if n == 1:
            return TensorPoly.zeros(1)
        rhs = tensor_rhs(self, n)
        self._rhs["tensor"] = (n, rhs)
        return TensorPoly(n, [solve_poisson_zero_bd(f) for f in rhs.entries])

    # -- developed hierarchy ----------------------------------------------

    def developed(self, n: int) -> Vec3Poly:
        if n < 0:
            raise ValueError("negative level")
        while len(self.developed_levels) <= n:
            self.developed_levels.append(self._next_developed())
        return self.developed_levels[n]

    def _next_developed(self) -> Vec3Poly:
        n = len(self.developed_levels)
        if n == 0:
            return Vec3Poly(Poly2.zero(), Poly2.zero(), Poly2.const(1))
        if n == 1:
            return Vec3Poly.zero()
        rhs = developed_rhs(self, n)
        self._rhs["developed"] = (n, rhs)
        return Vec3Poly(*(solve_poisson_zero_bd(f) for f in rhs))


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
    """Right-hand side 3-vector for the developed level-n problem, n >= 2."""
    if n < 2:
        raise ValueError("RHS defined for n >= 2")
    prev = self.developed(n - 1)
    prev2 = self.developed(n - 2)
    dx = tuple(c.partial_x() for c in prev)
    dy = tuple(c.partial_y() for c in prev)
    t1 = mat_vec(_M1, dx)
    t2 = mat_vec(_M2, dy)
    t3 = mat_vec(_MSQ, tuple(prev2))
    return tuple(-2 * (t1[k] + t2[k]) - t3[k] for k in range(3))


def a_coefficients(n_max: int) -> list:
    """The scalars a_n = C_n(0), the third component of V_n at the origin, n <= N."""
    return [c.get(0, Fraction(0)) for c in radial_levels(n_max)[1]]


def developed_values(n_max: int, x, y) -> list:
    """Exact triples V_n(x, y) for n <= N, from the radial route.

    With r = |(x, y)|, V_n(x, y) = (x A_n(r)/r, y A_n(r)/r, C_n(r)).  Both
    A_n/r and C_n are evaluated as polynomials in s = x^2 + y^2 (see the
    parity note at the radial recursion below), so the result is exact at
    rational points, the origin included.
    """
    x, y = as_rat(x), as_rat(y)
    s = x * x + y * y
    a_levels, c_levels = radial_levels(n_max)
    out = []
    for n, (a_n, c_n) in enumerate(zip(a_levels, c_levels)):
        if any(m % 2 == 0 for m in a_n) or any(m % 2 for m in c_n):
            raise ArithmeticError(f"level {n}: radial parity violated")
        a_over_r = _horner_in_s(a_n, s)
        out.append((x * a_over_r, y * a_over_r, _horner_in_s(c_n, s)))
    return out


def _horner_in_s(coeffs: dict, s) -> Fraction:
    """sum_m c_m s^(m // 2) for a coefficient map {m: c_m} of one parity."""
    by_power = {m // 2: c for m, c in coeffs.items()}
    acc = Fraction(0)
    for k in range(max(by_power, default=-1), -1, -1):
        acc = acc * s + by_power.get(k, 0)
    return acc


@dataclass(frozen=True)
class LevelNorms:
    """Coefficient-norm bracket of pi_n at the origin: l2 <= projective <= l1."""

    l1: Fraction
    l2sq: Fraction


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
    t = state.tensor(n)
    if n >= 2:
        rhs = state.take_rhs("tensor", n)
        if rhs is None:  # not the newest solved level, or checked before
            rhs = tensor_rhs(state, n)
        residual_ok = all(laplacian(e) == f for e, f in zip(t.entries, rhs.entries))
    else:
        residual_ok = True  # levels 0 and 1 are definitions, not solves
    if n >= 1:
        boundary_ok = all(boundary_trace(e).is_zero() for e in t.entries)
    else:
        boundary_ok = boundary_trace(t.entries[0]) == boundary_trace(Poly2.const(1))
    return {"residual_ok": residual_ok, "boundary_ok": boundary_ok}


def developed_checks(state: HierarchyState, n: int) -> dict:
    """Exact residual and boundary verification for developed level n."""
    v = state.developed(n)
    if n >= 2:
        rhs = state.take_rhs("developed", n)
        if rhs is None:  # not the newest solved level, or checked before
            rhs = developed_rhs(state, n)
        residual_ok = all(laplacian(c) == r for c, r in zip(v, rhs))
    else:
        residual_ok = True
    if n >= 1:
        boundary_ok = all(boundary_trace(c).is_zero() for c in v)
    else:
        boundary_ok = True
    return {"residual_ok": residual_ok, "boundary_ok": boundary_ok}


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

def radial_levels(n_max: int):
    """Exact univariate (A_n, C_n) coefficient maps {power: Fraction}, n <= N."""
    a_levels: list = [{}, {}]
    c_levels: list = [{0: Fraction(1)}, {}]
    for n in range(2, n_max + 1):
        # g = -r^2 A_{n-2} - 2 r^2 C_{n-1}'
        g = {m + 2: -c for m, c in a_levels[n - 2].items()}
        for m, c in c_levels[n - 1].items():
            if m:
                g[m + 1] = g.get(m + 1, 0) - 2 * m * c
        a_n = {m: c / (m * m - 1) for m, c in g.items()}  # m >= 2, never singular
        if a_n:
            a_n[1] = a_n.get(1, 0) - sum(a_n.values())
        # h = -2 r C_{n-2} - 2 r A_{n-1}' - 2 A_{n-1}
        h = {m + 1: -2 * c for m, c in c_levels[n - 2].items()}
        for m, c in a_levels[n - 1].items():
            h[m] = h.get(m, 0) - 2 * (m + 1) * c
        c_n = {m + 1: c / ((m + 1) * (m + 1)) for m, c in h.items()}
        if c_n:
            c_n[0] = c_n.get(0, 0) - sum(c_n.values())
        a_levels.append(a_n)
        c_levels.append(c_n)
    return a_levels[: n_max + 1], c_levels[: n_max + 1]


def radial_levels_ball(n_max: int, prec: int):
    """RealBall enclosures, at `prec` bits, of the exact (A_n, C_n) maps.

    Unused by the CLI; kept under this name for the benchmark's tracer.
    """
    from .balls import RealBall

    return tuple([{m: RealBall.from_rational(q, prec) for m, q in level.items()}
                  for level in levels] for levels in radial_levels(n_max))
