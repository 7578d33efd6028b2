"""The radial route: a_n and V_n from one univariate recursion.

By rotation equivariance, V_n(r cos t, r sin t) = (R_t + 1) (A_n, B_n, C_n)(r)
with B_n = 0.  Matching powers of lambda in the radial ODE system gives

  r^2 A_n'' + r A_n' - A_n = -r^2 A_{n-2} - 2 r^2 C_{n-1}'
  C_n' + r C_n''           = -2 r C_{n-2} - 2 r A_{n-1}' - 2 A_{n-1}

solved by polynomials in r with A_n(0) = A_n(1) = 0, C_n(1) = 0 (n >= 1).
On monomials the left sides act diagonally: r^m -> (m^2 - 1) r^m for A,
h_m r^m -> h_m/(m+1)^2 r^{m+1} for C.  This univariate recursion is the
production route to A_n, C_n and the scalars a_n = C_n(0) (the
`develop`, `compare` and `radius` subcommands run it and nothing else
of the exact layers); the bivariate developed hierarchy in
disksig.hierarchy is an independent oracle for the same polynomials
(cross-checked in tests and by `hierarchy --mode developed`).  Each
level runs on integer numerators over one denominator, reduced once,
and builds a Fraction only for a coefficient a caller reads (RadialMap).

Parity: A_n has only odd powers of r and C_n only even ones.  By
induction, if A_{n-2}, A_{n-1} are odd and C_{n-2}, C_{n-1} even, the
A-source -r^2 A_{n-2} - 2 r^2 C_{n-1}' is odd, the C-source
-2 r C_{n-2} - 2 r A_{n-1}' - 2 A_{n-1} is odd, so A_n (diagonal solve
plus an r^1 correction) is odd and C_n (one power up plus an r^0
correction) is even.  developed_values relies on this and checks it.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Mapping
from fractions import Fraction

from .rational import as_rat


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


def a_coefficients(n_max: int) -> list:
    """The scalars a_n = C_n(0), the third component of V_n at the origin, n <= N."""
    return [c.get(0, Fraction(0)) for c in radial_levels(n_max)[1]]


def developed_values(n_max: int, x, y) -> Iterator[tuple]:
    """Exact triples V_n(x, y) for n = 0 .. N, from the radial route.

    With r = |(x, y)|, V_n(x, y) = (x A_n(r)/r, y A_n(r)/r, C_n(r)).  Both
    A_n/r and C_n are evaluated as polynomials in s = x^2 + y^2 (see the
    parity note in the module docstring), so the result is exact at
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
