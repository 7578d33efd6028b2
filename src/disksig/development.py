"""The hyperbolic development of signature tensors into 3x3 matrices.

M sends a vector (x1, x2) to the symmetric matrix

    [[0, 0, x1],
     [0, 0, x2],
     [x1, x2, 0]]

and extends multiplicatively to tensor words, M(v1 o ... o vk) =
M(v1) ... M(vk), then linearly to whole tensors.  The quantity of
interest downstream is M(pi_n) applied to the vector (0, 0, 1).

fold_apply contracts a TensorPoly against a fixed vector by a right
fold over suffixes, so no word matrix M(e_{i1}) ... M(e_{in}) is ever
formed: cost is linear in the number of entries.  The 3x3 products
mat_mul and mat_vec serve the developed hierarchy's right-hand side,
and partial_sum_F sums given per-level values exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactpoly import Poly2, TensorPoly, as_rat


@dataclass(frozen=True)
class Vec3Poly:
    """A 3-vector of Poly2 components (c1, c2, c3)."""

    c1: Poly2
    c2: Poly2
    c3: Poly2

    def __iter__(self):
        return iter((self.c1, self.c2, self.c3))

    def __add__(self, other: "Vec3Poly") -> "Vec3Poly":
        return Vec3Poly(self.c1 + other.c1, self.c2 + other.c2, self.c3 + other.c3)

    def evaluate(self, x, y):
        """Exact componentwise evaluation at a rational point."""
        return (self.c1.evaluate(x, y), self.c2.evaluate(x, y), self.c3.evaluate(x, y))

    @classmethod
    def zero(cls) -> "Vec3Poly":
        z = Poly2.zero()
        return cls(z, z, z)


def m_of_vector(x) -> tuple:
    """M(x) for a pair of scalars; works for Rat, float or ball entries."""
    x1, x2 = x
    zero = x1 - x1  # zero in the scalar domain of the input
    return ((zero, zero, x1),
            (zero, zero, x2),
            (x1, x2, zero))


def mat_mul(a, b) -> tuple:
    """3x3 matrix product over any scalar ring."""
    return tuple(
        tuple(a[i][0] * b[0][j] + a[i][1] * b[1][j] + a[i][2] * b[2][j]
              for j in range(3))
        for i in range(3))


def mat_vec(a, v) -> tuple:
    """3x3 matrix times 3-vector over any scalar ring."""
    return tuple(a[i][0] * v[0] + a[i][1] * v[1] + a[i][2] * v[2] for i in range(3))


_M1 = m_of_vector((Fraction(1), Fraction(0)))
_M2 = m_of_vector((Fraction(0), Fraction(1)))


def fold_apply(t: TensorPoly, v) -> Vec3Poly:
    """M(T) v by right-fold suffix contraction.

    Stage 0 assigns W[w] = T_w * v to every full word; each later stage
    merges sibling suffixes:

        W'[w] = M(e1) W[w1] + M(e2) W[w2]

    Since M(e1) u = (u3, 0, u1) and M(e2) u = (0, u3, u2), the merge is

        W'[w] = (A3, B3, A1 + B2),  A = W[w1], B = W[w2],

    and no 3x3 products are ever formed.  Returns W[empty word].
    """
    v1, v2, v3 = v
    work = [(e * v1, e * v2, e * v3) for e in t.entries]
    while len(work) > 1:
        nxt = []
        for i in range(0, len(work), 2):
            a = work[i]
            b = work[i + 1]
            nxt.append((a[2], b[2], a[0] + b[1]))
        work = nxt
    return Vec3Poly(*work[0])


def partial_sum_F(lam, values) -> tuple:
    """Partial sum of the development series, sum_{n <= N} lam^n V_n(z).

    values holds the exact triples V_0(z) .. V_N(z) and lam is rational,
    so the result is a triple of Rat, computed exactly.
    """
    lam = as_rat(lam)
    acc = (Fraction(0), Fraction(0), Fraction(0))
    for val in reversed(values):  # Horner in lam
        acc = tuple(acc[k] * lam + val[k] for k in range(3))
    return acc
