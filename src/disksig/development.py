"""The hyperbolic development of signature tensors into 3x3 matrices.

M sends a vector (x1, x2) to the symmetric matrix

    [[0, 0, x1],
     [0, 0, x2],
     [x1, x2, 0]]

and extends multiplicatively to tensor words, M(v1 o ... o vk) =
M(v1) ... M(vk), then linearly to whole tensors.  The quantity of
interest downstream is M(pi_n) applied to the vector (0, 0, 1).

Only the basis matrices act here, and only through m_action, which
applies M(e1) a + M(e2) b entry by entry.  fold_apply contracts a tensor,
given by its 2^n e-word entries over any scalar ring, against (0, 0, 1)
by a right fold over suffixes, merging siblings with m_action, so no
word matrix M(e_{i1}) ... M(e_{in}) is ever formed: cost is linear in the
number of entries.  The hierarchy folds its tensor levels in z and zbar
(ZPolys) and their values at the origin as integers; the developed
hierarchy's right-hand side applies the same map
(hierarchy.developed_rhs), and partial_sum_F sums given per-level values
exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .exactpoly import Poly2, as_rat


class Vec3Poly:
    """A 3-vector of Poly2 components (c1, c2, c3).

    Immutable by convention, like Poly2; a plain class, so
    the exact layers load no dataclasses machinery.
    """

    __slots__ = ("c1", "c2", "c3")

    def __init__(self, c1: Poly2, c2: Poly2, c3: Poly2):
        self.c1, self.c2, self.c3 = c1, c2, c3

    def __iter__(self):
        return iter((self.c1, self.c2, self.c3))

    def __eq__(self, other):
        if not isinstance(other, Vec3Poly):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __hash__(self):
        return hash(tuple(self))

    def __repr__(self):
        return f"Vec3Poly(c1={self.c1!r}, c2={self.c2!r}, c3={self.c3!r})"

    def __add__(self, other: "Vec3Poly") -> "Vec3Poly":
        return Vec3Poly(self.c1 + other.c1, self.c2 + other.c2, self.c3 + other.c3)

    def evaluate(self, x, y):
        """Exact componentwise evaluation at a rational point."""
        return (self.c1.evaluate(x, y), self.c2.evaluate(x, y), self.c3.evaluate(x, y))


def m_action(a, b) -> tuple:
    """M(e1) a + M(e2) b for 3-vectors a, b over any scalar ring.

    M(e1) u = (u3, 0, u1) and M(e2) u = (0, u3, u2), so the sum is
    (a3, b3, a1 + b2).
    """
    return (a[2], b[2], a[0] + b[1])


def fold_apply(entries) -> tuple:
    """M(T) e3 for the tensor T with the 2^n e-word entries T_w, in
    lexicographic order, over any scalar ring.

    Stage 0 holds W[w] = (0, 0, T_w); each stage merges sibling suffixes,

        W'[w] = M(e1) W[w1] + M(e2) W[w2] = m_action(W[w1], W[w2]),

    and W[empty word] is returned.
    """
    zero = entries[0] - entries[0]
    work = [(zero, zero, value) for value in entries]
    while len(work) > 1:
        work = [m_action(a, b) for a, b in zip(work[::2], work[1::2])]
    return work[0]


def partial_sum_F(lam, values) -> tuple:
    """Partial sum of the development series, sum_{n <= N} lam^n V_n(z).

    values holds the exact triples V_0(z) .. V_N(z) and lam is rational,
    so the result is a triple of Fractions, computed exactly.
    """
    lam = as_rat(lam)
    acc = (Fraction(0), Fraction(0), Fraction(0))
    for val in reversed(values):  # Horner in lam
        acc = tuple(acc[k] * lam + val[k] for k in range(3))
    return acc
