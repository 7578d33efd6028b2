"""Exact polynomials in two variables, and their boundary calculus.

Everything in this module is exact: coefficients are rationals, operations
are formal, and any identity a test asserts is an identity of polynomials,
not a numerical coincidence.  Both hierarchies are solved and checked
in one form, and x, y is only an output value:

* ZPoly -- sparse polynomial in z = x + iy and zbar = x - iy with
           Gaussian integer coefficients and no denominator, the form
           both hierarchies solve and check in
* Poly2 -- sparse polynomial in (x, y), integer numerators (i, j) -> int
           over one common denominator, in lowest terms: the real part
           of a ZPoly over a given denominator (ZPoly.real_part), which
           a dump writes and a point check evaluates; it has no ring
           operations, and Fractions appear only on output

The Dirichlet problem on the unit disk is diagonal on ZPoly terms.
laplacian = 4 d/dz d/dzbar sends z^a zbar^b to 4ab z^(a-1) zbar^(b-1),
and on the unit circle, where z zbar = 1, z^a zbar^b equals z^(a-b), or
zbar^(b-a) when b > a, a harmonic polynomial.  boundary_trace sums a
ZPoly's coefficients by k = a - b, and harmonic_extension is its
inverse, sending k to z^k (k >= 0) or zbar^(-k) (k < 0).  All three
work on integers.  Only this module reads the internals of Poly2 and
ZPoly.  The exact-number helpers (as_rat, rat_str and the decimal
printers) live in disksig.rational.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .rational import as_rat


class Poly2:
    """Sparse exact polynomial in x, y: the output value of a ZPoly's real
    part (ZPoly.real_part), which a dump writes and a point check
    evaluates.

    Internal form: integer numerators (i, j) -> int, none zero, over one
    positive integer denominator, in lowest terms (the gcd of the
    denominator and every numerator is 1; the zero polynomial has
    denominator 1).  Fractions are built only on output (evaluate,
    to_json).  Immutable by convention.
    """

    __slots__ = ("_c", "_d")

    def __init__(self, c: dict, d: int):
        """The polynomial with nonzero numerators c over d > 0, reduced once;
        math.gcd(d) is d, so the zero polynomial gets denominator 1."""
        g = math.gcd(d, *c.values())
        self._c = {k: v // g for k, v in c.items()} if g != 1 else c
        self._d = d // g

    def __mul__(self, other: "Poly2") -> "Poly2":
        """The product; unused by the package, kept under this name for the
        benchmark's tracer, which counts Poly2 products."""
        c = {}
        for (i1, j1), v1 in self._c.items():
            for (i2, j2), v2 in other._c.items():
                k = (i1 + i2, j1 + j2)
                c[k] = c.get(k, 0) + v1 * v2
        return Poly2({k: v for k, v in c.items() if v}, self._d * other._d)

    def evaluate(self, x, y):
        """Exact evaluation; x, y may be Fraction or int (stays exact).

        With x = p/q and y = r/s, every term is brought to the common
        denominator d q^I s^J (I, J the largest powers of x and y), so
        the sum is one integer and one Fraction is built.
        """
        x = as_rat(x)
        y = as_rat(y)
        if not self._c:
            return Fraction(0)
        p, q = x.numerator, x.denominator
        r, s = y.numerator, y.denominator
        top_i = max(i for i, _ in self._c)
        top_j = max(j for _, j in self._c)
        xp = _power_pairs(p, q, top_i)
        yp = _power_pairs(r, s, top_j)
        total = sum(v * xp[i] * yp[j] for (i, j), v in self._c.items())
        return Fraction(total, self._d * q ** top_i * s ** top_j)

    def to_json(self):
        """[[i, j, "num/den"], ...] in (i, j) order, each coefficient in
        lowest terms."""
        d = self._d
        out = []
        for (i, j), v in sorted(self._c.items()):
            g = math.gcd(v, d)
            out.append([i, j, f"{v // g}/{d // g}"])
        return out


def _power_pairs(p: int, q: int, top: int) -> list:
    """[p^k q^(top-k) for k = 0..top]: the k-th power of p/q over q^top."""
    ps = [1]
    for _ in range(top):
        ps.append(ps[-1] * p)
    qs = [1]
    for _ in range(top):
        qs.append(qs[-1] * q)
    return [ps[k] * qs[top - k] for k in range(top + 1)]


# _Z_ZBAR[(a, b)] is the tuple of (j, c) with z^a zbar^b = sum c i^j x^(a+b-j) y^j,
# c = sum_{p+q=j} binom(a, p) binom(b, q) (-1)^q an integer.  Shared by every
# call and never handed out.
_Z_ZBAR = {}


def _z_zbar_terms(a: int, b: int):
    got = _Z_ZBAR.get((a, b))
    if got is None:
        coeffs = {}
        for p in range(a + 1):
            for q in range(b + 1):
                c = math.comb(a, p) * math.comb(b, q)
                coeffs[p + q] = coeffs.get(p + q, 0) + (-c if q % 2 else c)
        got = _Z_ZBAR[(a, b)] = tuple((j, c) for j, c in sorted(coeffs.items()) if c)
    return got


class ZPoly:
    """Sparse polynomial in z = x + iy and zbar = x - iy with Gaussian
    integer coefficients.

    Internal form: {(a, b, e): v}, the terms v i^e z^a zbar^b with e in
    {0, 1} and v a nonzero int.  There is no denominator: sums,
    differences, integer multiples, products by i and derivatives need
    none, so a caller keeps one for a whole family of values (both
    hierarchies keep one per level).
    Immutable by convention: operations return new objects.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        self._c = {k: v for k, v in (coeffs or {}).items() if v}

    def __eq__(self, other):
        if not isinstance(other, ZPoly):
            return NotImplemented
        return self._c == other._c

    def __bool__(self):
        return bool(self._c)

    def __repr__(self):
        return f"ZPoly({self._c!r})"

    def terms(self):
        """Iterate ((a, b, e), v) pairs in a fixed canonical order."""
        return iter(sorted(self._c.items()))

    def __add__(self, other: "ZPoly") -> "ZPoly":
        return _zsum(self, other, 1)

    def __sub__(self, other: "ZPoly") -> "ZPoly":
        return _zsum(self, other, -1)

    def __mul__(self, k: int) -> "ZPoly":
        """self times the integer k."""
        if not k:
            return ZPoly()
        return _zraw({key: v * k for key, v in self._c.items()})

    __rmul__ = __mul__

    def mul_i(self) -> "ZPoly":
        """i times self: i * i^e = i^(e+1), and i^2 = -1."""
        return _zraw({(a, b, 1 - e): -v if e else v for (a, b, e), v in self._c.items()})

    def d_z(self) -> "ZPoly":
        """d/dz: z^a zbar^b -> a z^(a-1) zbar^b."""
        return _zraw({(a - 1, b, e): a * v for (a, b, e), v in self._c.items() if a})

    def d_zbar(self) -> "ZPoly":
        """d/dzbar: z^a zbar^b -> b z^a zbar^(b-1)."""
        return _zraw({(a, b - 1, e): b * v for (a, b, e), v in self._c.items() if b})

    def conj(self) -> "ZPoly":
        """The complex conjugate: z and zbar swap and i -> -i, so
        v i^e z^a zbar^b -> (-1)^e v i^e z^b zbar^a.  self is real
        exactly when it equals its conjugate."""
        return _zraw({(b, a, e): -v if e else v for (a, b, e), v in self._c.items()})

    def real_part(self, den: int) -> Poly2:
        """Re(self / den) as a Poly2 in x and y.

        A term v i^e z^a zbar^b contributes v c i^(e+j) x^(a+b-j) y^j for
        each (j, c) of _Z_ZBAR[(a, b)]; the contribution is real when
        e + j is even, with sign -1 when (e + j) mod 4 is 2.
        """
        re = {}
        for (a, b, e), v in self._c.items():
            for j, c in _z_zbar_terms(a, b):
                t = e + j
                if not t & 1:
                    key = (a + b - j, j)
                    re[key] = re.get(key, 0) + (-c * v if t & 2 else c * v)
        return Poly2({k: v for k, v in re.items() if v}, den)


def _zraw(c: dict) -> ZPoly:
    """ZPoly over the terms c, none of them zero."""
    p = ZPoly.__new__(ZPoly)
    p._c = c
    return p


def _zsum(p: ZPoly, q: ZPoly, sign: int) -> ZPoly:
    """p + sign * q, zero coefficients dropped."""
    if not q._c:
        return p
    if not p._c and sign == 1:
        return q
    c = dict(p._c)
    for k, v in q._c.items():
        w = c.get(k, 0) + sign * v
        if w:
            c[k] = w
        else:
            del c[k]
    return _zraw(c)


def laplacian(p: ZPoly) -> ZPoly:
    """4 d/dz d/dzbar p: z^a zbar^b -> 4ab z^(a-1) zbar^(b-1)."""
    return _zraw({(a - 1, b - 1, e): 4 * a * b * v
                  for (a, b, e), v in p._c.items() if a and b})


def boundary_trace(p: ZPoly) -> dict:
    """Exact restriction of p to the unit circle, as a map (k, e) -> int.

    On the circle z^a zbar^b = z^(a-b), or zbar^(b-a) when b > a, so the
    trace is the nonzero sums of the coefficients v of the terms
    v i^e z^a zbar^b with the same k = a - b; the zero polynomial, or
    one that vanishes on the circle, gives {}.
    """
    t = {}
    for (a, b, e), v in p._c.items():
        key = (a - b, e)
        t[key] = t.get(key, 0) + v
    return {key: v for key, v in t.items() if v}


def harmonic_extension(t: dict) -> ZPoly:
    """The harmonic polynomial on the disk with boundary values t, a map
    (k, e) -> nonzero int: v i^e z^k for k >= 0 and v i^e zbar^(-k) for
    k < 0.  Its laplacian is zero and its boundary_trace is t."""
    return _zraw({(max(k, 0), max(-k, 0), e): v for (k, e), v in t.items()})
