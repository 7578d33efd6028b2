"""Exact polynomials in two variables, and their boundary calculus.

Everything in this module is exact: coefficients are rationals, operations
are formal, and any identity a test asserts is an identity of polynomials,
not a numerical coincidence.  Two representations cooperate:

* Poly2 -- sparse polynomial in (x, y): integer numerators (i, j) -> int
           over one common denominator, in lowest terms; Fractions
           appear only on output
* ZPoly -- sparse polynomial in z = x + iy and zbar = x - iy with
           Gaussian integer coefficients and no denominator, the form
           both hierarchies solve and check in; its real and imaginary
           parts over a given denominator are Poly2s, the x, y form
           that output and point evaluation read

The Dirichlet problem on the unit disk is diagonal on ZPoly terms.
laplacian = 4 d/dz d/dzbar sends z^a zbar^b to 4ab z^(a-1) zbar^(b-1),
and on the unit circle, where z zbar = 1, z^a zbar^b equals z^(a-b), or
zbar^(b-a) when b > a, a harmonic polynomial.  boundary_trace sums a
ZPoly's coefficients by k = a - b, and harmonic_extension is its
inverse, sending k to z^k (k >= 0) or zbar^(-k) (k < 0).  All three
work on integers.  Only this module reads the internals of Poly2 and
ZPoly.
"""

from __future__ import annotations

import math
from fractions import Fraction


def as_rat(x) -> Fraction:
    """Coerce ints, Fractions and 'num/den' strings to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def rat_str(q: Fraction) -> str:
    """Serialize a rational as 'num/den' (always with denominator)."""
    return f"{q.numerator}/{q.denominator}"


class Poly2:
    """Sparse exact polynomial in x, y.

    Internal form: integer numerators (i, j) -> int, none zero, over one
    positive integer denominator, in lowest terms (the gcd of the
    denominator and every numerator is 1; the zero polynomial has
    denominator 1), so equal polynomials have equal internals.  Every
    operation works on integers and reduces its result once; Fractions
    are built only on output (coeff, terms, to_json).  Instances are
    immutable by convention; all operations return new objects and never
    mutate their inputs.
    """

    __slots__ = ("_c", "_d")

    def __init__(self, coeffs=None):
        acc = {}
        if coeffs:
            for (i, j), v in (coeffs.items() if isinstance(coeffs, dict) else coeffs):
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent ({i},{j})")
                v = as_rat(v)
                if v:
                    k = (int(i), int(j))
                    acc[k] = acc.get(k, _ZERO) + v
        acc = {k: v for k, v in acc.items() if v}
        # over the lcm of reduced denominators the numerators share no
        # factor with it, so the result is already in lowest terms
        d = math.lcm(*(v.denominator for v in acc.values()))
        self._c = {k: v.numerator * (d // v.denominator) for k, v in acc.items()}
        self._d = d

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly2":
        return _raw({}, 1)

    @classmethod
    def const(cls, v) -> "Poly2":
        return cls({(0, 0): as_rat(v)})

    @classmethod
    def monomial(cls, i: int, j: int, v=1) -> "Poly2":
        return cls({(i, j): as_rat(v)})

    # -- inspection --------------------------------------------------

    def terms(self):
        """Iterate ((i, j), coeff) pairs in a fixed canonical order."""
        d = self._d
        return iter([(k, Fraction(v, d)) for k, v in sorted(self._c.items())])

    def coeff(self, i: int, j: int) -> Fraction:
        return Fraction(self._c.get((i, j), 0), self._d)

    def __eq__(self, other):
        if isinstance(other, Poly2):
            return self._d == other._d and self._c == other._c
        if isinstance(other, (int, Fraction)):
            return self == Poly2.const(other)
        return NotImplemented

    def __hash__(self):
        return hash((frozenset(self._c.items()), self._d))

    def __bool__(self):
        return bool(self._c)

    def __repr__(self):
        if not self._c:
            return "Poly2(0)"
        bits = []
        for (i, j), v in self.terms():
            mono = "".join(
                (f"x^{i}" if i > 1 else "x" if i == 1 else "",
                 f"y^{j}" if j > 1 else "y" if j == 1 else ""))
            bits.append(f"{v}{'*' if mono else ''}{mono}")
        return "Poly2(" + " + ".join(bits) + ")"

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self):
        return _raw({k: -v for k, v in self._c.items()}, self._d)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def _combine(self, other, sign: int):
        """self + sign * other."""
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._c:
            return self
        if not self._c:
            return other if sign == 1 else -other
        return _raw(*_sum_over_lcm(self._c, self._d, other._c, other._d, sign))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            v = as_rat(other)
            if not v or not self._c:
                return Poly2.zero()
            num, den = v.numerator, v.denominator
            if num == den:
                return self
            return _reduced({k: c * num for k, c in self._c.items()},
                            self._d * den)
        if isinstance(other, Poly2):
            c = {}
            for (i1, j1), v1 in self._c.items():
                for (i2, j2), v2 in other._c.items():
                    k = (i1 + i2, j1 + j2)
                    c[k] = c.get(k, 0) + v1 * v2
            return _reduced({k: v for k, v in c.items() if v},
                            self._d * other._d)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = as_rat(other)
        return self * (1 / v)

    # -- evaluation and substitution ------------------------------------

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

    # -- serialization ---------------------------------------------------

    def to_json(self):
        d = self._d
        out = []
        for (i, j), v in sorted(self._c.items()):
            g = math.gcd(v, d)
            out.append([i, j, f"{v // g}/{d // g}"])
        return out

    @classmethod
    def from_json(cls, data) -> "Poly2":
        return cls({(int(i), int(j)): Fraction(s) for i, j, s in data})


_ZERO = Fraction(0)


def _raw(c: dict, d: int) -> Poly2:
    """Poly2 over numerators c and denominator d, already in lowest terms."""
    p = Poly2.__new__(Poly2)
    p._c = c
    p._d = d
    return p


def _lowest(c: dict, d: int) -> tuple:
    """(c, d) divided by the gcd of d and every numerator; d = 1 if c is empty."""
    if not c:
        return c, 1
    g = math.gcd(d, *c.values())
    if g != 1:
        c = {k: v // g for k, v in c.items()}
        d //= g
    return c, d


def _reduced(c: dict, d: int) -> Poly2:
    """Poly2 over nonzero numerators c and denominator d > 0, reduced once."""
    return _raw(*_lowest(c, d))


def _sum_over_lcm(c1: dict, d1: int, c2: dict, d2: int, sign: int = 1) -> tuple:
    """c1/d1 + sign * c2/d2 as (numerators, denominator) over lcm(d1, d2),
    zero numerators dropped, reduced once."""
    g = math.gcd(d1, d2)
    s1, s2 = d2 // g, sign * (d1 // g)
    c = {k: v * s1 for k, v in c1.items()} if s1 != 1 else dict(c1)
    for k, v in c2.items():
        w = c.get(k, 0) + v * s2
        if w:
            c[k] = w
        else:
            del c[k]
    return _lowest(c, d1 * s1)


def _power_pairs(p: int, q: int, top: int) -> list:
    """[p^k q^(top-k) for k = 0..top]: the k-th power of p/q over q^top."""
    ps = [1]
    for _ in range(top):
        ps.append(ps[-1] * p)
    qs = [1]
    for _ in range(top):
        qs.append(qs[-1] * q)
    return [ps[k] * qs[top - k] for k in range(top + 1)]


def _coerce(other):
    if isinstance(other, Poly2):
        return other
    if isinstance(other, (int, Fraction)):
        return Poly2.const(other)
    return NotImplemented


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
    Immutable by convention, like Poly2.
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

    def parts(self, den: int) -> tuple:
        """(Re, Im) of self / den as Poly2s in x and y.

        A term v i^e z^a zbar^b contributes v c i^(e+j) x^(a+b-j) y^j for
        each (j, c) of _Z_ZBAR[(a, b)]: to the real part when e + j is
        even, to the imaginary part when it is odd, with sign (-1) when
        (e + j) mod 4 is 2 or 3.
        """
        re, im = {}, {}
        for (a, b, e), v in self._c.items():
            for j, c in _z_zbar_terms(a, b):
                t = e + j
                part = im if t & 1 else re
                key = (a + b - j, j)
                part[key] = part.get(key, 0) + (-c * v if t & 2 else c * v)
        return tuple(_reduced({k: v for k, v in part.items() if v}, den)
                     for part in (re, im))


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
