"""Exact rational polynomials in two variables, and their boundary calculus.

Everything in this module is exact: coefficients are rationals, operations
are formal, and any identity a test asserts is an identity of polynomials,
not a numerical coincidence.  Three representations cooperate:

* Poly2      -- sparse polynomial in (x, y): integer numerators
                (i, j) -> int over one common denominator, in lowest
                terms; Fractions appear only on output
* TrigPoly   -- finite Fourier polynomial on the circle, maps k -> Rat
                for cos(k theta) and sin(k theta)
* TensorPoly -- a level-n tensor over R^2 whose 2^n entries are Poly2,
                indexed by words over the alphabet {1, 2}

boundary_trace restricts a Poly2 to the unit circle (x = cos theta,
y = sin theta); harmonic_extension is its one-sided inverse, sending
cos(k theta) to Re((x+iy)^k) and sin(k theta) to Im((x+iy)^k).  Both
work in integers from shared tables (integer monomial traces, signed
binomials); boundary_trace builds one Fraction per output Fourier
coefficient.  poisson_particular solves lap(u) = f for a particular
polynomial u in one integer sweep over the y-degree rows of f.
TrigPoly.mul_cos / mul_sin keep the rational product-to-sum step as a
reference for the tables.  Only this module reads Poly2's internals.
"""

from __future__ import annotations

import math
from fractions import Fraction

Rat = Fraction


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

    def is_zero(self) -> bool:
        return not self._c

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._c:
            return -1
        return max(i + j for i, j in self._c)

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

    # -- calculus ------------------------------------------------------

    def partial_x(self) -> "Poly2":
        return _reduced({(i - 1, j): v * i for (i, j), v in self._c.items() if i},
                        self._d)

    def partial_y(self) -> "Poly2":
        return _reduced({(i, j - 1): v * j for (i, j), v in self._c.items() if j},
                        self._d)

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

    def rotate90(self) -> "Poly2":
        """p(x, y) -> p(-y, x), the quarter-turn substitution."""
        return _raw({(j, i): (v if i % 2 == 0 else -v)
                     for (i, j), v in self._c.items()}, self._d)

    def restrict_y0(self) -> "Poly2":
        """p(x, 0) as a polynomial in x alone (terms with j > 0 drop)."""
        return _reduced({k: v for k, v in self._c.items() if k[1] == 0}, self._d)

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


def laplacian(p: Poly2) -> Poly2:
    """d^2p/dx^2 + d^2p/dy^2, exact, in one pass over the numerators."""
    c = {}
    for (i, j), v in p._c.items():
        if i >= 2:
            k = (i - 2, j)
            c[k] = c.get(k, 0) + v * i * (i - 1)
        if j >= 2:
            k = (i, j - 2)
            c[k] = c.get(k, 0) + v * j * (j - 1)
    return _reduced({k: v for k, v in c.items() if v}, p._d)


def poisson_particular(f: Poly2) -> Poly2:
    """A particular polynomial u with laplacian(u) == f, exactly.

    A term c x^a y^b of f is absorbed by c x^(a+2) y^b / ((a+1)(a+2)),
    whose Laplacian is c x^a y^b plus a correction
    c b(b-1)/((a+1)(a+2)) x^(a+2) y^(b-2) two rows lower in y-degree.
    One sweep over the y-degree rows, from the highest down, therefore
    reaches each row after every correction into it and handles each
    term once.  A row is a map a -> integer numerator over the row's own
    denominator (f's, or its lcm with the incoming correction's, reduced);
    each row's divisions by (a+1)(a+2) go to their lcm, and the rows of
    u meet over one lcm at the end.
    """
    rows = {}
    for (a, b), v in f._c.items():
        rows.setdefault(b, {})[a] = v
    carry = {}  # row b -> (numerators, denominator) of the correction into it
    parts = []  # (b, numerators of row b of u, denominator)
    for b in range(max(rows, default=-1), -1, -1):
        row, den = rows.get(b, {}), f._d
        if b in carry:
            row, den = _sum_over_lcm(row, den, *carry.pop(b))
        if not row:
            continue
        m = math.lcm(*((a + 1) * (a + 2) for a in row))
        den *= m
        part = {a + 2: v * (m // ((a + 1) * (a + 2))) for a, v in row.items()}
        parts.append((b, part, den))
        if b >= 2:
            bb = b * (b - 1)
            carry[b - 2] = ({a: -v * bb for a, v in part.items()}, den)
    den = math.lcm(*(d for _, _, d in parts))
    c = {}
    for b, part, d in parts:
        s = den // d
        for a, v in part.items():
            c[(a, b)] = v * s
    return _reduced(c, den)


class TrigPoly:
    """Finite Fourier polynomial c_0 + sum c_k cos(k t) + s_k sin(k t).

    cos map keys k >= 0, sin map keys k >= 1, no stored zeros.
    """

    __slots__ = ("cos", "sin")

    def __init__(self, cos=None, sin=None):
        self.cos = {}
        self.sin = {}
        if cos:
            for k, v in cos.items():
                self._add_cos(int(k), as_rat(v))
        if sin:
            for k, v in sin.items():
                self._add_sin(int(k), as_rat(v))

    def _add_cos(self, k: int, v: Fraction):
        if k < 0:
            k = -k  # cos(-k t) = cos(k t)
        w = self.cos.get(k, _ZERO) + v
        if w:
            self.cos[k] = w
        else:
            self.cos.pop(k, None)

    def _add_sin(self, k: int, v: Fraction):
        if k == 0:
            return  # sin(0) = 0, never stored
        if k < 0:
            k, v = -k, -v  # sin(-k t) = -sin(k t)
        w = self.sin.get(k, _ZERO) + v
        if w:
            self.sin[k] = w
        else:
            self.sin.pop(k, None)

    @classmethod
    def zero(cls) -> "TrigPoly":
        return cls()

    def is_zero(self) -> bool:
        return not self.cos and not self.sin

    def __eq__(self, other):
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return self.cos == other.cos and self.sin == other.sin

    def __hash__(self):
        return hash((frozenset(self.cos.items()), frozenset(self.sin.items())))

    def __add__(self, other):
        if not isinstance(other, TrigPoly):
            return NotImplemented
        out = TrigPoly()
        out.cos = dict(self.cos)
        out.sin = dict(self.sin)
        for k, v in other.cos.items():
            out._add_cos(k, v)
        for k, v in other.sin.items():
            out._add_sin(k, v)
        return out

    def __neg__(self):
        out = TrigPoly()
        out.cos = {k: -v for k, v in self.cos.items()}
        out.sin = {k: -v for k, v in self.sin.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def scale(self, v) -> "TrigPoly":
        v = as_rat(v)
        out = TrigPoly()
        if v:
            out.cos = {k: c * v for k, c in self.cos.items()}
            out.sin = {k: c * v for k, c in self.sin.items()}
        return out

    def mul_cos(self) -> "TrigPoly":
        """Multiply by cos(theta), product-to-sum over Rat."""
        out = TrigPoly()
        for k, v in self.cos.items():
            out._add_cos(k + 1, v / 2)
            out._add_cos(k - 1, v / 2)
        for k, v in self.sin.items():
            out._add_sin(k + 1, v / 2)
            out._add_sin(k - 1, v / 2)
        return out

    def mul_sin(self) -> "TrigPoly":
        """Multiply by sin(theta), product-to-sum over Rat."""
        out = TrigPoly()
        for k, v in self.cos.items():
            out._add_sin(k + 1, v / 2)
            out._add_sin(k - 1, -v / 2)
        for k, v in self.sin.items():
            out._add_cos(k - 1, v / 2)
            out._add_cos(k + 1, -v / 2)
        return out

    def evaluate(self, theta: float) -> float:
        """Float evaluation, for numeric spot checks only."""
        import math
        total = 0.0
        for k, v in self.cos.items():
            total += float(v) * math.cos(k * theta)
        for k, v in self.sin.items():
            total += float(v) * math.sin(k * theta)
        return total

    def __repr__(self):
        bits = [f"{v}*cos({k}t)" if k else f"{v}" for k, v in sorted(self.cos.items())]
        bits += [f"{v}*sin({k}t)" for k, v in sorted(self.sin.items())]
        return "TrigPoly(" + (" + ".join(bits) if bits else "0") + ")"


# 2^(i+j) * trace(x^i y^j) has integer Fourier coefficients, since
# 2 cos(t) and 2 sin(t) act on the basis by integer product-to-sum:
#   2 cos(t) cos(kt) = cos((k+1)t) + cos((k-1)t)
#   2 cos(t) sin(kt) = sin((k+1)t) + sin((k-1)t)
#   2 sin(t) cos(kt) = sin((k+1)t) - sin((k-1)t)
#   2 sin(t) sin(kt) = cos((k-1)t) - cos((k+1)t)
# _MONO_TRACE maps (i, j) to that integer trace as two tuples of
# (k, coefficient) pairs, cos then sin; it is shared by every call and
# grows along the lattice path (i, j) -> (i, j-1) -> ... -> (0, 0).  Its
# entries are never handed out, so no returned TrigPoly can alias them.
_MONO_TRACE = {(0, 0): (((0, 1),), ())}


def _times_two_trig(cos, sin, by_sin):
    """Integer product-to-sum of (cos, sin) pairs with 2 cos(t) or 2 sin(t)."""
    c, s = {}, {}
    if by_sin:
        for k, v in cos:
            s[k + 1] = s.get(k + 1, 0) + v
            s[k - 1] = s.get(k - 1, 0) - v
        for k, v in sin:
            c[k - 1] = c.get(k - 1, 0) + v
            c[k + 1] = c.get(k + 1, 0) - v
    else:
        for k, v in cos:
            c[k + 1] = c.get(k + 1, 0) + v
            c[k - 1] = c.get(k - 1, 0) + v
        for k, v in sin:
            s[k + 1] = s.get(k + 1, 0) + v
            s[k - 1] = s.get(k - 1, 0) + v
    # fold negative frequencies: cos(-kt) = cos(kt), sin(-kt) = -sin(kt)
    if -1 in c:
        c[1] = c.get(1, 0) + c.pop(-1)
    if -1 in s:
        s[1] = s.get(1, 0) - s.pop(-1)
    s.pop(0, None)
    return (tuple(sorted((k, v) for k, v in c.items() if v)),
            tuple(sorted((k, v) for k, v in s.items() if v)))


def _mono_trace(i: int, j: int):
    path = []
    key = (i, j)
    while key not in _MONO_TRACE:
        path.append(key)
        a, b = key
        key = (a, b - 1) if b else (a - 1, 0)
    for a, b in reversed(path):
        _MONO_TRACE[(a, b)] = _times_two_trig(
            *_MONO_TRACE[(a, b - 1) if b else (a - 1, 0)], by_sin=bool(b))
    return _MONO_TRACE[(i, j)]


def boundary_trace(p: Poly2) -> TrigPoly:
    """Exact restriction of p to the unit circle.

    Substitutes x = cos theta, y = sin theta.  Every numerator of p is
    scaled from p's denominator D to D * 2^N (N its degree), so each
    monomial contributes an integer multiple of its integer trace from
    _MONO_TRACE; the integer sums per Fourier mode are divided by
    D * 2^N once, at the end.
    """
    out = TrigPoly()
    if not p._c:
        return out
    deg = p.degree()
    cos, sin = {}, {}
    for (i, j), v in p._c.items():
        scale = v << (deg - i - j)
        mono_cos, mono_sin = _mono_trace(i, j)
        for k, m in mono_cos:
            cos[k] = cos.get(k, 0) + scale * m
        for k, m in mono_sin:
            sin[k] = sin.get(k, 0) + scale * m
    common = p._d << deg
    out.cos = {k: Fraction(v, common) for k, v in cos.items() if v}
    out.sin = {k: Fraction(v, common) for k, v in sin.items() if v}
    return out


# _HARMONIC[k] is the pair (Re, Im) of ((i, j), c) tuples with
# Re((x+iy)^k) = sum c x^i y^j over the even j and Im((x+iy)^k) over the
# odd j, c = (-1)^(j//2) * binom(k, j).  Shared by every call and never
# handed out.
_HARMONIC = {}


def _harmonic_terms(k: int):
    got = _HARMONIC.get(k)
    if got is None:
        terms = [((k - j, j), -math.comb(k, j) if j % 4 >= 2 else math.comb(k, j))
                 for j in range(k + 1)]
        got = _HARMONIC[k] = (tuple(terms[::2]), tuple(terms[1::2]))
    return got


def harmonic_extension(t: TrigPoly) -> Poly2:
    """The harmonic polynomial on the disk with boundary values t.

    cos(k theta) -> Re((x+iy)^k), sin(k theta) -> Im((x+iy)^k).
    laplacian of the result is identically zero.  Re((x+iy)^k) and
    Im((x+iy)^k) are homogeneous of degree k with even and odd powers of
    y respectively, so no two modes of t share a monomial and each output
    numerator is one integer binomial term times a mode's numerator,
    scaled to the lcm of t's denominators.
    """
    den = math.lcm(*(v.denominator for v in t.cos.values()),
                   *(v.denominator for v in t.sin.values()))
    c = {}
    for modes, part in ((t.cos, 0), (t.sin, 1)):
        for k, v in modes.items():
            num = v.numerator * (den // v.denominator)
            for key, b in _harmonic_terms(k)[part]:
                c[key] = num * b
    return _reduced(c, den)


def words(n: int):
    """All words of length n over {1, 2} in lexicographic order."""
    if n < 0:
        raise ValueError("negative level")
    out = []
    for idx in range(1 << n):
        out.append("".join("12"[(idx >> (n - 1 - pos)) & 1] for pos in range(n)))
    return out


def word_index(w: str) -> int:
    """Position of word w in the lexicographic enumeration of its level."""
    idx = 0
    for ch in w:
        if ch not in "12":
            raise ValueError(f"bad word letter {ch!r}")
        idx = (idx << 1) | (int(ch) - 1)
    return idx


class TensorPoly:
    """A tensor of polynomials: level n, one Poly2 per word in {1,2}^n.

    Entries live in a list in lexicographic word order; the level-0
    tensor is a single Poly2 (empty word).
    """

    __slots__ = ("level", "entries")

    def __init__(self, level: int, entries):
        if level < 0:
            raise ValueError("negative level")
        entries = list(entries)
        if len(entries) != 1 << level:
            raise ValueError(f"level {level} needs {1 << level} entries, got {len(entries)}")
        for e in entries:
            if not isinstance(e, Poly2):
                raise TypeError("entries must be Poly2")
        self.level = level
        self.entries = entries

    @classmethod
    def zeros(cls, level: int) -> "TensorPoly":
        return cls(level, [Poly2.zero() for _ in range(1 << level)])

    def entry(self, w: str) -> Poly2:
        if len(w) != self.level:
            raise ValueError(f"word {w!r} has wrong length for level {self.level}")
        return self.entries[word_index(w)]

    def __eq__(self, other):
        if not isinstance(other, TensorPoly):
            return NotImplemented
        return self.level == other.level and self.entries == other.entries

    def __repr__(self):
        return f"TensorPoly(level={self.level}, {sum(1 for e in self.entries if e)} nonzero entries)"

    def to_json(self):
        return {
            "level": self.level,
            "entries": {w: self.entries[word_index(w)].to_json() for w in words(self.level)},
        }

    @classmethod
    def from_json(cls, data) -> "TensorPoly":
        n = int(data["level"])
        ents = [Poly2.zero()] * (1 << n)
        for w, pj in data["entries"].items():
            ents[word_index(w)] = Poly2.from_json(pj)
        return cls(n, ents)
