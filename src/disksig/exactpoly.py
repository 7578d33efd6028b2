"""Exact rational polynomials in two variables, and their boundary calculus.

Everything in this module is exact: coefficients are rationals, operations
are formal, and any identity a test asserts is an identity of polynomials,
not a numerical coincidence.  Three representations cooperate:

* Poly2      -- sparse polynomial in (x, y), exponent map (i, j) -> Rat
* TrigPoly   -- finite Fourier polynomial on the circle, maps k -> Rat
                for cos(k theta) and sin(k theta)
* TensorPoly -- a level-n tensor over R^2 whose 2^n entries are Poly2,
                indexed by words over the alphabet {1, 2}

boundary_trace restricts a Poly2 to the unit circle (x = cos theta,
y = sin theta) by exact product-to-sum reduction; harmonic_extension is
its one-sided inverse, sending cos(k theta) to Re((x+iy)^k) and
sin(k theta) to Im((x+iy)^k).
"""

from __future__ import annotations

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

    Internal map: (i, j) -> Fraction, no zero coefficients stored.
    Instances are immutable by convention; all operations return new
    objects and never mutate their inputs.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs=None):
        c = {}
        if coeffs:
            for (i, j), v in (coeffs.items() if isinstance(coeffs, dict) else coeffs):
                if i < 0 or j < 0:
                    raise ValueError(f"negative exponent ({i},{j})")
                v = as_rat(v)
                if v:
                    k = (int(i), int(j))
                    w = c.get(k, _ZERO) + v
                    if w:
                        c[k] = w
                    else:
                        c.pop(k, None)
        self._c = c

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly2":
        return cls()

    @classmethod
    def const(cls, v) -> "Poly2":
        return cls({(0, 0): as_rat(v)})

    @classmethod
    def monomial(cls, i: int, j: int, v=1) -> "Poly2":
        return cls({(i, j): as_rat(v)})

    # -- inspection --------------------------------------------------

    def terms(self):
        """Iterate ((i, j), coeff) pairs in a fixed canonical order."""
        return iter(sorted(self._c.items()))

    def coeff(self, i: int, j: int) -> Fraction:
        return self._c.get((i, j), _ZERO)

    def is_zero(self) -> bool:
        return not self._c

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self._c:
            return -1
        return max(i + j for i, j in self._c)

    def __eq__(self, other):
        if isinstance(other, Poly2):
            return self._c == other._c
        if isinstance(other, (int, Fraction)):
            return self == Poly2.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._c.items()))

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
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        c = dict(self._c)
        for k, v in other._c.items():
            w = c.get(k, _ZERO) + v
            if w:
                c[k] = w
            else:
                c.pop(k, None)
        return _raw(c)

    __radd__ = __add__

    def __neg__(self):
        return _raw({k: -v for k, v in self._c.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            v = as_rat(other)
            if not v:
                return Poly2.zero()
            return _raw({k: c * v for k, c in self._c.items()})
        if isinstance(other, Poly2):
            c = {}
            for (i1, j1), v1 in self._c.items():
                for (i2, j2), v2 in other._c.items():
                    k = (i1 + i2, j1 + j2)
                    w = c.get(k, _ZERO) + v1 * v2
                    if w:
                        c[k] = w
                    else:
                        c.pop(k, None)
            return _raw(c)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = as_rat(other)
        return self * (1 / v)

    # -- calculus ------------------------------------------------------

    def partial_x(self) -> "Poly2":
        return _raw({(i - 1, j): v * i for (i, j), v in self._c.items() if i})

    def partial_y(self) -> "Poly2":
        return _raw({(i, j - 1): v * j for (i, j), v in self._c.items() if j})

    # -- evaluation and substitution ------------------------------------

    def evaluate(self, x, y):
        """Exact evaluation; x, y may be Fraction or int (stays exact)."""
        x = as_rat(x)
        y = as_rat(y)
        total = _ZERO
        xp = {0: Fraction(1)}
        yp = {0: Fraction(1)}
        for (i, j), v in self._c.items():
            if i not in xp:
                xp[i] = x ** i
            if j not in yp:
                yp[j] = y ** j
            total += v * xp[i] * yp[j]
        return total

    def rotate90(self) -> "Poly2":
        """p(x, y) -> p(-y, x), the quarter-turn substitution."""
        return _raw({(j, i): (v if i % 2 == 0 else -v)
                     for (i, j), v in self._c.items()})

    def restrict_y0(self) -> "Poly2":
        """p(x, 0) as a polynomial in x alone (terms with j > 0 drop)."""
        return _raw({(i, 0): v for (i, j), v in self._c.items() if j == 0})

    # -- serialization ---------------------------------------------------

    def to_json(self):
        return [[i, j, rat_str(v)] for (i, j), v in self.terms()]

    @classmethod
    def from_json(cls, data) -> "Poly2":
        return cls({(int(i), int(j)): Fraction(s) for i, j, s in data})


_ZERO = Fraction(0)


def _raw(c: dict) -> Poly2:
    p = Poly2.__new__(Poly2)
    p._c = c
    return p


def _coerce(other):
    if isinstance(other, Poly2):
        return other
    if isinstance(other, (int, Fraction)):
        return Poly2.const(other)
    return NotImplemented


def laplacian(p: Poly2) -> Poly2:
    """d^2p/dx^2 + d^2p/dy^2, exact."""
    return p.partial_x().partial_x() + p.partial_y().partial_y()


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


def boundary_trace(p: Poly2) -> TrigPoly:
    """Exact restriction of p to the unit circle.

    Substitutes x = cos theta, y = sin theta and reduces monomials to the
    Fourier basis by repeated product-to-sum.  Traces of monomials are
    memoized per call along the lattice path (i, j) -> (i-1, j) -> ...
    """
    memo = {(0, 0): TrigPoly({0: Fraction(1)})}

    def trace_mono(i: int, j: int) -> TrigPoly:
        got = memo.get((i, j))
        if got is not None:
            return got
        if i > 0:
            t = trace_mono(i - 1, j).mul_cos()
        else:
            t = trace_mono(i, j - 1).mul_sin()
        memo[(i, j)] = t
        return t

    out = TrigPoly()
    for (i, j), v in p.terms():
        out = out + trace_mono(i, j).scale(v)
    return out


def harmonic_extension(t: TrigPoly) -> Poly2:
    """The harmonic polynomial on the disk with boundary values t.

    cos(k theta) -> Re((x+iy)^k), sin(k theta) -> Im((x+iy)^k).
    laplacian of the result is identically zero.
    """
    kmax = max([0, *t.cos.keys(), *t.sin.keys()])
    out = Poly2.zero()
    re = Poly2.const(1)   # Re((x+iy)^k), k = 0
    im = Poly2.zero()     # Im((x+iy)^k)
    x = Poly2.monomial(1, 0)
    y = Poly2.monomial(0, 1)
    for k in range(kmax + 1):
        ck = t.cos.get(k)
        if ck:
            out = out + re * ck
        sk = t.sin.get(k)
        if sk:
            out = out + im * sk
        re, im = re * x - im * y, re * y + im * x
    return out


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
