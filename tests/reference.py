"""Independent references the tests compare the production routes with.

Nothing in `disksig` calls these.  Each is the plain, slow form of a
computation the package does another way:

- simulate_stopped_path runs one path through the estimator's own block
  routine, so its increments are bit for bit the ones the vectorized
  engine consumes for that (seed, path_index);
- bridge_exit_steps takes the Brownian-bridge exit test over every step
  of a block, exp included, against the shortcut in _advance_block;
- signature_of_path builds a path signature by one Chen product per
  chord (tensor_exp), against the blockwise engine;
- XY is a plain ring on {(i, j): Fraction} maps, sharing no code with
  the integer numerators of exactpoly.Poly2; xy_of_json reads a
  production Poly2 through its to_json output, and zpoly_parts
  multiplies z = x + iy out to the (Re, Im) of an exactpoly.ZPoly,
  against ZPoly.real_part;
- partial_xy, laplacian_xy and vanishes_on_circle are the x, y calculus
  on XYs, term by term and modulo x^2 + y^2 - 1, against
  the z, zbar calculus of exactpoly.ZPoly that both hierarchies solve in;
- m_of_vector, mat_mul and mat_vec are the generic 3x3 matrix algebra,
  and M1, M2 the basis matrices M(e1), M(e2), against
  development.m_action and hierarchy.developed_rhs;
- words, word_index and TensorPoly index a tensor of XYs by its words
  over {1, 2}, the x, y form of a tensor level, in which
  `hierarchy --dump-polys` writes it (tensor_view and developed_view
  give a level of either hierarchy in x, y, checked real, and
  developed_at evaluates a developed level at a point);
- fold_apply_naive sums T_w M(w) v over every word with explicit 3x3
  word matrices (m_word), against development.fold_apply;
- fold_letters folds a tensor given in the letters f = e1 + i e2 and
  fbar = e1 - i e2, so the words of hierarchy.HierarchyState.reduced
  develop without the e-basis expansion (checked against fold_apply);
- radial_levels_fraction solves the radial recursion one Fraction at a
  time, against the integer numerators of radial.radial_levels;
- tensor_levels_bivariate solves the tensor hierarchy in the e-basis, one
  bivariate Poisson problem per word, against the univariate words in the
  letters f, fbar that hierarchy.HierarchyState.tensor_z expands;
- ball_bisection brackets the pole on ball signs of d at every midpoint,
  against the exact signs of exactseries.exact_bracket;
- series_sign_integer takes the sign of E at a dyadic point from an
  integer partial sum against a rational tail inequality, against the
  interval enclosure (exactseries.enclose) that exactseries._series_sign
  reads it from;
- series_coefficients_binomial builds E's numerators from the binomial
  sum over Z[w] powers, against the integer recurrence of
  exactseries._series_coefficients;
- closed_form_center evaluates C(lambda, 0) from mpmath's own Bessel
  functions at 200 digits, against the rational series G/E of
  exactseries.enclose_center;
- decimal_nearest_integer rounds a rational to decimal digits by an
  integer decade search and one integer division, against the decimal
  module's division in rational.decimal_nearest.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from math import factorial

import mpmath
import numpy as np

from disksig.bessel import d_lambda, make_constants
from disksig.development import m_action
from disksig.exactpoly import ZPoly
from disksig.exactseries import (_FIRST_TERMS, _MAX_TERMS, BRACKET_HI,
                                 BRACKET_LO, InconclusiveSign,
                                 _series_coefficients)
from disksig.hierarchy import poisson_scale, solve_poisson_zero_bd
from disksig.montecarlo import (BLOCK, _MAX_BLOCKS_PER_PATH, SimConfig,
                                _advance_block, _path_generator)


def simulate_stopped_path(config: SimConfig, path_index: int) -> np.ndarray:
    """Increments of one stopped path, (n_steps, 2); the reference engine.

    Runs the identical block routine as the vectorized estimator with a
    batch of one, so the returned path is bit-identical to the one the
    estimator consumes for this (seed, path_index).
    """
    gen = _path_generator(config.seed, path_index)
    pos = np.array([config.start], dtype=np.float64)
    chunks = []
    for _ in range(_MAX_BLOCKS_PER_PATH):
        normals = np.empty((1, BLOCK, 2))
        uniforms = np.empty((1, BLOCK))
        gen.standard_normal(out=normals[0])
        gen.random(out=uniforms[0])
        inc, exit_step, end_pos = _advance_block(
            pos, normals, uniforms, config.h, config.bridge_correction)
        if exit_step[0] >= 0:
            chunks.append(inc[0, : exit_step[0] + 1])
            return np.concatenate(chunks, axis=0)
        chunks.append(inc[0])
        pos = end_pos
    raise RuntimeError("path failed to exit within the block budget")


def bridge_exit_steps(pos, normals, uniforms, h: float) -> np.ndarray:
    """First exit step of each row of a block with the bridge test, or -1.

    Evaluates exp(-2 d_prev d_curr / h) at every step, including the
    steps where no uniform deviate of Generator.random() can fall below it.
    """
    traj = np.cumsum(normals * math.sqrt(h), axis=1) + pos[:, None, :]
    rad = np.sqrt(traj[..., 0] * traj[..., 0] + traj[..., 1] * traj[..., 1])
    d_curr = 1.0 - rad
    d_prev = np.empty_like(d_curr)
    d_prev[:, 0] = 1.0 - np.sqrt(pos[:, 0] * pos[:, 0] + pos[:, 1] * pos[:, 1])
    d_prev[:, 1:] = d_curr[:, :-1]
    both_inside = (d_prev > 0.0) & (d_curr > 0.0)
    log_p = np.where(both_inside, -2.0 * d_prev * d_curr / h, -np.inf)
    exit_mask = (rad >= 1.0) | (uniforms < np.exp(log_p))
    return np.where(exit_mask.any(axis=1), exit_mask.argmax(axis=1), -1)


def tensor_exp(delta, level: int) -> list:
    """Truncated tensor exponential of a single increment, levels 1..N."""
    delta = np.asarray(delta, dtype=np.float64)
    out = [delta]
    term = delta
    for m in range(2, level + 1):
        term = np.kron(term, delta) / m
        out.append(term)
    return out


def signature_of_path(increments, level: int) -> list:
    """Reference signature of a piecewise-linear path, levels 1..level.

    Plain per-chord Chen products; quadratic in path length, used as the
    ground truth against the blockwise engine.
    """
    if level < 1:
        raise ValueError("level must be at least 1")
    increments = np.asarray(increments, dtype=np.float64)
    sig = [np.zeros(2 ** n) for n in range(1, level + 1)]
    for delta in increments:
        exp_levels = tensor_exp(delta, level)
        new = []
        for n in range(1, level + 1):
            acc = sig[n - 1] + exp_levels[n - 1]
            for i in range(1, n):
                acc = acc + np.kron(sig[i - 1], exp_levels[n - i - 1])
            new.append(acc)
        sig = new
    return sig


class XY(dict):
    """A polynomial in x, y as a plain {(i, j): Fraction} map with no zero
    coefficient, so equal polynomials are equal dicts: the x, y ring the
    tests read production output against.  It shares no code with
    exactpoly.Poly2's integer numerators; ints and Fractions act as
    constants."""

    def __init__(self, terms=()):
        super().__init__((k, Fraction(v)) for k, v in dict(terms).items() if v)

    def __add__(self, other):
        out = dict(self)
        for k, v in _as_xy(other).items():
            out[k] = out.get(k, 0) + v
        return XY(out)

    __radd__ = __add__

    def __neg__(self):
        return XY({k: -v for k, v in self.items()})

    def __sub__(self, other):
        return self + -_as_xy(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        out = {}
        for (i1, j1), v1 in self.items():
            for (i2, j2), v2 in _as_xy(other).items():
                out[i1 + i2, j1 + j2] = out.get((i1 + i2, j1 + j2), 0) + v1 * v2
        return XY(out)

    __rmul__ = __mul__

    def evaluate(self, x, y) -> Fraction:
        top = max((max(k) for k in self), default=0)
        xs, ys = [Fraction(1)], [Fraction(1)]
        for _ in range(top):
            xs.append(xs[-1] * x)
            ys.append(ys[-1] * y)
        return sum((v * xs[i] * ys[j] for (i, j), v in self.items()), Fraction(0))

    def to_json(self) -> list:
        return [[i, j, f"{v.numerator}/{v.denominator}"] for (i, j), v in sorted(self.items())]


def _as_xy(value) -> XY:
    return value if isinstance(value, XY) else XY({(0, 0): value})


X, Y = XY({(1, 0): 1}), XY({(0, 1): 1})


def xy_of_json(data) -> XY:
    """An x, y polynomial from its [[i, j, "num/den"], ...] form, the form
    in which production's Poly2.to_json writes it."""
    return XY({(int(i), int(j)): Fraction(s) for i, j, s in data})


def zpoly_parts(p: ZPoly, den: int) -> tuple:
    """(Re, Im) of p / den as XYs: each term v i^e z^a zbar^b multiplied
    out longhand (_z_power)."""
    re, im = XY(), XY()
    for (a, b, e), v in p.terms():
        pr, pi = _z_power(a, b)
        if e:  # times i
            pr, pi = -pi, pr
        c = Fraction(v, den)
        re, im = re + pr * c, im + pi * c
    return re, im


@lru_cache(maxsize=None)
def _z_power(a: int, b: int) -> tuple:
    """(Re, Im) of z^a zbar^b, z = x + iy and zbar = x - iy multiplied in
    one factor at a time.  Callers never mutate the XYs."""
    if not a + b:
        return XY({(0, 0): 1}), XY()
    re, im = _z_power(a - 1, b) if a else _z_power(a, b - 1)
    sy = Y if a else -Y
    return re * X - im * sy, re * sy + im * X


def partial_xy(p: XY, axis: int) -> XY:
    """d/dx (axis 0) or d/dy (axis 1) of p, term by term."""
    return XY({(i - (axis == 0), j - (axis == 1)): c * (i, j)[axis]
               for (i, j), c in p.items() if (i, j)[axis]})


def laplacian_xy(p: XY) -> XY:
    """d^2p/dx^2 + d^2p/dy^2."""
    return partial_xy(partial_xy(p, 0), 0) + partial_xy(partial_xy(p, 1), 1)


def vanishes_on_circle(p: XY) -> bool:
    """Whether p is zero on the unit circle, exactly.

    Reduced modulo x^2 + y^2 - 1, by y^2 -> 1 - x^2, p is A(x) + y B(x).
    On the circle y = +-sqrt(1 - x^2) for every x in (-1, 1), so A + y B
    and A - y B vanish there exactly when the polynomials A and B are zero.
    """
    reduced = {}
    for (i, j), v in p.items():
        m, odd = divmod(j, 2)
        for k in range(m + 1):  # y^(2m) = (1 - x^2)^m
            key = (i + 2 * k, odd)
            reduced[key] = reduced.get(key, 0) + (-1) ** k * math.comb(m, k) * v
    return not XY(reduced)


def words(n: int):
    """All words of length n over {1, 2} in lexicographic order."""
    if n < 0:
        raise ValueError("negative level")
    return ["".join(word) for word in itertools.product("12", repeat=n)]


def word_index(w: str) -> int:
    """Position of word w in the lexicographic enumeration of its level."""
    idx = 0
    for ch in w:
        if ch not in "12":
            raise ValueError(f"bad word letter {ch!r}")
        idx = (idx << 1) | (int(ch) - 1)
    return idx


class TensorPoly:
    """A tensor of polynomials: level n, one XY per word in {1,2}^n, in a
    list in lexicographic word order; the level-0 tensor is a single XY
    (empty word)."""

    def __init__(self, level: int, entries):
        entries = list(entries)
        if len(entries) != 1 << level:
            raise ValueError(f"level {level} needs {1 << level} entries, got {len(entries)}")
        self.level = level
        self.entries = entries

    @classmethod
    def zeros(cls, level: int) -> "TensorPoly":
        return cls(level, [XY() for _ in range(1 << level)])

    def entry(self, w: str) -> XY:
        if len(w) != self.level:
            raise ValueError(f"word {w!r} has wrong length for level {self.level}")
        return self.entries[word_index(w)]

    def to_json(self):
        return {"level": self.level,
                "entries": {w: self.entry(w).to_json() for w in words(self.level)}}

    @classmethod
    def from_json(cls, data) -> "TensorPoly":
        """A tensor level as `hierarchy --dump-polys` writes it."""
        n = int(data["level"])
        ents = [XY()] * (1 << n)
        for w, pj in data["entries"].items():
            ents[word_index(w)] = xy_of_json(pj)
        return cls(n, ents)


def _real_view(values, den: int, n: int) -> list:
    """Real parts of level n's ZPolys over den, after checking each is
    real, read from production's ZPoly.real_part through its to_json."""
    assert all(value == value.conj() for value in values), f"level {n} is not real"
    return [xy_of_json(value.real_part(den).to_json()) for value in values]


def tensor_view(state, n: int) -> TensorPoly:
    """Tensor level n of a HierarchyState in x, y."""
    values, den = state.tensor_z(n)
    return TensorPoly(n, _real_view(values, den, n))


def developed_view(state, n: int) -> tuple:
    """Developed level n of a HierarchyState in x, y: three XYs."""
    level = state.developed_z(n)
    return tuple(_real_view(level.comps, level.den, n))


def developed_at(state, n: int, x, y) -> tuple:
    """The developed level n at the point (x, y), from its x, y view."""
    return tuple(c.evaluate(x, y) for c in developed_view(state, n))


def m_of_vector(x) -> tuple:
    """M(x) for a pair of scalars; works for Fraction, float or ball entries."""
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


M1 = m_of_vector((Fraction(1), Fraction(0)))
M2 = m_of_vector((Fraction(0), Fraction(1)))


def identity3(one=Fraction(1)) -> tuple:
    zero = one - one
    return ((one, zero, zero), (zero, one, zero), (zero, zero, one))


def m_word(w: str) -> tuple:
    """Ordered product M(e_{i1}) ... M(e_{in}); empty word gives identity."""
    out = identity3()
    for ch in w:
        if ch == "1":
            out = mat_mul(out, M1)
        elif ch == "2":
            out = mat_mul(out, M2)
        else:
            raise ValueError(f"bad word letter {ch!r}")
    return out


def fold_apply_naive(t: TensorPoly, v) -> tuple:
    """Reference implementation: sum of T_w * m_word(w) * v over all words.

    Exponential in the level; used to validate fold_apply on small tensors.
    """
    acc = [XY()] * 3
    for w in words(t.level):
        e = t.entry(w)
        if not e:
            continue
        mv = mat_vec(m_word(w), v)
        acc = [acc[k] + e * mv[k] for k in range(3)]
    return tuple(acc)


def fold_letters(values) -> tuple:
    """M(T) e3 for a tensor T given by its 2^n word values in the letters
    f, fbar (ZPolys, in lexicographic order with f before fbar).

    The right fold of development.fold_apply in these letters: stage 0
    assigns W[w] = (0, 0, T_w), and sibling suffixes merge as

        W'[w] = M(f) W[wf] + M(fbar) W[wfbar] = m_action(u + v, i (u - v))

    with u = W[wf], v = W[wfbar].  Returns the three ZPolys of W[empty word].
    """
    zero = ZPoly()
    work = [(zero, zero, value) for value in values]
    while len(work) > 1:
        work = [m_action(tuple(p + q for p, q in zip(u, v)),
                         tuple((p - q).mul_i() for p, q in zip(u, v)))
                for u, v in zip(work[::2], work[1::2])]
    return work[0]


def radial_levels_fraction(n_max: int):
    """(A_n, C_n) coefficient maps {power: Fraction}, n <= N, solved one
    Fraction at a time; the form of radial.radial_levels before it ran
    on integer numerators over one denominator per level.  Some maps keep
    an explicit zero (C_4 has r^2 -> 0) where the integer route has no key.
    """
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


def tensor_levels_bivariate(n_max: int) -> list:
    """TensorPolys pi_0 .. pi_N, one hierarchy.solve_poisson_zero_bd per
    e-word, each word a ZPoly over one denominator per level: for
    w = (i1, i2, w''), the first-derivative term contributes
    -2 d(pi_{n-1}[i2 w''])/dz_{i1}, with d/dx = d/dz + d/dzbar and
    d/dy = i (d/dz - d/dzbar), and the level n-2 term contributes
    -pi_{n-2}[w''] exactly when i1 = i2."""
    levels = [([ZPoly({(0, 0, 0): 1})], 1), ([ZPoly(), ZPoly()], 1)]
    for n in range(2, n_max + 1):
        (prev, den1), (prev2, den2) = levels[n - 1], levels[n - 2]
        den = math.lcm(den1, den2)
        k1, k2 = -2 * (den // den1), den // den2
        half, quarter = 1 << (n - 1), 1 << (n - 2)
        rhs = []
        for idx in range(1 << n):
            tail = prev[idx & (half - 1)]
            dz, dzbar = tail.d_z(), tail.d_zbar()
            f = (dz + dzbar if idx < half else (dz - dzbar).mul_i()) * k1
            if (idx >> (n - 1)) == (idx >> (n - 2)) & 1:
                f = f - prev2[idx & (quarter - 1)] * k2
            rhs.append(f)
        scale = poisson_scale(rhs)
        levels.append(([solve_poisson_zero_bd(f, scale) for f in rhs], den * scale))
    out = []
    for n, (entries, den) in enumerate(levels[: n_max + 1]):
        parts = [zpoly_parts(value, den) for value in entries]
        assert not any(imag for _, imag in parts), n
        out.append(TensorPoly(n, [real for real, _ in parts]))
    return out


def ball_bisection(width: Fraction) -> tuple:
    """(lo, hi) bisected from (5/2, 3) on ball enclosures of d alone.

    Bisects as locate_pole does, until the bracket is at most width wide
    and strictly inside (5/2, 3), but takes each midpoint's sign from
    d_lambda: at a precision set by the midpoint's dyadic denominator
    (its bits plus 32 guard bits, at least 64, rounded up to a multiple
    of 32), doubled while the enclosure straddles zero, at most six times.
    """
    constants = lru_cache(maxsize=None)(make_constants)
    lo, hi = BRACKET_LO, BRACKET_HI
    while hi - lo > width or lo == BRACKET_LO or hi == BRACKET_HI:
        mid = (lo + hi) / 2
        prec = -(-max(64, mid.denominator.bit_length() + 32) // 32) * 32
        for _ in range(7):
            d = d_lambda(mid, constants(prec), prec)
            if not d.contains_zero():
                break
            prec *= 2
        else:
            raise ArithmeticError(f"d at {mid} straddles zero up to {prec // 2} bits")
        if d.is_negative():
            lo = mid
        else:
            hi = mid
    return lo, hi


def series_sign_integer(mu: Fraction) -> tuple:
    """(sign of E(mu), terms used) for a dyadic mu = p / 2^s > 0.

    With E's first n coefficients numerator_m / L, the partial sum is
    U / (L 2^(s(n-1))) with U = sum_m numerator_m p^m 2^(s(n-1-m)), one
    integer multiply-add per term by Horner.  It has the sign of E when
    its modulus beats the tail bound T_n of enclose,
        |U| / (L q^(n-1)) > 2 (3 p / (2 q))^n / (n! (n+1)!),  q = 2^s,
    which for L = 8 4^(n-1) (n-1)! n! is |U| q n (n+1) > 4 (6 p)^n.
    n runs over the term counts of exactseries._series_sign; past
    _MAX_TERMS the sign is InconclusiveSign.
    """
    p, q = mu.numerator, mu.denominator
    assert p > 0 and not q & (q - 1), mu
    s = q.bit_length() - 1
    n = _FIRST_TERMS
    while n <= _MAX_TERMS:
        if 3 * p <= (n + 1) * (n + 2) * q:  # the tail bound holds from n on
            u, shift = 0, 0
            for numerator in reversed(_series_coefficients(n)[0]):
                u = u * p + (numerator << shift)
                shift += s
            if abs(u) * q * n * (n + 1) > 4 * (6 * p) ** n:
                return (1 if u > 0 else -1), n
        n *= 2
    raise InconclusiveSign(f"E({mu}) not certified by {_MAX_TERMS} series terms")


def series_coefficients_binomial(n: int) -> tuple:
    """(integer numerators of D_0 .. D_{n-1}, L = 8 4^(n-1) (n-1)! n!)
    from D_m = (-1)^m (-a_m - 2 b_m) / (8 4^m m! (m+1)!), where
    a_m + b_m w = sum_k C(m, k) C(m+1, k) w^k conj(w)^(m-k).

    Since w conj(w) = 2, w^k conj(w)^(m-k) is 2^(m-k) w^(2k-m) or
    2^k conj(w)^(m-2k), so only the values of -a - 2b at powers of w
    and conj(w) are needed.
    """
    f_w, f_wbar = [], []  # -a - 2b at w^j and at conj(w)^j
    a, b, abar, bbar = 1, 0, 1, 0
    for _ in range(n):
        f_w.append(-a - 2 * b)
        f_wbar.append(-abar - 2 * bbar)
        a, b = -2 * b, a - b  # times w
        abar, bbar = 2 * bbar - abar, -abar  # times conj(w) = -1 - w
    # L / (8 4^m m! (m+1)!) for m < n
    denominator = 8 * 4 ** (n - 1) * factorial(n - 1) * factorial(n)
    scales, scale = [], denominator // 8
    for m in range(n):
        scales.append(scale)
        scale //= 4 * (m + 1) * (m + 2)
    numerators = []
    for m in range(n):
        binom, minus_a_2b = 1, 0  # binom = C(m, k) C(m+1, k)
        for k in range(m + 1):
            j = 2 * k - m
            minus_a_2b += binom * (f_w[j] << (m - k) if j >= 0
                                   else f_wbar[-j] << k)
            binom = binom * (m - k) * (m + 1 - k) // ((k + 1) * (k + 1))
        numerators.append((-minus_a_2b if m % 2 else minus_a_2b) * scales[m])
    return tuple(numerators), denominator


def closed_form_center(lam: Fraction, digits: int = 200) -> Fraction:
    """C(lambda, 0) = Im(conj(alpha) J1(l conj(zeta))) /
    Im(conj(alpha) J0(l zeta) J1(l conj(zeta))), the quotient
    abc_closed_form takes at r = 0, from mpmath.besselj at `digits`
    significant digits (20 guard digits), as a rational."""
    with mpmath.workdps(digits + 20):
        zeta = mpmath.sqrt(mpmath.mpc(-1, mpmath.sqrt(7)) / 2)
        alpha = zeta ** 3 / 2 + zeta
        lam_mp = mpmath.mpf(lam.numerator) / lam.denominator
        j1 = mpmath.besselj(1, lam_mp * mpmath.conj(zeta))
        num = mpmath.im(mpmath.conj(alpha) * j1)
        den = mpmath.im(mpmath.conj(alpha) * mpmath.besselj(0, lam_mp * zeta) * j1)
        return Fraction(mpmath.nstr(num / den, digits))


def _at_least_pow10(num: int, den: int, e: int) -> bool:
    """Whether num/den >= 10^e, in integers."""
    if e >= 0:
        return num >= den * 10 ** e
    return num * 10 ** -e >= den


def decimal_nearest_integer(q: Fraction, dps: int) -> str:
    """q rounded to nearest, ties away from zero, at dps significant
    digits, in positional notation with trailing zeros stripped."""
    if q == 0:
        return "0.0"
    num, den = abs(q.numerator), q.denominator
    # num/den lies within a factor of 2 of 2^(bit length difference), so
    # this estimate of e with 10^e <= num/den < 10^(e+1) is off by at most
    # one, and exact integer comparisons with 10^e settle it
    e = math.floor((num.bit_length() - den.bit_length()) * math.log10(2))
    while not _at_least_pow10(num, den, e):
        e -= 1
    while _at_least_pow10(num, den, e + 1):
        e += 1
    shift = dps - 1 - e  # n = round(|q| * 10^shift)
    num, den = num * 10 ** max(shift, 0), den * 10 ** max(-shift, 0)
    n = (2 * num + den) // (2 * den)
    if n >= 10 ** dps:  # carry out of the leading digit
        n //= 10
        e += 1
    digits = str(n)
    if e >= 0:
        digits = digits.ljust(e + 1, "0")
        whole, frac = digits[:e + 1], digits[e + 1:]
    else:
        whole, frac = "0", "0" * (-e - 1) + digits
    sign = "-" if q < 0 else ""
    return f"{sign}{whole}.{frac.rstrip('0') or '0'}"
