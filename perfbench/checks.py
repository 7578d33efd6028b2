"""Output checks that do not trust the CLI's own self-checks.

Every check reads the bytes an invocation wrote and recomputes what it
can by another route:

* exact series outputs (`radius`, `compare`, `develop`, `hierarchy`)
  against the univariate radial recursion `hierarchy.radial_levels`,
  where a_n = C_n(0) and V_n(x, y) = (x A_n(r)/r, y A_n(r)/r, C_n(r));
* `pole` by reloading the certificate, re-verifying it and re-evaluating
  d at both bracket endpoints at the stored precision;
* `bessel --pairing` against a 200-digit mpmath evaluation;
* `mc` against the exact level-2 block (1 - |z|^2)/4 I and mean exit time
  (1 - |z|^2)/2.

A check returns a list of failure strings; empty means the output passed.
Checks run outside the timed region.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction

# A Monte Carlo component may sit this many of its own standard errors
# from the exact value.  A run checks at most 2 invocations x 5 statistics;
# P(|Z| > 5) = 5.7e-7, so 1000 seeded runs (1e4 statistics) trip it by
# chance with probability below 1%.  The discretisation bias at h = 1e-4
# is far below one standard error at these path counts.  The 3-SE gate of
# the acceptance test is a separate, stricter check at 100k paths.
MC_SE_LIMIT = 5

POLE_WINDOW = (Fraction(282, 100), Fraction(283, 100))


def _frac(text: str) -> Fraction:
    """Exact value of "num/den" or a decimal such as "1e-30"."""
    return Fraction(text)


def _csv_body(text: str) -> tuple:
    """(comment header dict, data rows without the column-name row)."""
    header = {}
    body = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            header[key] = value
        else:
            body.append(line)
    rows = list(csv.reader(io.StringIO("\n".join(body))))
    return header, rows[1:]


def _arg(args: tuple, flag: str, default=None):
    """Value of `flag` given as "--flag value" or "--flag=value"."""
    for i, arg in enumerate(args):
        if arg == flag:
            return args[i + 1]
        if arg.startswith(flag + "="):
            return arg[len(flag) + 1:]
    return default


class Checker:
    """Holds the radial reference levels, extended on demand."""

    def __init__(self):
        self._a_levels: list = []
        self._c_levels: list = []

    def _radial(self, n_max: int) -> tuple:
        if len(self._c_levels) <= n_max:
            from disksig.hierarchy import radial_levels

            self._a_levels, self._c_levels = radial_levels(n_max)
        return self._a_levels[: n_max + 1], self._c_levels[: n_max + 1]

    def a_values(self, n_max: int) -> list:
        return [c.get(0, Fraction(0)) for c in self._radial(n_max)[1]]

    def check(self, inv, data: bytes) -> list:
        try:
            return getattr(self, "_check_" + inv.subcommand)(inv, data.decode())
        except (ValueError, KeyError, IndexError, TypeError, AttributeError,
                ArithmeticError) as exc:
            return [f"{inv.subcommand}: unreadable output ({type(exc).__name__}: {exc})"]

    # -- exact side ---------------------------------------------------

    def _check_radius(self, inv, text: str) -> list:
        levels = int(_arg(inv.args, "--levels"))
        a = self.a_values(levels)
        expect = [repr(math.sqrt(a[2 * k] / a[2 * k + 2])) for k in range(1, levels // 2)]
        _, rows = _csv_body(text)
        got = [row[1] for row in rows]
        if [row[0] for row in rows] != [str(k) for k in range(1, len(rows) + 1)]:
            return ["radius: row indices are not 1..K"]
        if got != expect:
            return ["radius: lambda_hat differs from sqrt(a_2k/a_2k+2) of the radial route"]
        return []

    def _check_compare(self, inv, text: str) -> list:
        levels = int(_arg(inv.args, "--levels"))
        lam = _frac(_arg(inv.args, "--lambda"))
        header, rows = _csv_body(text)
        failures = []
        if _frac(header["lambda"]) != lam or header["levels"] != str(levels):
            failures.append("compare: header does not echo lambda and levels")
        psum, power, expect = Fraction(0), Fraction(1), []
        for a_k in self.a_values(levels):
            psum += power * a_k
            power *= lam
            expect.append(psum)
        if [int(r[0]) for r in rows] != list(range(levels + 1)):
            failures.append("compare: row indices are not 0..levels")
        elif [_frac(r[1]) for r in rows] != expect:
            failures.append("compare: partial sums differ from the radial route")
        return failures

    def _radial_vector(self, n: int, x: Fraction, y: Fraction) -> tuple:
        """(x A_n(r)/r, y A_n(r)/r, C_n(r)) evaluated exactly via s = r^2."""
        a_levels, c_levels = self._radial(n)
        s = x * x + y * y
        if any(m % 2 == 0 for m in a_levels[n]) or any(m % 2 for m in c_levels[n]):
            raise ValueError(f"level {n}: radial parity violated")
        a_over_r = sum((c * s ** ((m - 1) // 2) for m, c in a_levels[n].items()),
                       Fraction(0))
        c_val = sum((c * s ** (m // 2) for m, c in c_levels[n].items()), Fraction(0))
        return (x * a_over_r, y * a_over_r, c_val)

    def _check_develop(self, inv, text: str) -> list:
        levels = int(_arg(inv.args, "--levels"))
        lam = _frac(_arg(inv.args, "--lambda"))
        x, y = _frac(_arg(inv.args, "--x")), _frac(_arg(inv.args, "--y"))
        payload = json.loads(text)
        expect = [self._radial_vector(n, x, y) for n in range(levels + 1)]
        got = [tuple(_frac(c) for c in v) for v in payload["per_level"]]
        failures = []
        if got != expect:
            failures.append("develop: per_level differs from the radial route")
        psum = [Fraction(0)] * 3
        for vec in reversed(expect):
            psum = [psum[k] * lam + vec[k] for k in range(3)]
        if [_frac(c) for c in payload["partial_sum"]] != psum:
            failures.append("develop: partial_sum differs from the radial route")
        return failures

    def _check_hierarchy(self, inv, text: str) -> list:
        levels = int(_arg(inv.args, "--levels"))
        payload = json.loads(text)
        if [_frac(v) for v in payload["a"]] != self.a_values(levels):
            return ["hierarchy: a list differs from the radial route"]
        return []

    # -- numeric side -------------------------------------------------

    def _check_pole(self, inv, text: str) -> list:
        from disksig.bessel import d_lambda, make_constants
        from disksig.polefinder import PoleCertificate

        cert = PoleCertificate.from_json(json.loads(text))
        failures = [f"pole: {f}" for f in cert.verify()]
        if cert.target_width != _frac(_arg(inv.args, "--width")):
            failures.append("pole: certificate target width differs from the request")
        if cert.precision < int(_arg(inv.args, "--precision", 128)):
            failures.append("pole: stored precision below the requested precision")
        if not POLE_WINDOW[0] <= cert.bracket_lo < cert.bracket_hi <= POLE_WINDOW[1]:
            failures.append("pole: bracket not inside [2.82, 2.83]")
        constants = make_constants(cert.precision)
        d_lo = d_lambda(cert.bracket_lo, constants, cert.precision)
        d_hi = d_lambda(cert.bracket_hi, constants, cert.precision)
        if not (d_lo.is_negative() and d_hi.is_positive()):
            failures.append("pole: re-evaluated d does not change sign on the bracket")
        if not (_overlap(d_lo, cert.d_lo) and _overlap(d_hi, cert.d_hi)):
            failures.append("pole: re-evaluated d misses the stored enclosures")
        return failures

    def _check_bessel(self, inv, text: str) -> list:
        from disksig.balls import RealBall

        lam = _frac(_arg(inv.args, "--pairing"))
        pairing = json.loads(text)["pairing"]
        d_ref, num_ref = _pairing_reference(lam)
        failures = []
        if _frac(pairing["lambda"]) != lam:
            failures.append("bessel: lambda not echoed")
        for key, ref in (("d", d_ref), ("d_determinant_route", d_ref),
                         ("numerator", num_ref)):
            ball = RealBall.from_json(pairing[key])
            if not ball.lower() <= ref <= ball.upper():
                failures.append(f"bessel: {key} enclosure misses the 200-digit value")
        return failures

    def _check_mc(self, inv, text: str) -> list:
        header, rows = _csv_body(text)
        config = json.loads(header["config"])
        x, y = float(_arg(inv.args, "--x")), float(_arg(inv.args, "--y"))
        failures = []
        if (config["paths"] != int(_arg(inv.args, "--paths"))
                or config["seed"] != int(_arg(inv.args, "--seed"))
                or config["level"] != int(_arg(inv.args, "--level", 2))
                or config["start"] != [x, y]):
            failures.append("mc: config echo differs from the request")
        stats = {row[0]: (float(row[1]), float(row[2])) for row in rows}
        q = 1.0 - (x * x + y * y)
        exact = {"11": q / 4, "12": 0.0, "21": 0.0, "22": q / 4, "exit_time": q / 2}
        for name, value in exact.items():
            mean, err = stats[name]
            if not (err > 0 and abs(mean - value) <= MC_SE_LIMIT * err):
                failures.append(f"mc: {name} = {mean} is not within {MC_SE_LIMIT} "
                                f"standard errors ({err}) of {value}")
        return failures


def _overlap(a, b) -> bool:
    return a.lower() <= b.upper() and b.lower() <= a.upper()


def _pairing_reference(lam: Fraction) -> tuple:
    """d(lambda) and Im(conj(alpha) J1(lambda conj zeta)) to 200 digits."""
    import mpmath

    with mpmath.workdps(200):
        zeta = mpmath.sqrt(mpmath.mpc(-1, mpmath.sqrt(7)) / 2)
        alpha = zeta ** 3 / 2 + zeta
        lm = mpmath.mpf(lam.numerator) / lam.denominator
        j1_bar = mpmath.besselj(1, lm * mpmath.conj(zeta))
        d = mpmath.im(mpmath.conj(alpha) * mpmath.besselj(0, lm * zeta) * j1_bar)
        num = mpmath.im(mpmath.conj(alpha) * j1_bar)
        return (Fraction(*mpmath.libmp.to_rational(d._mpf_)),
                Fraction(*mpmath.libmp.to_rational(num._mpf_)))
