"""Command-line front end: reproducible runs with machine-readable output.

Every subcommand writes one output file (JSON or CSV) plus a sidecar
manifest `<out>.manifest.json` recording the subcommand, full parameter
set, tool version, timestamp, a digest of the output bytes, and run
stats (for `mc`, the number of worker processes; for `pole`, the
search: exact midpoint signs, the most series terms one needed, d
evaluations per precision and numerator pieces).  The
output file itself carries no timestamp, so re-running the same command
reproduces it bit for bit; only the manifest differs.

Exit status is 0 only when the run's embedded verification checks all
pass; failed checks are listed on standard error.  Usage errors
(violated caps, malformed flags, an exact output past Python's 4300
digits) exit with status 2 and write nothing; runtime errors (an
uncertifiable sign, an exhausted Monte Carlo block budget, an unwritable
--out) exit with status 1 and write nothing.

Rationals cross the boundary as "num/den" strings and balls as
{"mid", "rad"} decimal strings, so no binary float ambiguity enters the
serialized results.  The default working precision is 128 bits,
overridable with --precision.

The layers are imported lazily and each subcommand executes only those
it calls: `radius`, `develop` and `hierarchy` run the exact layers
(`exactpoly`, `development`, `hierarchy`) and never load mpmath;
`compare` runs those plus `exactseries`, whose exact rational series
enclose the closed form, and no mpmath either.  None of these four
loads `dataclasses`, `inspect` or `datetime`: the exact layers' records
are plain classes, and the manifest timestamp is built from `time`.
`bessel` and `pole` run the ball layers (`balls` and `bessel` over
`exactpoly`, and `polefinder` for `pole`, with `exactseries` beneath
it), the only ones that load mpmath (and `dataclasses`, for their
records); only `mc` runs `montecarlo`, loads numpy (and with it
`datetime`), and no mpmath.  `mc` calls montecarlo.estimate_expected_sig
as a library user does; the engine fixes its own malloc thresholds.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import json
import math
import os
import sys
import time
from fractions import Fraction

from . import DEFAULT_PREC, DEFAULT_SEED, __version__
from ._lazy import lazy_import

# each layer runs its module code on first use, so a subcommand executes
# only the layers it calls
balls = lazy_import("disksig.balls")
bessel = lazy_import("disksig.bessel")
development = lazy_import("disksig.development")
exactpoly = lazy_import("disksig.exactpoly")
exactseries = lazy_import("disksig.exactseries")
hierarchy = lazy_import("disksig.hierarchy")
montecarlo = lazy_import("disksig.montecarlo")
polefinder = lazy_import("disksig.polefinder")

TENSOR_CAP = 16
# --dump-polys in tensor mode writes 2^n x, y polynomials at level n, so its
# time, memory and output size about double per level; timed on a 2-vCPU VM,
# TENSOR_DUMP_CAP = 13 levels take about 5.3 s, 189 MB RSS and 18 MB of
# output, and 14 took 12.7 s, 405 MB and 42 MB
TENSOR_DUMP_CAP = 13
DEVELOPED_CAP = 200  # radial route: develop, compare, radius
# the bivariate developed oracle is solved and checked in z, zbar, at most
# n + 1 terms per component; only --dump-polys builds its x, y view, ~n^2/8
# terms per component, which is then most of the cost: 60 levels take about
# 0.15 s on a 2-vCPU VM (0.25 s with --dump-polys), 120 about 0.2 s (1.5 s)
DEVELOPED_ORACLE_CAP = 60
# --precision caps, timed on a 2-vCPU VM: at MAX_PRECISION bits, `bessel
# --pairing 141/50` takes about 1.9 s, `pole --width 1/1000` 2.1 s and
# `compare --lambda 2 --levels 40` 0.4 s (0.55 s at lambda 1/3; its exact
# series take 470 to 670 terms there below the pole); each doubling costs
# the ball layers about 4x, and from about 14000 bits a midpoint's decimal
# digits exceed what Python converts to a string; at MIN_POLE_WIDTH,
# `pole` takes about 0.35 s at 128 bits and 2.5 s at MAX_PRECISION
MAX_PRECISION = 8192
MIN_POLE_WIDTH = Fraction(1, 10 ** 100)
# `bessel` point caps, timed on a 2-vCPU VM: the auto-selected series
# needs more than |z|/2 terms, so at |z| = MAX_BESSEL_ABS `bessel` takes
# about 0.9 s at 128 bits and 4.0 s (4.7 s for --nu 1) at MAX_PRECISION;
# --terms MAX_BESSEL_TERMS takes about 0.7 s at |z| = 1 (0.9 s at
# MAX_PRECISION), and its cost grows faster than linearly: 4000 terms
# took 5.8 s, 20000 over 100 s
MAX_BESSEL_ABS = 1000
MAX_BESSEL_TERMS = 1000
# `bessel --pairing` cap, timed on a 2-vCPU VM: at |lambda| =
# MAX_PAIRING_ABS it takes about 0.3 s at 128 bits and 5.1 s at
# MAX_PRECISION; uncapped, lambda = 1000 took 2.6 s at 128 bits
MAX_PAIRING_ABS = 30
# the point of `bessel` without --pairing, which takes none of these
_BESSEL_POINT_DEFAULTS = {"nu": 0, "re": Fraction(0), "im": Fraction(0),
                          "terms": None}
# Python parses no integer of more digits from "num/den" and prints none
# of them, so a decimal input whose numerator or denominator would pass
# this many digits is refused, and so is a request whose exact output would
# have more
_MAX_DIGITS = 4300
_DIGITS_ERROR = (
    f"an exact output would have more than {_MAX_DIGITS} digits in its "
    "numerator or denominator; ask for fewer levels or smaller denominators")
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
                 67, 71, 73, 79, 83, 89, 97)
_E3 = (Fraction(0), Fraction(0), Fraction(1))


class UsageError(Exception):
    """Violated precondition of a subcommand; nothing is written."""


def _too_many_digits(q: Fraction) -> bool:
    n = max(abs(q.numerator), q.denominator)
    # 2^(3k) < 10^k, so the power of ten is built only for a huge n
    return n.bit_length() > 3 * _MAX_DIGITS and n >= 10 ** _MAX_DIGITS


def _rat_str(q: Fraction) -> str:
    """"num/den" of an exact output, refusing one Python cannot print."""
    if _too_many_digits(q):
        raise UsageError(_DIGITS_ERROR)
    return exactpoly.rat_str(q)


def _valuation(n: int, prime: int) -> int:
    """Exponent of prime in the nonzero integer n."""
    v = 0
    while n % prime == 0:
        n //= prime
        v += 1
    return v


def _partial_sum_too_long(lam: Fraction, values) -> bool:
    """Whether some component of sum_n lam^n V_n provably has a
    denominator of more than _MAX_DIGITS digits, decided without the sum.

    For a prime l dividing lam's denominator q, the term lam^n V_n has
    l-adic valuation v_l(V_n) - n v_l(q) (lam's numerator is coprime to
    q); when one term alone has the smallest, that is the valuation of
    the sum, so l to minus it divides the sum's denominator.  This is
    tried for each prime below 100.  The rest g of q has larger primes
    only; when g is coprime to every term's denominator and to the top
    nonzero term's numerator, each prime of g has valuation >= 0 in
    every V_n and 0 in the top one, V_N, so term N alone is smallest and
    g^N divides the denominator.  The factors found are coprime, so
    their product divides it too.  On the boundary every V_n with n >= 1
    is 0 and nothing is found, whatever lam is.
    """
    q = lam.denominator
    primes = [(p, _valuation(q, p)) for p in _SMALL_PRIMES if q % p == 0]
    rest = q
    for p, e in primes:
        rest //= p ** e
    for k in range(3):
        terms = [(n, value[k]) for n, value in enumerate(values) if value[k]]
        if not terms:
            continue
        bound = 1
        for p, e in primes:
            vals = [_valuation(c.numerator, p) - _valuation(c.denominator, p) - n * e
                    for n, c in terms]
            low = min(vals)
            if low < 0 and vals.count(low) == 1:
                bound *= p ** -low
        top, c_top = terms[-1]
        if (rest > 1 and math.gcd(rest, c_top.numerator) == 1
                and all(math.gcd(rest, c.denominator) == 1 for _, c in terms)):
            bound *= rest ** top
        if _too_many_digits(Fraction(bound)):
            return True
    return False


def _parse_rat(text: str) -> Fraction:
    """Rational from "num/den" or an exact decimal like "2.82" / "1e-6"."""
    try:
        if "/" in text:
            return Fraction(text)
        from decimal import Decimal

        value = Decimal(text)
        if value.is_finite():
            _, digits, exponent = value.as_tuple()
            # beyond this the numerator or denominator passes _MAX_DIGITS
            # digits anyway; refusing first never builds a huge integer
            if abs(exponent) > _MAX_DIGITS + len(digits):
                raise argparse.ArgumentTypeError(f"exponent out of range: {text!r}")
        q = Fraction(value)
        if _too_many_digits(q):
            raise argparse.ArgumentTypeError(
                f"more than {_MAX_DIGITS} digits in numerator or denominator: {text!r}")
        return q
    except (ValueError, ArithmeticError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _check_precision(prec: int) -> int:
    if not 53 <= prec <= MAX_PRECISION:
        raise UsageError(f"--precision must be in 53..{MAX_PRECISION}")
    return prec


def _float_upper(q: Fraction) -> float:
    """Smallest float at or above the rational q (q is read as a bound)."""
    f = float(q)
    while Fraction(f) < q:
        f = math.nextafter(f, math.inf)
    return f


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    while True:
        tmp = os.path.join(directory,
                           f".disksig-{os.getpid()}-{os.urandom(8).hex()}")
        try:
            # 0o666 less the umask, the mode open() would give the file
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            break
        except FileExistsError:
            continue
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _utc_timestamp() -> str:
    """The current UTC time as datetime.now(timezone.utc).isoformat()
    writes it, microseconds omitted when zero, without loading datetime."""
    seconds, nanoseconds = divmod(time.time_ns(), 10 ** 9)
    micro = nanoseconds // 1000
    return (time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds))
            + (f".{micro:06d}" if micro else "") + "+00:00")


def _manifest_value(value):
    if isinstance(value, Fraction):
        return _rat_str(value)
    return value


def _manifest_text(subcommand: str, args: argparse.Namespace,
                   out_path: str, text: str, stats: dict) -> str:
    params = {key: _manifest_value(val) for key, val in sorted(vars(args).items())
              if key not in ("cmd", "out")}
    manifest = {
        "schema": "disksig.manifest/1",
        "subcommand": subcommand,
        "parameters": params,
        "version": __version__,
        "timestamp": _utc_timestamp(),
        "output": out_path,
        "output_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "stats": stats,
    }
    return json.dumps(manifest, indent=2) + "\n"


# -- subcommand bodies: each returns (output text, failed checks, stats) -


def cmd_hierarchy(args) -> tuple:
    cap = TENSOR_CAP if args.mode == "tensor" else DEVELOPED_ORACLE_CAP
    if not 0 <= args.levels <= cap:
        raise UsageError(f"--levels for mode {args.mode} must be in 0..{cap}")
    if args.mode == "tensor" and args.dump_polys and args.levels > TENSOR_DUMP_CAP:
        raise UsageError(f"--dump-polys in mode tensor needs --levels in 0..{TENSOR_DUMP_CAP}")
    state = hierarchy.HierarchyState()
    n_max = args.levels
    a_vals = hierarchy.a_coefficients(n_max)
    checks = []
    failures = []
    check = (hierarchy.tensor_checks if args.mode == "tensor"
             else hierarchy.developed_checks)
    for n in range(1, n_max + 1):
        res = check(state, n)
        checks.append({"level": n, **res})
        for name, ok in res.items():
            if not ok:
                failures.append(f"level {n}: {name}")
    if args.mode == "developed":
        developed = [state.developed_z(n) for n in range(n_max + 1)]
        for n, level in enumerate(developed):
            failures.extend(_not_real("developed", n, level.comps))
            # the bivariate oracle checks the radial production route
            c3_origin = dict(level.comps[2].terms()).get((0, 0, 0), 0)
            if Fraction(c3_origin, level.den) != a_vals[n]:
                failures.append(f"level {n}: bivariate C_n(0, 0) != radial a_n")
    odd_ok = all(a_vals[n] == 0 for n in range(1, n_max + 1, 2))
    if not odd_ok:
        failures.append("odd-level coefficients not all zero")
    payload = {
        "schema": "disksig.hierarchy/1",
        "mode": args.mode,
        "levels": n_max,
        "a": [_rat_str(v) for v in a_vals],
        "checks": checks,
        "odd_levels_vanish": odd_ok,
    }
    if args.mode == "tensor":
        # one butterfly per level gives both the norms and the origin fold
        origins = [hierarchy.origin_values(state, n) for n in range(n_max + 1)]
        payload["norms"] = [
            {"level": n, "l1": _rat_str(norm.l1),
             "l2sq": _rat_str(norm.l2sq)}
            for n, origin in enumerate(origins)
            for norm in (hierarchy.level_norms(origin),)
        ]
        # the derivation of each level's right-hand side is checked here,
        # not by its residual verdict: in z, zbar against the developed
        # level where that is cheap, at the origin against a_n at every
        # level; each level expanded is expanded once, for both the fold
        # and the dump
        fold_ok = True
        dumped = []
        for n in range(n_max + 1 if args.dump_polys else min(n_max, 8) + 1):
            values, den = state.tensor_z(n)
            failures.extend(_not_real("tensor", n, values))
            if n <= 8:
                dev = state.developed_z(n)
                if any(f * dev.den != c * den for f, c
                       in zip(development.fold_apply(values), dev.comps)):
                    fold_ok = False
                    failures.append(f"level {n}: fold of tensor level != developed level")
            if args.dump_polys:
                dumped.append({"level": n, "entries": {
                    word: value.real_part(den).to_json()
                    for word, value in zip(_words(n), values)}})
        for n, origin in enumerate(origins):
            if hierarchy.origin_development(origin) != (0, 0, a_vals[n]):
                fold_ok = False
                failures.append(f"level {n}: fold of tensor level at the origin != a_n")
        payload["fold_matches_developed"] = fold_ok
    if args.dump_polys:
        if args.mode == "tensor":
            payload["polynomials"] = dumped
        else:
            payload["polynomials"] = [[comp.real_part(level.den).to_json()
                                       for comp in level.comps]
                                      for level in developed]
    return json.dumps(payload, indent=2) + "\n", failures, {}


def _not_real(kind: str, n: int, values) -> list:
    """A failure line if some ZPoly of level n differs from its conjugate."""
    if all(value == value.conj() for value in values):
        return []
    return [f"level {n}: {kind} level is not real"]


def cmd_develop(args) -> tuple:
    if not 0 <= args.levels <= DEVELOPED_CAP:
        raise UsageError(f"--levels must be in 0..{DEVELOPED_CAP}")
    x, y = args.x, args.y
    if x * x + y * y > 1:
        raise UsageError("point must lie in the closed unit disk")
    # each level is formatted as soon as it is evaluated, so a value past
    # _MAX_DIGITS is refused before any later level or the partial sum
    per_level, per_level_text = [], []
    for value in hierarchy.developed_values(args.levels, x, y):
        per_level_text.append([_rat_str(c) for c in value])
        per_level.append(value)
    # a partial sum past _MAX_DIGITS is refused before it is summed
    if _partial_sum_too_long(args.lam, per_level):
        raise UsageError(_DIGITS_ERROR)
    psum = development.partial_sum_F(args.lam, per_level)
    checks = {}
    if y == 0:
        checks["axis_second_component_zero"] = all(v[1] == 0 for v in per_level)
    if x * x + y * y == 1:
        checks["boundary_partial_sum_is_e3"] = tuple(psum) == _E3
    # the fold of each tensor level, expanded in z, zbar, must be real and
    # equal the radial triple at (x, y)
    state = hierarchy.HierarchyState()
    unreal = []
    checks["fold_route_matches"] = True
    for n in range(min(args.levels, 6) + 1):
        values, den = state.tensor_z(n)
        unreal = _not_real("tensor", n, values)
        folded = development.Vec3Poly(*(c.real_part(den)
                                        for c in development.fold_apply(values)))
        if unreal or folded.evaluate(x, y) != per_level[n]:
            checks["fold_route_matches"] = False
            break
    failures = [name for name, ok in checks.items() if not ok] + unreal
    payload = {
        "schema": "disksig.develop/1",
        "lambda": _rat_str(args.lam),
        "point": [_rat_str(x), _rat_str(y)],
        "levels": args.levels,
        "partial_sum": [_rat_str(v) for v in psum],
        "per_level": per_level_text,
        "checks": checks,
    }
    return json.dumps(payload, indent=2) + "\n", failures, {}


def _overlap(a: balls.RealBall, b: balls.RealBall) -> bool:
    return a.lower() <= b.upper() and b.lower() <= a.upper()


def cmd_bessel(args) -> tuple:
    prec = _check_precision(args.precision)
    failures = []
    if args.pairing is not None:
        given = [f"--{name}" for name in _BESSEL_POINT_DEFAULTS
                 if getattr(args, name) is not None]
        if given:
            raise UsageError(f"--pairing takes no point options: {', '.join(given)}")
        if abs(args.pairing) > MAX_PAIRING_ABS:
            raise UsageError(f"|--pairing| must be at most {MAX_PAIRING_ABS}")
        constants = bessel.make_constants(prec)
        lam = args.pairing
        d_direct, d_det, num = bessel.pairing(lam, constants)
        two_route = _overlap(d_direct, d_det)
        if not two_route:
            failures.append("pairing two-route enclosures are disjoint")
        payload = {
            "schema": "disksig.bessel/1",
            "pairing": {
                "lambda": _rat_str(lam),
                "d": d_direct.to_json(),
                "d_determinant_route": d_det.to_json(),
                "numerator": num.to_json(),
                "two_route_overlap": two_route,
            },
            "precision": prec,
            "terms": bessel.series_terms(lam, constants),
        }
        return json.dumps(payload, indent=2) + "\n", failures, {}
    for name, default in _BESSEL_POINT_DEFAULTS.items():
        if getattr(args, name) is None:  # the manifest records the value used
            setattr(args, name, default)
    if args.re * args.re + args.im * args.im > MAX_BESSEL_ABS ** 2:
        raise UsageError(f"|--re + i --im| must be at most {MAX_BESSEL_ABS}")
    if args.terms is not None and not 1 <= args.terms <= MAX_BESSEL_TERMS:
        raise UsageError(f"--terms must be in 1..{MAX_BESSEL_TERMS}")
    point = balls.ComplexBall.from_rationals(args.re, args.im, prec)
    if args.terms is not None:
        try:  # the series' own tail check, so the two cannot disagree
            bessel.bessel_tail_bound(point, args.terms)
        except ValueError as exc:
            raise UsageError(
                f"--terms {args.terms} is too few for this point: the tail "
                f"bound needs |x| < 2(terms + 1) = {2 * (args.terms + 1)}") from exc
    value = bessel.bessel_j(args.nu, point, n_terms=args.terms, prec=prec)
    mirrored = bessel.bessel_j(args.nu, point.conj(), n_terms=args.terms, prec=prec)
    conj_ok = (_overlap(value.re, mirrored.re)
               and _overlap(value.im, mirrored.im.neg()))
    if not conj_ok:
        failures.append("conjugation symmetry enclosures are disjoint")
    payload = {
        "schema": "disksig.bessel/1",
        "nu": args.nu,
        "point": {"re": _rat_str(args.re), "im": _rat_str(args.im)},
        "value": value.to_json(),
        "conjugation_symmetry": conj_ok,
        "precision": prec,
        "terms": args.terms,
    }
    return json.dumps(payload, indent=2) + "\n", failures, {}


def cmd_pole(args) -> tuple:
    if args.width <= 0:
        raise UsageError("--width must be positive")
    if args.width < MIN_POLE_WIDTH:
        raise UsageError(f"--width must be at least {float(MIN_POLE_WIDTH):g}")
    prec = _check_precision(args.precision)
    certificate = polefinder.locate_pole(args.width, precision=prec)
    text = json.dumps(certificate.to_json(), indent=2) + "\n"
    # replay the certificate from the bytes written, not the in-memory object
    failures = polefinder.PoleCertificate.from_json(json.loads(text)).verify()
    return text, failures, certificate.search


def cmd_compare(args) -> tuple:
    if args.lam < 0:
        raise UsageError("--lambda must be nonnegative")
    if not 0 <= args.levels <= DEVELOPED_CAP:
        raise UsageError(f"--levels must be in 0..{DEVELOPED_CAP}")
    prec = _check_precision(args.precision)
    # exact signs of d prove a zero in (lo, hi), whatever the precision
    lo, hi, _, _ = exactseries.exact_bracket(Fraction(1, 100))
    if args.lam >= lo:
        raise UsageError(
            "lambda {} is not below the certified pole bracket [{}, {}]; "
            "the series does not converge there (see the pole subcommand "
            "for the certificate)".format(
                _rat_str(args.lam), _rat_str(lo), _rat_str(hi)))
    a_vals = hierarchy.a_coefficients(args.levels)
    lo_q, hi_q = exactseries.enclose_center(args.lam, prec)
    psum = Fraction(0)
    power = Fraction(1)
    rows = []
    gaps = []
    for k in range(args.levels + 1):
        psum += power * a_vals[k]
        power *= args.lam
        gap = max(lo_q - psum, psum - hi_q, Fraction(0))  # distance to the ball
        gaps.append(gap)
        rows.append((k, _rat_str(psum), repr(_float_upper(gap))))
    failures = []
    if args.levels >= 8 and gaps[-1] > gaps[args.levels // 2]:
        failures.append("partial-sum gap failed to shrink over the second half")
    # the midpoint digits of a RealBall at this precision
    mid_str, rad_str = exactpoly.decimal_parts(
        lo_q, hi_q, exactpoly.decimal_digits(prec))
    buf = io.StringIO()
    buf.write("# schema: disksig.compare/1\n")
    buf.write(f"# lambda: {_rat_str(args.lam)}\n")
    buf.write(f"# levels: {args.levels}\n")
    buf.write(f"# precision: {prec}\n")
    buf.write(f"# closed_form_mid: {mid_str}\n")
    buf.write(f"# closed_form_rad: {rad_str}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["k", "partial_sum", "gap"])
    writer.writerows(rows)
    return buf.getvalue(), failures, {}


def cmd_radius(args) -> tuple:
    if not 0 <= args.levels <= DEVELOPED_CAP:
        raise UsageError(f"--levels must be in 0..{DEVELOPED_CAP}")
    a_vals = hierarchy.a_coefficients(args.levels)
    estimates = hierarchy.radius_estimate(a_vals)
    failures = []
    buf = io.StringIO()
    buf.write("# schema: disksig.radius/1\n")
    buf.write(f"# levels: {args.levels}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["k", "lambda_hat"])
    if not estimates:
        buf.write("# insufficient data: ratio estimates need at least 4 levels\n")
        print("notice: insufficient data for a radius estimate "
              f"(levels={args.levels}, need >= 4)", file=sys.stderr)
    for k, est in enumerate(estimates, start=1):
        writer.writerow([k, repr(est)])
        if not (math.isfinite(est) and est > 0):
            failures.append(f"ratio estimate {k} is not a positive finite value")
    return buf.getvalue(), failures, {}


def _words(n: int) -> list:
    """The words of length n over {1, 2} in lexicographic order: the
    labels of a tensor level's entries in `mc` and `--dump-polys`."""
    return ["".join(word) for word in itertools.product("12", repeat=n)]


def cmd_mc(args) -> tuple:
    try:
        config = montecarlo.SimConfig(start=(args.x, args.y), h=args.h,
                                      level=args.level, paths=args.paths,
                                      seed=args.seed,
                                      bridge_correction=not args.no_bridge)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    result = montecarlo.estimate_expected_sig(config)
    failures = []
    if result.count != config.paths:
        failures.append("accumulated path count does not match the request")
    from dataclasses import asdict  # loaded with montecarlo already
    buf = io.StringIO()
    buf.write("# schema: disksig.mc/1\n")
    buf.write(f"# config: {json.dumps(asdict(config))}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["word", "mean", "stderr"])
    for n in range(config.level + 1):
        means = result.means[n]
        errs = result.stderrs[n]
        for idx, word in enumerate(_words(n)):
            mean, err = float(means[idx]), float(errs[idx])
            writer.writerow([word, repr(mean), repr(err)])
            if not (math.isfinite(mean) and math.isfinite(err)):
                failures.append(f"component {word or '<empty>'} is not finite")
    writer.writerow(["exit_time", repr(result.exit_time_mean),
                     repr(result.exit_time_stderr)])
    if not (result.exit_time_mean > 0 and math.isfinite(result.exit_time_stderr)):
        failures.append("exit-time statistics are not finite and positive")
    # deviations from the levels known in closed form: from z the mean exit
    # time is (1 - |z|^2)/2 and level 2 is (1 - |z|^2)/4 times the identity;
    # informational, not a check, since --no-bridge is biased by design
    q = 1.0 - (args.x * args.x + args.y * args.y)
    report = [("exit_time", result.exit_time_mean, result.exit_time_stderr, q / 2)]
    if config.level >= 2:
        report += [(word, float(result.means[2][idx]), float(result.stderrs[2][idx]),
                    q / 4 if word in ("11", "22") else 0.0)
                   for idx, word in enumerate(_words(2))]
    for name, est, err, exact in report:
        if err == 0:  # every path alike, e.g. all stopped at their first step
            deviation = "n/a (zero standard error)"
        else:
            dev = abs(est - exact) / err if err < math.inf else math.nan
            deviation = f"{dev:.2f} SE"
        print(f"mc {name}: estimate {est:+.6f} stderr {err:.6f} "
              f"exact {exact:+.6f} deviation {deviation}", file=sys.stderr)
    # an exit time is a whole number of steps, so a second step anywhere
    # would lift the mean by h / paths
    if result.exit_time_mean < config.h * (1 + 0.5 / result.count):
        print(f"warning: all {result.count} paths stopped at their first step; "
              f"--h {config.h!r} is too coarse to follow a path inside the disk",
              file=sys.stderr)
    return buf.getvalue(), failures, {"workers": result.workers}


# -- argument parsing ---------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="disksig",
        description="Expected signature of Brownian motion stopped at the "
                    "unit circle: exact hierarchy, development, closed form, "
                    "pole certificate, Monte Carlo.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("hierarchy", help="exact PDE hierarchy levels and checks")
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--mode", choices=("tensor", "developed"), default="tensor")
    p.add_argument("--dump-polys", action="store_true")
    p.add_argument("--out", required=True)

    p = sub.add_parser("develop", help="exact partial sums of the developed series")
    p.add_argument("--lambda", dest="lam", type=_parse_rat, default=Fraction(1))
    p.add_argument("--x", type=_parse_rat, default=Fraction(0))
    p.add_argument("--y", type=_parse_rat, default=Fraction(0))
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("bessel", help="ball evaluation of J0/J1 or the boundary pairing")
    p.add_argument("--nu", type=int, choices=(0, 1))
    p.add_argument("--re", type=_parse_rat)
    p.add_argument("--im", type=_parse_rat)
    p.add_argument("--terms", type=int)
    p.add_argument("--pairing", type=_parse_rat, default=None, metavar="LAMBDA",
                   help="evaluate the pairing d at this rational lambda instead")
    p.add_argument("--precision", type=int, default=DEFAULT_PREC)
    p.add_argument("--out", required=True)

    p = sub.add_parser("pole", help="certified bracket for the first pole")
    p.add_argument("--width", type=_parse_rat, default=Fraction(1, 1000))
    p.add_argument("--precision", type=int, default=DEFAULT_PREC)
    p.add_argument("--out", required=True)

    p = sub.add_parser("compare", help="exact partial sums against the closed form")
    p.add_argument("--lambda", dest="lam", type=_parse_rat, required=True)
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--precision", type=int, default=DEFAULT_PREC)
    p.add_argument("--out", required=True)

    p = sub.add_parser("radius", help="ratio diagnostics for the convergence radius")
    p.add_argument("--levels", type=int, required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("mc", help="Monte Carlo expected-signature estimate")
    p.add_argument("--x", type=float, default=0.0)
    p.add_argument("--y", type=float, default=0.0)
    p.add_argument("--h", type=float, default=1e-4, help="time step")
    p.add_argument("--level", type=int, default=2)
    p.add_argument("--paths", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--no-bridge", action="store_true",
                   help="disable the Brownian-bridge exit test")
    p.add_argument("--out", required=True)

    return parser


_HANDLERS = {
    "hierarchy": cmd_hierarchy,
    "develop": cmd_develop,
    "bessel": cmd_bessel,
    "pole": cmd_pole,
    "compare": cmd_compare,
    "radius": cmd_radius,
    "mc": cmd_mc,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse printed a usage error or the help
        return exc.code
    try:
        text, failures, stats = _HANDLERS[args.cmd](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    manifest = _manifest_text(args.cmd, args, args.out, text, stats)
    written = []
    try:
        for path, body in ((args.out, text), (args.out + ".manifest.json", manifest)):
            _atomic_write(path, body)
            written.append(path)
    except OSError as exc:
        for done in written:
            os.unlink(done)
        print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    if failures:
        for item in failures:
            print(f"check failed: {item}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
