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

This module holds what every run needs: the argument parser, the
guard on exact outputs past the digit limit, the manifest, the atomic
writer and `main`.  The precision range and the digit limit are the
package root's, and rational options are read by rational.parse_rat,
so the library refuses what the command line refuses.  The parser
gives every subcommand its name and help line, and its arguments only
to the subcommand argv names (to all of them when argv names none, as
for `-h`, no arguments or an unknown name), so help, usage and errors
are those of the full parser.  The body of subcommand <name> is the
function `run` of module `cli_<name>`, and `main` imports only the one
it dispatches to, so a run compiles no other subcommand's code.

The layers are imported lazily and each subcommand executes only those
it calls: `radius` runs `radial` (the univariate recursion for a_n) and
`rational` (exact-number parsing and printing) only; `compare` adds
`exactseries`, whose exact rational series enclose the closed form;
`develop` adds `development`, `hierarchy` and `exactpoly` for its point
check against the tensor fold, and `hierarchy` runs those oracles.
None of these four loads `dataclasses`, `inspect` or `datetime`: the
exact layers' records are plain classes, and the manifest timestamp is
built from `time`.  `bessel` and `pole` run the ball layers (`balls`
and `bessel` on `bigfloat`'s floats and over `rational`, and
`polefinder` for `pole`, with `exactseries` beneath it); of them only
`pole` loads `dataclasses`, for its certificate.  Only `mc` runs
`montecarlo`, loads numpy (and with it `datetime`) and `dataclasses`
for its records.  No subcommand loads mpmath, which the tests keep as
a reference.  `mc` calls
montecarlo.estimate_expected_sig as a library user does; the engine
fixes its own malloc thresholds.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import itertools
import json
import os
import sys
import time
from fractions import Fraction

from . import (DEFAULT_PREC, DEFAULT_SEED, MAX_DIGITS, MAX_PRECISION, MIN_PRECISION,
               __version__, check_precision)
from ._lazy import lazy_import

# every layer is registered at once and runs its module code on first use,
# so a subcommand executes only the layers it calls, and a caller that
# rebinds a layer's functions in every module of sys.modules (as the
# benchmark's tracer does) finds each layer there before its first use
for _layer in ("balls", "bessel", "development", "exactpoly", "exactseries",
               "hierarchy", "montecarlo", "polefinder", "radial"):
    lazy_import(f"disksig.{_layer}")
rational = lazy_import("disksig.rational")

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
# the narrowest `pole --width`, timed on a 2-vCPU VM: there `pole` takes
# about 0.35 s at 128 bits and 2.5 s at MAX_PRECISION
MIN_POLE_WIDTH = Fraction(1, 10 ** 100)
# `bessel` point caps, timed on a 2-vCPU VM: the auto-selected series
# needs more than |z|/2 terms, so at |z| = MAX_BESSEL_ABS `bessel` takes
# about 0.2 s at 128 bits and 0.7 s (either order) at MAX_PRECISION;
# --terms MAX_BESSEL_TERMS takes about 0.2 s at |z| = 1 (0.5 s at
# MAX_PRECISION); at a tiny point --re 1e-4299 it takes about 0.4 s at
# MAX_BESSEL_TERMS, whose radius 5.38e-8603738 prints in milliseconds
MAX_BESSEL_ABS = 1000
MAX_BESSEL_TERMS = 1000
# `bessel --pairing` cap, timed on a 2-vCPU VM: at |lambda| =
# MAX_PAIRING_ABS it takes about 0.1 s at 128 bits and 0.8 s at
# MAX_PRECISION; uncapped, lambda = 1000 took 2.6 s at 128 bits
MAX_PAIRING_ABS = 30
_DIGITS_ERROR = (
    f"an exact output would have more than {MAX_DIGITS} digits in its "
    "numerator or denominator; ask for fewer levels or smaller denominators")


class UsageError(Exception):
    """Violated precondition of a subcommand; nothing is written."""


def _rat_str(q: Fraction) -> str:
    """"num/den" of an exact output, refusing one Python cannot print."""
    if rational.too_many_digits(q):
        raise UsageError(_DIGITS_ERROR)
    return rational.rat_str(q)


def _parse_rat(text: str) -> Fraction:
    """Rational from "num/den" or an exact decimal like "2.82" / "1e-6",
    read by rational.parse_rat; its refusal is a usage error."""
    try:
        return rational.parse_rat(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _check_precision(prec: int) -> int:
    try:
        return check_precision(prec)
    except ValueError:
        raise UsageError(
            f"--precision must be in {MIN_PRECISION}..{MAX_PRECISION}") from None


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


# -- shared by the subcommand bodies; each cli_<name>.run(args) returns
# (output text, failed checks, stats)


def _words(n: int) -> list:
    """The words of length n over {1, 2} in lexicographic order: the
    labels of a tensor level's entries in `mc` and `--dump-polys`."""
    return ["".join(word) for word in itertools.product("12", repeat=n)]


def _not_real(kind: str, n: int, values) -> list:
    """A failure line if some ZPoly of level n differs from its conjugate
    (the checks of `hierarchy` and `develop`)."""
    if all(value == value.conj() for value in values):
        return []
    return [f"level {n}: {kind} level is not real"]


# -- argument parsing ---------------------------------------------------


# each subcommand's help line, in the order `disksig -h` lists them
_SUBCOMMANDS = {
    "hierarchy": "exact PDE hierarchy levels and checks",
    "develop": "exact partial sums of the developed series",
    "bessel": "ball evaluation of J0/J1 or the boundary pairing",
    "pole": "certified bracket for the first pole",
    "compare": "exact partial sums against the closed form",
    "radius": "ratio diagnostics for the convergence radius",
    "mc": "Monte Carlo expected-signature estimate",
}


def _build_parser(argv) -> argparse.ArgumentParser:
    """The parser for argv: every subcommand is registered with its help
    line, and only the one argv[0] names gets its arguments (all of them
    when it names none), since argparse reads no other subparser."""
    parser = argparse.ArgumentParser(
        prog="disksig",
        description="Expected signature of Brownian motion stopped at the "
                    "unit circle: exact hierarchy, development, closed form, "
                    "pole certificate, Monte Carlo.")
    sub = parser.add_subparsers(dest="cmd", required=True)
    named = argv[0] if argv else None
    for name, help_line in _SUBCOMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if named not in _SUBCOMMANDS or named == name:
            _add_arguments(p, name)
    return parser


def _add_arguments(p: argparse.ArgumentParser, name: str) -> None:
    """The arguments of subcommand `name`, added to its parser p."""
    if name == "hierarchy":
        p.add_argument("--levels", type=int, required=True)
        p.add_argument("--mode", choices=("tensor", "developed"), default="tensor")
        p.add_argument("--dump-polys", action="store_true")
    elif name == "develop":
        p.add_argument("--lambda", dest="lam", type=_parse_rat, default=Fraction(1))
        p.add_argument("--x", type=_parse_rat, default=Fraction(0))
        p.add_argument("--y", type=_parse_rat, default=Fraction(0))
        p.add_argument("--levels", type=int, required=True)
    elif name == "bessel":
        p.add_argument("--nu", type=int, choices=(0, 1))
        p.add_argument("--re", type=_parse_rat)
        p.add_argument("--im", type=_parse_rat)
        p.add_argument("--terms", type=int)
        p.add_argument("--pairing", type=_parse_rat, default=None, metavar="LAMBDA",
                       help="evaluate the pairing d at this rational lambda instead")
        p.add_argument("--precision", type=int, default=DEFAULT_PREC)
    elif name == "pole":
        p.add_argument("--width", type=_parse_rat, default=Fraction(1, 1000))
        p.add_argument("--precision", type=int, default=DEFAULT_PREC)
    elif name == "compare":
        p.add_argument("--lambda", dest="lam", type=_parse_rat, required=True)
        p.add_argument("--levels", type=int, required=True)
        p.add_argument("--precision", type=int, default=DEFAULT_PREC)
    elif name == "radius":
        p.add_argument("--levels", type=int, required=True)
    else:  # mc
        p.add_argument("--x", type=float, default=0.0)
        p.add_argument("--y", type=float, default=0.0)
        p.add_argument("--h", type=float, default=1e-4, help="time step")
        p.add_argument("--level", type=int, default=2)
        p.add_argument("--paths", type=int, default=100_000)
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--no-bridge", action="store_true",
                       help="disable the Brownian-bridge exit test")
    p.add_argument("--out", required=True)


def main(argv=None) -> int:
    parser = _build_parser(sys.argv[1:] if argv is None else argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse printed a usage error or the help
        return exc.code
    command = importlib.import_module(f".cli_{args.cmd}", __package__)
    try:
        text, failures, stats = command.run(args)
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
    # run as `python -m disksig.cli`: the bodies raise the UsageError of
    # the package's own disksig.cli, so that module runs the command
    from disksig.cli import main as package_main

    raise SystemExit(package_main())
