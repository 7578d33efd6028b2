"""Body of `disksig compare`, imported only when disksig.cli dispatches it.

It runs the radial route (disksig.radial), the exact series of the
closed form (disksig.exactseries) and disksig.rational, and no mpmath.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction

from ._lazy import lazy_import
from .cli import DEVELOPED_CAP, UsageError, _check_precision, _rat_str

exactseries = lazy_import("disksig.exactseries")
radial = lazy_import("disksig.radial")
rational = lazy_import("disksig.rational")


def _float_upper(q: Fraction) -> float:
    """Smallest float at or above the rational q (q is read as a bound)."""
    f = float(q)
    while Fraction(f) < q:
        f = math.nextafter(f, math.inf)
    return f


def run(args) -> tuple:
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
    a_vals = radial.a_coefficients(args.levels)
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
    mid_str, rad_str = rational.decimal_parts(
        lo_q, hi_q, rational.decimal_digits(prec))
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
