"""Body of `disksig radius`, imported only when disksig.cli dispatches it.

It runs the radial route (disksig.radial) and disksig.rational and no
other layer.
"""

from __future__ import annotations

import csv
import io
import math
import sys

from ._lazy import lazy_import
from .cli import DEVELOPED_CAP, UsageError

radial = lazy_import("disksig.radial")


def run(args) -> tuple:
    if not 0 <= args.levels <= DEVELOPED_CAP:
        raise UsageError(f"--levels must be in 0..{DEVELOPED_CAP}")
    a_vals = radial.a_coefficients(args.levels)
    estimates = radial.radius_estimate(a_vals)
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
