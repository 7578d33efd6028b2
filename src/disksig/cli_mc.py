"""Body of `disksig mc`, imported only when disksig.cli dispatches it.

It runs disksig.montecarlo (and numpy) and no other layer, calling
estimate_expected_sig as a library user does.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys

from ._lazy import lazy_import
from .cli import UsageError, _words

montecarlo = lazy_import("disksig.montecarlo")


def run(args) -> tuple:
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
