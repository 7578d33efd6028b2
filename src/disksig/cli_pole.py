"""Body of `disksig pole`, imported only when disksig.cli dispatches it.

It runs disksig.polefinder, which certifies the bracket of
disksig.exactseries on the ball layer (mpmath).
"""

from __future__ import annotations

import json

from ._lazy import lazy_import
from .cli import MIN_POLE_WIDTH, UsageError, _check_precision

polefinder = lazy_import("disksig.polefinder")


def run(args) -> tuple:
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
