"""Expected signature of Brownian motion stopped at the unit circle.

Exact rational PDE hierarchy for the signature levels, a hyperbolic
3x3 development of the series, a self-contained ball-arithmetic
evaluation of its Bessel-type closed form, and a certified bracket for
the first pole of the development, proving the series has finite
radius of convergence.

The public names below are resolved on first access, so importing the
package (or its command line) executes no layer that is not used.
"""

import importlib

__version__ = "0.1.0"

# package-wide defaults, read by the command line before any layer loads
DEFAULT_PREC = 128  # ball working precision in bits
DEFAULT_SEED = 2026  # Monte Carlo seed

# package-wide input bounds: a layer refuses an input past them with
# ValueError where the input enters it, and the command line exits 2.
# The working precision, timed on a 2-vCPU VM: at MAX_PRECISION bits,
# `bessel --pairing 141/50` takes about 1.9 s, `pole --width 1/1000` 2.1 s
# and `compare --lambda 2 --levels 40` 0.4 s (0.55 s at lambda 1/3; its
# exact series take 470 to 670 terms there below the pole); each doubling
# costs the ball layers about 4x, and from about 14000 bits a midpoint's
# decimal digits exceed what Python converts to a string
MIN_PRECISION = 53
MAX_PRECISION = 8192
# Python parses no integer of more digits from "num/den" and prints none
# of them, so a rational read from text whose numerator or denominator
# would pass this many digits is refused (disksig.rational.parse_rat), and
# so is a command whose exact output would have more
MAX_DIGITS = 4300


def check_precision(prec: int) -> int:
    """prec, refused with ValueError outside MIN_PRECISION..MAX_PRECISION."""
    if prec < MIN_PRECISION:
        raise ValueError(f"precision below {MIN_PRECISION} bits")
    if prec > MAX_PRECISION:
        raise ValueError(f"precision above {MAX_PRECISION} bits")
    return prec

# public name -> the module that defines it
_EXPORTS = {
    "ComplexBall": "balls",
    "RealBall": "balls",
    "abc_closed_form": "bessel",
    "bessel_j": "bessel",
    "d_lambda": "bessel",
    "make_constants": "bessel",
    "fold_apply": "development",
    "partial_sum_F": "development",
    "HierarchyState": "hierarchy",
    "SimConfig": "montecarlo",
    "estimate_expected_sig": "montecarlo",
    "PoleCertificate": "polefinder",
    "locate_pole": "polefinder",
    "a_coefficients": "radial",
    "radius_estimate": "radial",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
