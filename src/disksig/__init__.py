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
    "a_coefficients": "hierarchy",
    "radius_estimate": "hierarchy",
    "SimConfig": "montecarlo",
    "estimate_expected_sig": "montecarlo",
    "PoleCertificate": "polefinder",
    "locate_pole": "polefinder",
    "verify_sign_change": "polefinder",
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
