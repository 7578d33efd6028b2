"""Body of `disksig develop`, imported only when disksig.cli dispatches it.

It takes V_n from the radial route (disksig.radial) and checks it at
the point against the tensor hierarchy folded through the development
(disksig.hierarchy, disksig.development, disksig.exactpoly).
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from ._lazy import lazy_import
from .cli import _DIGITS_ERROR, DEVELOPED_CAP, UsageError, _not_real, _rat_str

development = lazy_import("disksig.development")
hierarchy = lazy_import("disksig.hierarchy")
radial = lazy_import("disksig.radial")
rational = lazy_import("disksig.rational")

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
                 67, 71, 73, 79, 83, 89, 97)
_E3 = (Fraction(0), Fraction(0), Fraction(1))


def _valuation(n: int, prime: int) -> int:
    """Exponent of prime in the nonzero integer n."""
    v = 0
    while n % prime == 0:
        n //= prime
        v += 1
    return v


def _partial_sum_too_long(lam: Fraction, values) -> bool:
    """Whether some component of sum_n lam^n V_n provably has a
    denominator of more than MAX_DIGITS digits, decided without the sum.

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
        if rational.too_many_digits(Fraction(bound)):
            return True
    return False


def run(args) -> tuple:
    if not 0 <= args.levels <= DEVELOPED_CAP:
        raise UsageError(f"--levels must be in 0..{DEVELOPED_CAP}")
    x, y = args.x, args.y
    if x * x + y * y > 1:
        raise UsageError("point must lie in the closed unit disk")
    # each level is formatted as soon as it is evaluated, so a value past
    # MAX_DIGITS is refused before any later level or the partial sum
    per_level, per_level_text = [], []
    for value in radial.developed_values(args.levels, x, y):
        per_level_text.append([_rat_str(c) for c in value])
        per_level.append(value)
    # a partial sum past MAX_DIGITS is refused before it is summed
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
