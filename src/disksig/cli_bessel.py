"""Body of `disksig bessel`, imported only when disksig.cli dispatches it.

It runs the ball layer (disksig.balls and disksig.bessel, which load
mpmath) over disksig.rational.
"""

from __future__ import annotations

import json
from fractions import Fraction

from ._lazy import lazy_import
from .cli import (MAX_BESSEL_ABS, MAX_BESSEL_TERMS, MAX_PAIRING_ABS, UsageError,
                  _check_precision, _rat_str)

balls = lazy_import("disksig.balls")
bessel = lazy_import("disksig.bessel")

# the point of `bessel` without --pairing, which takes none of these
_BESSEL_POINT_DEFAULTS = {"nu": 0, "re": Fraction(0), "im": Fraction(0),
                          "terms": None}


def _overlap(a: balls.RealBall, b: balls.RealBall) -> bool:
    return a.lower() <= b.upper() and b.lower() <= a.upper()


def run(args) -> tuple:
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
