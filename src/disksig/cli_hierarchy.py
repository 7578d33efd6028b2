"""Body of `disksig hierarchy`, imported only when disksig.cli dispatches it.

It runs the two oracles (disksig.hierarchy over disksig.development and
disksig.exactpoly) and checks them against a_n from disksig.radial.
"""

from __future__ import annotations

import json
from fractions import Fraction

from ._lazy import lazy_import
from .cli import (DEVELOPED_ORACLE_CAP, TENSOR_CAP, TENSOR_DUMP_CAP, UsageError,
                  _not_real, _rat_str, _words)

development = lazy_import("disksig.development")
hierarchy = lazy_import("disksig.hierarchy")
radial = lazy_import("disksig.radial")


def run(args) -> tuple:
    cap = TENSOR_CAP if args.mode == "tensor" else DEVELOPED_ORACLE_CAP
    if not 0 <= args.levels <= cap:
        raise UsageError(f"--levels for mode {args.mode} must be in 0..{cap}")
    if args.mode == "tensor" and args.dump_polys and args.levels > TENSOR_DUMP_CAP:
        raise UsageError(f"--dump-polys in mode tensor needs --levels in 0..{TENSOR_DUMP_CAP}")
    state = hierarchy.HierarchyState()
    n_max = args.levels
    a_vals = radial.a_coefficients(n_max)
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
