"""In-process tracing of `disksig` from outside the package.

`Tracer.install()` rebinds the public functions of each layer, in every
`disksig` module namespace that binds them, to wrappers that record a
span (name, start, end, parent span) or bump a counter.  Nothing under
`src/` is edited; `uninstall()` restores the original bindings.  Spans
stay in memory until the run writes them out.

Self time is a span's duration minus the time its child spans cover.
RealBall/ComplexBall arithmetic and Poly2 x Poly2 products are only
counted: they run about 10^5 times per invocation and a span each would
swamp the trace.
"""

from __future__ import annotations

import inspect
import sys
from collections import Counter
from time import perf_counter

# (module, attribute, span name) for functions, bound wherever they appear
FUNCTION_SPANS = [
    ("exactpoly", "boundary_trace", "exactpoly.boundary_trace"),
    ("exactpoly", "harmonic_extension", "exactpoly.harmonic_extension"),
    ("exactpoly", "laplacian", "exactpoly.laplacian"),
    ("hierarchy", "solve_poisson_zero_bd", "hierarchy.poisson"),
    ("hierarchy", "tensor_rhs", "hierarchy.rhs"),
    ("hierarchy", "developed_rhs", "hierarchy.rhs"),
    ("hierarchy", "tensor_checks", "hierarchy.checks"),
    ("hierarchy", "developed_checks", "hierarchy.checks"),
    ("hierarchy", "a_coefficients", "hierarchy.a_coefficients"),
    ("hierarchy", "radial_levels", "hierarchy.radial"),
    ("hierarchy", "radial_levels_ball", "hierarchy.radial"),
    ("development", "fold_apply", "development.fold_apply"),
    ("development", "partial_sum_F", "development.partial_sum"),
    ("bessel", "bessel_j", "bessel.bessel_j"),
    ("bessel", "make_constants", "bessel.make_constants"),
    ("bessel", "d_lambda", "bessel.d_lambda"),
    ("bessel", "abc_closed_form", "bessel.abc_closed_form"),
    ("bessel", "numerator_im", "bessel.numerator_im"),
    ("polefinder", "locate_pole", "polefinder.locate_pole"),
    ("polefinder", "verify_numerator_nonvanishing", "polefinder.verify_numerator"),
    ("montecarlo", "estimate_expected_sig", "montecarlo.estimate"),
    ("cli", "main", "cli.main"),
]

# (module, class, method, span name)
METHOD_SPANS = [
    ("development", "Vec3Poly", "evaluate", "development.evaluate"),
    ("montecarlo", "SigAccumulator", "update", "montecarlo.accumulate"),
]

# RealBall methods counted as balls.real_ops, with the position of `prec`
# in their arguments (self included)
REAL_BALL_OPS = {"add": 2, "sub": 2, "mul": 2, "div": 2, "sqrt": 1}


def _module(short: str):
    return sys.modules["disksig." + short]


def _ball_key(x):
    """Hashable identity of a Bessel argument: exact midpoints and radii."""
    if hasattr(x, "re"):
        return (x.re.mid, x.re.rad, x.im.mid, x.im.rad)
    if hasattr(x, "mid"):
        return (x.mid, x.rad)
    return x


class Tracer:
    """Spans and counters for one traced pass over a workload."""

    def __init__(self):
        self.spans: list = []   # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.max_prec = 0
        self._stack: list = []
        self._open: Counter = Counter()
        self._bessel_seen: set = set()
        self._bessel_sig = None
        self._patches: list = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        import disksig.cli  # noqa: F401  (loads every layer module)

        self._bessel_sig = inspect.signature(_module("bessel").bessel_j)
        hooks = {
            "hierarchy.poisson": (None, self._after_poisson),
            "bessel.bessel_j": (self._before_bessel_j, None),
            "bessel.make_constants": (self._before_make_constants, None),
            "bessel.d_lambda": (None, self._after_d_lambda),
            "bessel.numerator_im": (self._before_numerator_im, None),
            "montecarlo.estimate": (None, self._after_estimate),
            "cli.main": (self._before_main, None),
        }
        modules = [m for name, m in list(sys.modules.items())
                   if name == "disksig" or name.startswith("disksig.")]
        for short, attr, span in FUNCTION_SPANS:
            original = getattr(_module(short), attr)
            wrapper = self._wrap(span, original, *hooks.get(span, (None, None)))
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)
        for short, cls_name, attr, span in METHOD_SPANS:
            cls = getattr(_module(short), cls_name)
            self._patch(cls, attr, self._wrap(span, getattr(cls, attr), None, None))
        balls = _module("balls")
        for attr, prec_pos in REAL_BALL_OPS.items():
            self._patch(balls.RealBall, attr,
                        self._count_real(getattr(balls.RealBall, attr), prec_pos))
        self._patch(balls.ComplexBall, "mul",
                    self._count(balls.ComplexBall.mul, "complex_mul"))
        poly2 = _module("exactpoly").Poly2
        self._patch(poly2, "__mul__", self._count_poly_mul(poly2.__mul__, poly2))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    # -- wrappers -----------------------------------------------------

    def _wrap(self, name, fn, before, after):
        spans, stack, open_ = self.spans, self._stack, self._open

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            open_[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                open_[name] -= 1
                stack.pop()
                spans[idx][2] = perf_counter()
            if after is not None:
                after(result)
            return result

        return wrapper

    def _count(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_real(self, fn, prec_pos):
        counts = self.counts
        default = inspect.signature(fn).parameters["prec"].default

        def wrapper(*args, **kwargs):
            counts["real_ops"] += 1
            prec = kwargs.get("prec", args[prec_pos] if len(args) > prec_pos else default)
            if prec > self.max_prec:
                self.max_prec = prec
            return fn(*args, **kwargs)

        return wrapper

    def _count_poly_mul(self, fn, poly2):
        counts = self.counts

        def wrapper(a, b):
            if isinstance(b, poly2):
                counts["poly_mul"] += 1
            return fn(a, b)

        return wrapper

    # -- hooks --------------------------------------------------------

    def _before_main(self, args, kwargs):
        self._bessel_seen = set()  # repeats are counted within one invocation

    def _after_poisson(self, result):
        self.counts["poisson_terms"] += sum(1 for _ in result.terms())

    def _before_bessel_j(self, args, kwargs):
        bound = self._bessel_sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        key = (a["nu"], _ball_key(a["x"]), a["n_terms"], a["prec"])
        if key in self._bessel_seen:
            self.counts["bessel_repeat"] += 1
        self._bessel_seen.add(key)

    def _before_make_constants(self, args, kwargs):
        if self._open["polefinder.locate_pole"]:
            self.counts["pole_constants"] += 1

    def _after_d_lambda(self, result):
        if self._open["polefinder.locate_pole"]:
            self.counts["d_evals"] += 1
            if result.contains_zero():
                self.counts["d_inconclusive"] += 1

    def _before_numerator_im(self, args, kwargs):
        if self._open["polefinder.verify_numerator"]:
            self.counts["numerator_pieces"] += 1

    def _after_estimate(self, result):
        self.counts["mc_paths"] += result.count
        self.counts["mc_steps"] += result.count * result.exit_time_mean / result.config.h

    # -- per-layer metrics --------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics of everything traced since construction."""
        calls: Counter = Counter()
        total: Counter = Counter()
        child: Counter = Counter()
        for name, start, end, parent in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s: Counter = Counter()
        for idx, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += (end - start) - child[idx]
        c = self.counts
        out = {}
        for name in ("exactpoly.boundary_trace", "exactpoly.harmonic_extension",
                     "exactpoly.laplacian", "hierarchy.poisson",
                     "development.fold_apply", "development.evaluate",
                     "bessel.bessel_j", "bessel.d_lambda", "bessel.abc_closed_form",
                     "montecarlo.accumulate"):
            out[name + ".calls"] = calls[name]
            out[name + ".self_s"] = self_s[name]
        for name in ("hierarchy.checks", "hierarchy.a_coefficients", "hierarchy.radial",
                     "development.partial_sum", "bessel.make_constants",
                     "polefinder.locate_pole", "polefinder.verify_numerator",
                     "montecarlo.estimate"):
            out[name + ".s"] = total[name]
        out["exactpoly.poly_mul.calls"] = c["poly_mul"]
        out["hierarchy.poisson.terms_out"] = c["poisson_terms"]
        out["hierarchy.rhs.self_s"] = self_s["hierarchy.rhs"]
        out["balls.real_ops"] = c["real_ops"]
        out["balls.complex_mul"] = c["complex_mul"]
        out["balls.max_prec_bits"] = self.max_prec
        out["bessel.bessel_j.repeat_frac"] = _ratio(c["bessel_repeat"], calls["bessel.bessel_j"])
        out["bessel.make_constants.calls"] = calls["bessel.make_constants"]
        out["bessel.numerator_im.calls"] = calls["bessel.numerator_im"]
        out["polefinder.d_evals"] = c["d_evals"]
        out["polefinder.inconclusive_frac"] = _ratio(c["d_inconclusive"], c["d_evals"])
        out["polefinder.escalations"] = c["pole_constants"] - calls["polefinder.locate_pole"]
        out["polefinder.numerator_pieces"] = c["numerator_pieces"]
        out["montecarlo.paths"] = c["mc_paths"]
        out["montecarlo.steps"] = c["mc_steps"]
        out["montecarlo.steps_per_s"] = _ratio(c["mc_steps"], total["montecarlo.estimate"])
        out["cli.main.self_s"] = self_s["cli.main"]
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0
