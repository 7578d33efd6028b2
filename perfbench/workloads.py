"""Workload definitions: seeded CLI invocations, the reason each workload
exists, and which end-to-end metric each layer is predicted to move.

A workload is a list of `disksig` invocations run one after another by a
single client (a closed loop).  Its inputs come only from `--seed`; the
program receives nothing but the generated CLI arguments.

Sizes are smaller than the README examples so that one pass over a
workload (a "round") takes a few seconds and a run repeats it several
times.  Each invocation keeps the layer it was chosen for as its main
cost; interpreter start-up plus `import disksig.cli` (`setup_s`) is paid
by every invocation on top.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

MC_START = (0.5, 0.0)  # the start point test_8 uses; pinned so cost does not vary with the seed


@dataclass(frozen=True)
class Invocation:
    """One CLI call: `key` names its timing metric, `args` omit --out."""

    key: str
    subcommand: str
    args: tuple
    out_ext: str
    paths: int = 0  # Monte Carlo paths, for the paths/s metrics

    def argv(self, out_path: str) -> list:
        return [self.subcommand, *self.args, "--out", out_path]


@dataclass(frozen=True)
class Sizes:
    series_radius_levels: int = 40
    series_compare_levels: int = 40
    series_develop_levels: int = 32
    oracle_tensor_levels: int = 9
    oracle_developed_levels: int = 32
    pole_width: str = "1/1000000"
    pole_hiprec_width: str = "1e-20"
    pole_hiprec_bits: int = 512
    mc_l2_paths: int = 1536
    mc_l4_paths: int = 384


FULL = Sizes()


def _rat(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def _point_in_disk(rng: random.Random) -> tuple:
    """A rational point of the closed unit disk with a small denominator."""
    den = rng.randint(2, 8)
    while True:
        a, b = rng.randint(-den, den), rng.randint(-den, den)
        if a * a + b * b <= den * den:
            return Fraction(a, den), Fraction(b, den)


def series(seed: int, sizes: Sizes = FULL) -> list:
    rng = random.Random(seed)
    lam = Fraction(rng.randint(8, 16), 8)
    x, y = _point_in_disk(rng)
    return [
        Invocation("radius_s", "radius",
                   ("--levels", str(sizes.series_radius_levels)), "csv"),
        Invocation("compare_s", "compare",
                   ("--lambda", _rat(lam), "--levels", str(sizes.series_compare_levels)),
                   "csv"),
        Invocation("develop_s", "develop",
                   ("--lambda", _rat(lam), f"--x={_rat(x)}", f"--y={_rat(y)}",
                    "--levels", str(sizes.series_develop_levels)), "json"),
    ]


def oracle(seed: int, sizes: Sizes = FULL) -> list:
    del seed  # deterministic: both hierarchies take no random input
    return [
        Invocation("hierarchy_tensor_s", "hierarchy",
                   ("--levels", str(sizes.oracle_tensor_levels), "--mode", "tensor"),
                   "json"),
        Invocation("hierarchy_developed_s", "hierarchy",
                   ("--levels", str(sizes.oracle_developed_levels), "--mode", "developed"),
                   "json"),
    ]


def numeric(seed: int, sizes: Sizes = FULL) -> list:
    rng = random.Random(seed)
    lam = Fraction(rng.randint(250, 300), 100)
    mc_seed = rng.randrange(2 ** 32)
    start = ("--x", repr(MC_START[0]), "--y", repr(MC_START[1]))
    return [
        Invocation("pole_s", "pole", ("--width", sizes.pole_width), "json"),
        Invocation("pole_hiprec_s", "pole",
                   ("--width", sizes.pole_hiprec_width,
                    "--precision", str(sizes.pole_hiprec_bits)), "json"),
        Invocation("bessel_s", "bessel", ("--pairing", _rat(lam)), "json"),
        Invocation("mc_l2_paths_per_s", "mc",
                   (*start, "--paths", str(sizes.mc_l2_paths), "--seed", str(mc_seed)),
                   "csv", paths=sizes.mc_l2_paths),
        Invocation("mc_l4_paths_per_s", "mc",
                   (*start, "--paths", str(sizes.mc_l4_paths), "--level", "4",
                    "--seed", str(mc_seed)), "csv", paths=sizes.mc_l4_paths),
    ]


GENERATORS = {"series": series, "oracle": oracle, "numeric": numeric}

WHY = {
    "series": "production exact-series route: a few deep, high-degree polynomials; "
              "the developed hierarchy and its Poisson boundary trace dominate, "
              "balls are light, Monte Carlo is bypassed",
    "oracle": "verification routes: thousands of small low-degree polynomials plus "
              "exact residual/boundary checks and fold_apply; seed unused "
              "(deterministic)",
    "numeric": "non-exact side: ball Bessel and pole bracket at 128 bits (object "
               "overhead) and 512 bits (bignum), Monte Carlo at level 2 (RNG loop) "
               "and level 4 (block krons); exact layers bypassed",
}

# Which end-to-end metric each layer's per-layer metrics should move, per
# workload, written down before any optimisation is measured.
PREDICTIONS = {
    "exactpoly": "radius_s/compare_s on series and hierarchy_*_s on oracle; "
                 "laplacian runs only in checks, so it moves oracle only; "
                 "no change on numeric",
    "hierarchy": "same as exactpoly; hierarchy.radial.s is 0 today and becomes "
                 "series' main cost once production uses the radial route",
    "development": "develop_s on series and, a little, hierarchy_tensor_s on oracle",
    "balls": "pole_s and pole_hiprec_s on numeric, slightly compare_s on series",
    "bessel": "pole_*_s and bessel_s on numeric; repeat_frac counts duplicate "
              "evaluations, and the determinant route in bessel --pairing repeats "
              "on purpose",
    "polefinder": "pole_*_s on numeric (a certified Newton step should cut d_evals), "
                  "slightly compare_s on series",
    "montecarlo": "mc_l2_paths_per_s and mc_l4_paths_per_s on numeric; no change "
                  "elsewhere",
    "cli": "every *_s a little, on all workloads",
}
