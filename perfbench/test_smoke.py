"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/test_smoke.py

Checks that every metric named in BENCHMARK.json (and every per-invocation
metric of the report) is emitted with its unit, that outputs are
bit-identical across runs at one seed, and that a corrupted output file
whose manifest was rewritten to match is still caught by the benchmark's
own checks and counted in failed_frac.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
os.chdir(os.path.dirname(HERE))  # the benchmark runs from the checkout root
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(
    series_radius_levels=8, series_compare_levels=8, series_develop_levels=6,
    oracle_tensor_levels=3, oracle_developed_levels=6,
    pole_width="1/100", pole_hiprec_width="1e-6", pole_hiprec_bits=192,
    mc_l2_paths=64, mc_l4_paths=32)
SEED = 20261017

REPORT_KEYS = {
    "series": {"radius_s", "compare_s", "develop_s"},
    "oracle": {"hierarchy_tensor_s", "hierarchy_developed_s"},
    "numeric": {"pole_s", "pole_hiprec_s", "bessel_s",
                "mc_l2_paths_per_s", "mc_l4_paths_per_s"},
}
COMMON_KEYS = {"wall_s", "wall_ref", "setup_s", "peak_rss_mb", "failed_frac"}


def _bump(rat: str) -> str:
    q = Fraction(rat) + Fraction(1, 7)
    return f"{q.numerator}/{q.denominator}"


def corrupt(subcommand: str, text: str) -> str:
    """A wrong but well-formed output for each subcommand."""
    if subcommand in ("radius", "compare"):
        lines = text.splitlines()
        fields = lines[-1].split(",")
        fields[1] = _bump(fields[1]) if "/" in fields[1] else fields[1] + "1"
        return "\n".join(lines[:-1] + [",".join(fields)]) + "\n"
    if subcommand == "mc":
        lines = text.splitlines()
        name, _, err = lines[-1].split(",")
        return "\n".join(lines[:-1] + [f"{name},1.5,{err}"]) + "\n"
    payload = json.loads(text)
    if subcommand == "develop":
        payload["per_level"][-1][2] = _bump(payload["per_level"][-1][2])
    elif subcommand == "hierarchy":
        payload["a"][2] = _bump(payload["a"][2])
    elif subcommand == "pole":
        payload["d_hi"]["mid"] = "-" + payload["d_hi"]["mid"]
    elif subcommand == "bessel":
        payload["pairing"]["d"]["mid"] = str(float(payload["pairing"]["d"]["mid"]) + 1e-3)
    return json.dumps(payload, indent=2) + "\n"


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.OUT_DIR = os.path.join(run.OUT_DIR, "smoke")
        os.makedirs(run.OUT_DIR, exist_ok=True)
        with open("BENCHMARK.json") as handle:
            cls.spec = json.load(handle)
        run.import_disksig()

    def _run(self, name: str, trace: int) -> dict:
        return run.run_workload(name, SEED, 0, trace, self.spec, sizes=TINY)

    def test_every_metric_is_emitted_with_its_unit(self):
        for name in workloads.GENERATORS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=name, trace=trace):
                    result = self._run(name, trace)
                    self.assertEqual(result["failed"], 0, result["failures"])
                    expected = {m["name"]: m["unit"] for m in self.spec[key]}
                    self.assertEqual({k: m["unit"] for k, m in result["metrics"].items()},
                                     expected)
                    if trace == 0:
                        self.assertEqual(set(result["report"]),
                                         REPORT_KEYS[name] | COMMON_KEYS)
                        self.assertTrue(all(v > 0 for k, (v, _, _) in result["report"].items()
                                            if k != "failed_frac"))

    def test_outputs_identical_across_runs_at_one_seed(self):
        first, second = self._run("numeric", 0), self._run("numeric", 0)
        self.assertEqual(first["digests"], second["digests"])
        self.assertTrue(all(len(set(d.values())) == 1 for d in first["digests"].values()))

    def test_corrupted_output_counts_as_failed(self):
        real_run_child = run.run_child

        def corrupting(argv, timeout):
            result = real_run_child(argv, timeout)
            if "--out" in argv:
                path = argv[argv.index("--out") + 1]
                with open(path) as handle:
                    text = corrupt(argv[3], handle.read())
                with open(path, "w") as handle:
                    handle.write(text)
                with open(path + ".manifest.json") as handle:
                    manifest = json.load(handle)
                manifest["output_sha256"] = hashlib.sha256(text.encode()).hexdigest()
                with open(path + ".manifest.json", "w") as handle:
                    json.dump(manifest, handle)
            return result

        run.run_child = corrupting
        try:
            for name in workloads.GENERATORS:
                with self.subTest(workload=name):
                    result = self._run(name, 0)
                    self.assertEqual(result["failed"], result["attempted"])
                    self.assertEqual(result["report"]["failed_frac"][0], 1.0)
                    reasons = {reason for _, _, reason in result["failures"]}
                    self.assertFalse(any("manifest" in r or "exit status" in r
                                         for r in reasons), reasons)
        finally:
            run.run_child = real_run_child


if __name__ == "__main__":
    unittest.main(verbosity=2)
