"""CLI contract: schemas, manifests, bit-reproducibility, exit statuses."""

import csv
import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F

import pytest

import disksig.cli as cli
import disksig.montecarlo as montecarlo
from disksig.cli import DEVELOPED_CAP, main
from disksig.hierarchy import HierarchyState


def run(tmp_path, *argv):
    out = tmp_path / "out"
    rc = main([*argv, "--out", str(out)])
    return rc, out


def read_manifest(out):
    with open(str(out) + ".manifest.json") as handle:
        return json.load(handle)


def test_hierarchy_json_and_manifest(tmp_path):
    rc, out = run(tmp_path, "hierarchy", "--levels", "4", "--mode", "tensor")
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "disksig.hierarchy/1"
    assert payload["a"] == ["1/1", "0/1", "1/2", "0/1", "1/16"]
    assert all(c["residual_ok"] and c["boundary_ok"]
               for c in payload["checks"])
    manifest = read_manifest(out)
    assert manifest["schema"] == "disksig.manifest/1"
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert manifest["output_sha256"] == digest
    assert manifest["parameters"]["levels"] == 4


def test_hierarchy_developed_mode(tmp_path):
    rc, out = run(tmp_path, "hierarchy", "--levels", "2",
                  "--mode", "developed")
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["a"][2] == "1/2"
    assert "norms" not in payload


def test_hierarchy_developed_mode_checks_radial_route(tmp_path, monkeypatch,
                                                     capsys):
    radial = cli.hierarchy.a_coefficients
    monkeypatch.setattr(cli.hierarchy, "a_coefficients",
                        lambda n: [2 * v if k == 2 else v
                                   for k, v in enumerate(radial(n))])
    rc, out = run(tmp_path, "hierarchy", "--levels", "4", "--mode", "developed")
    assert rc == 1
    assert "level 2: bivariate C_n(0, 0) != radial a_n" in capsys.readouterr().err
    assert json.loads(out.read_text())["a"][2] == "1/1"


def test_hierarchy_cap_violation(tmp_path):
    rc, out = run(tmp_path, "hierarchy", "--levels", "17", "--mode", "tensor")
    assert rc == 2
    assert not out.exists()


def test_hierarchy_developed_oracle_cap(tmp_path):
    rc, out = run(tmp_path, "hierarchy", "--mode", "developed",
                  "--levels", str(cli.DEVELOPED_ORACLE_CAP + 1))
    assert rc == 2
    assert not out.exists()
    assert not (tmp_path / "out.manifest.json").exists()


def test_hierarchy_dump_polys_round_trips(tmp_path):
    rc, out = run(tmp_path, "hierarchy", "--levels", "2", "--dump-polys")
    assert rc == 0
    payload = json.loads(out.read_text())
    from disksig.exactpoly import TensorPoly

    t2 = TensorPoly.from_json(payload["polynomials"][2])
    from disksig.exactpoly import Poly2

    disk = Poly2.const(1) - Poly2.monomial(2, 0) - Poly2.monomial(0, 2)
    assert t2.entry("11") == disk * F(1, 4)


@pytest.mark.parametrize("mode, levels, digest", [
    ("tensor", 8,
     "338ddc8db32ef5d942a46eb9b32d08186aa2454962e1c8aa72ea954e2b0cb1e9"),
    ("developed", 24,
     "de58e72dbbac53f86764e0869d2f1c9f22b5286156228dbcb512f9d1e42571e4"),
])
def test_hierarchy_dump_polys_bytes_are_pinned(tmp_path, mode, levels, digest):
    # every dumped rational of both oracle hierarchies, pinned to the bytes
    # of the rational product-to-sum trace and Poly2-product extension
    rc, out = run(tmp_path, "hierarchy", "--levels", str(levels),
                  "--mode", mode, "--dump-polys")
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("mode, levels, name", [
    ("developed", 32, "developed_rhs"),
    ("tensor", 9, "tensor_rhs"),
])
def test_hierarchy_builds_each_right_hand_side_once(tmp_path, monkeypatch,
                                                   mode, levels, name):
    # levels 2..N are solved (31 of 32 developed, 8 of 9 tensor levels),
    # and each level's check reads the residual verdict its solve recorded
    # instead of building the rhs again
    import disksig.hierarchy as hierarchy

    real = getattr(hierarchy, name)
    calls = []

    def counted(state, n):
        calls.append(n)
        return real(state, n)

    monkeypatch.setattr(hierarchy, name, counted)
    rc, _ = run(tmp_path, "hierarchy", "--levels", str(levels), "--mode", mode)
    assert rc == 0
    assert calls == list(range(2, levels + 1))


@pytest.mark.parametrize("broken", ["residual_ok", "boundary_ok"])
@pytest.mark.parametrize("mode", ["tensor", "developed"])
def test_hierarchy_exits_1_on_a_wrong_level(tmp_path, capsys, wrong_level,
                                           mode, broken):
    wrong_level(mode, 3, broken)
    rc, out = run(tmp_path, "hierarchy", "--levels", "5", "--mode", mode)
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.endswith("_ok")] == [
        f"check failed: level 3: {broken}"]
    checks = json.loads(out.read_text())["checks"]
    assert [c["level"] for c in checks if not c[broken]] == [3]


def test_develop_subcommand(tmp_path):
    rc, out = run(tmp_path, "develop", "--lambda", "1", "--levels", "2")
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "disksig.develop/1"
    assert payload["partial_sum"] == ["0/1", "0/1", "3/2"]
    assert payload["checks"]["fold_route_matches"] is True


def test_develop_rejects_outside_disk(tmp_path):
    rc, out = run(tmp_path, "develop", "--lambda", "1", "--levels", "2",
                  "--x", "2")
    assert rc == 2


def test_bessel_point_evaluation(tmp_path):
    rc, out = run(tmp_path, "bessel", "--nu", "0", "--re", "3/2")
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "disksig.bessel/1"
    assert payload["conjugation_symmetry"] is True
    mid = F(payload["value"]["re"]["mid"])
    assert abs(mid - F("0.5118276717359181")) < F(1, 10 ** 10)


def test_bessel_pairing_mode(tmp_path):
    rc, out = run(tmp_path, "bessel", "--pairing", "141/50")
    assert rc == 0
    payload = json.loads(out.read_text())
    pairing = payload["pairing"]
    assert pairing["two_route_overlap"] is True
    assert F(pairing["d"]["mid"]) < 0


# sha256 of `disksig bessel --pairing LAMBDA --precision P` output, taken
# while d, its determinant route and the numerator came from separate
# evaluations of the same series
PINNED_PAIRINGS = [
    ("141/50", 128,
     "5477cd3a710cee06d7ceb6d8fe7058537b13456386710cc2c9e2bb8ad960c4f6"),
    ("27/10", 512,
     "01919a1acf28bef7749526ce5aa88807e4ef4f3fe7dc659840c409f917e52041"),
]


@pytest.mark.parametrize("lam, precision, digest", PINNED_PAIRINGS,
                         ids=["2.82@128", "2.7@512"])
def test_bessel_pairing_bytes_are_pinned(tmp_path, lam, precision, digest):
    rc, out = run(tmp_path, "bessel", "--pairing", lam,
                  "--precision", str(precision))
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_bessel_pairing_evaluates_each_series_once(tmp_path, monkeypatch):
    # J0 and J1 at lambda zeta and at lambda conj(zeta): four series, none
    # of them evaluated twice
    real = cli.bessel.bessel_j
    calls = []

    def recorded(nu, x, n_terms=None, prec=128):
        calls.append((nu, x.re.mid, x.re.rad, x.im.mid, x.im.rad))
        return real(nu, x, n_terms=n_terms, prec=prec)

    monkeypatch.setattr(cli.bessel, "bessel_j", recorded)
    rc, _ = run(tmp_path, "bessel", "--pairing", "141/50")
    assert rc == 0
    assert len(calls) == 4
    assert len(set(calls)) == 4


def test_pole_certificate_output(tmp_path):
    rc, out = run(tmp_path, "pole", "--width", "1/10000")
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "disksig.pole_certificate/1"
    lo = F(payload["bracket"][0])
    hi = F(payload["bracket"][1])
    assert hi - lo <= F(1, 10000)
    from disksig.polefinder import PoleCertificate

    assert PoleCertificate.from_json(payload).verify() == []


def test_pole_rerun_is_bit_identical(tmp_path):
    rc1, out = run(tmp_path, "pole")
    first = out.read_bytes()
    manifest1 = read_manifest(out)
    rc2, out = run(tmp_path, "pole")
    assert rc1 == rc2 == 0
    assert out.read_bytes() == first
    manifest2 = read_manifest(out)
    assert manifest1["output_sha256"] == manifest2["output_sha256"]


@pytest.mark.parametrize("argv", [
    ("--width", "1"),
    ("--width", "1/4"),
    ("--width", "1/3", "--precision", "64"),
], ids=["width-1", "width-1/4", "width-1/3-at-64"])
def test_pole_wide_widths_certify_strictly_inside(tmp_path, argv):
    # a width of 1/4 or more is met after one bisection step, with one
    # end of the bracket still on (5/2, 3); bisection goes on until both
    # ends have moved inward
    from disksig.polefinder import PoleCertificate

    rc, out = run(tmp_path, "pole", *argv)
    assert rc == 0
    certificate = PoleCertificate.from_json(json.loads(out.read_text()))
    assert certificate.verify() == []
    assert F(5, 2) < certificate.bracket_lo < certificate.bracket_hi < 3


def test_pole_rejects_zero_width(tmp_path):
    rc, out = run(tmp_path, "pole", "--width", "0")
    assert rc == 2
    assert not out.exists()


def test_ball_layer_caps_admit_documented_inputs():
    # README, tests and benchmark go down to width 1e-30 and up to 512 bits
    assert cli.MIN_POLE_WIDTH <= F(1, 10 ** 30)
    assert cli.MAX_PRECISION >= 512
    # the README's `bessel --re 3/2`, and --terms as long as the series
    # auto-selected there at the largest precision
    from disksig.balls import ComplexBall
    from disksig.bessel import _auto_terms

    assert cli.MAX_BESSEL_ABS >= F(3, 2)
    point = ComplexBall.from_rationals(F(3, 2), F(0), cli.MAX_PRECISION)
    assert cli.MAX_BESSEL_TERMS >= _auto_terms(point, cli.MAX_PRECISION)
    # the README's `bessel --pairing 141/50`, and the whole (5/2, 3) the
    # pole search and the benchmark evaluate d on
    assert cli.MAX_PAIRING_ABS >= 3


@pytest.mark.parametrize("argv", [
    ("pole", "--width", "1e-101"),
    ("pole", "--width", "1e-100000"),
    ("pole", "--width", "1e-1000000000"),
    ("pole", "--precision", str(cli.MAX_PRECISION + 1)),
    ("pole", "--precision", "100000000"),
    ("bessel", "--pairing", "3", "--precision", str(cli.MAX_PRECISION + 1)),
    ("compare", "--lambda", "1", "--levels", "4",
     "--precision", str(cli.MAX_PRECISION + 1)),
    ("compare", "--lambda", "1e-1000000000", "--levels", "4"),
    ("pole", "--width", "abc"),
    ("bessel", "--re", str(cli.MAX_BESSEL_ABS + 1)),
    ("bessel", "--re", "600", "--im", "801"),
    ("bessel", "--im", "1e4300"),
    ("bessel", "--terms", str(cli.MAX_BESSEL_TERMS + 1)),
    ("bessel", "--terms", "200000"),
    ("bessel", "--terms", "0"),
    ("bessel", "--pairing", str(cli.MAX_PAIRING_ABS + 1)),
    ("bessel", "--pairing", f"-{cli.MAX_PAIRING_ABS}.001"),
    ("bessel", "--pairing", "1e4000"),
    # a denominator or numerator of 4301 digits, which Python neither
    # parses from "num/den" nor prints
    ("bessel", "--nu", "0", "--re", "1e-4300", "--im", "0"),
    ("pole", "--width", "1e4300"),
], ids=["width-below-cap", "width-1e-100000", "width-exponent-overflow",
        "pole-precision", "pole-precision-1e8", "bessel-precision",
        "compare-precision", "lambda-exponent-overflow", "width-malformed",
        "bessel-abs", "bessel-abs-complex", "bessel-abs-1e4300",
        "bessel-terms", "bessel-terms-200000", "bessel-terms-zero",
        "bessel-pairing", "bessel-pairing-negative", "bessel-pairing-1e4000",
        "bessel-re-1e-4300", "width-1e4300"])
def test_ball_layer_inputs_out_of_range_write_nothing(tmp_path, capsys, argv):
    rc, out = run(tmp_path, *argv)
    assert rc == 2
    assert "error: " in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "out.manifest.json").exists()


def test_decimal_at_the_digit_limit_is_accepted(tmp_path):
    # 10^4299 has 4300 digits, the most Python parses and prints
    rc, out = run(tmp_path, "bessel", "--nu", "0", "--re", "1e-4299", "--im", "0")
    assert rc == 0
    assert json.loads(out.read_text())["point"]["re"] == "1/1" + "0" * 4299


@pytest.mark.parametrize("argv", [
    ("compare", "--lambda", f"1/{10 ** 40 + 1}", "--levels", "110"),
    ("develop", f"--x=1/{3 ** 60}", "--levels", "200"),
], ids=["compare", "develop"])
def test_exact_output_past_the_digit_limit_is_a_usage_error(tmp_path, capsys, argv):
    rc, _ = run(tmp_path, *argv)
    assert rc == 2
    assert f"more than {cli._MAX_DIGITS} digits" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, out, blocker", [
    (("hierarchy", "--levels", "2"), "missing/x.json", None),
    (("radius", "--levels", "4"), "adir", "adir"),
    (("radius", "--levels", "4"), "r.csv", "r.csv.manifest.json"),
], ids=["missing-directory", "out-is-a-directory", "manifest-is-a-directory"])
def test_unwritable_out_is_a_clean_error(tmp_path, capsys, argv, out, blocker):
    if blocker:
        (tmp_path / blocker).mkdir()
    rc = main([*argv, "--out", str(tmp_path / out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and "Traceback" not in err
    # no output, manifest or .disksig-* temp file is left behind
    assert sorted(p.name for p in tmp_path.rglob("*")) == ([blocker] if blocker else [])


# runs one subcommand in a fresh interpreter and prints its exit status
# and the modules it executed; a lazily imported module that was never
# used is still a LazyLoader placeholder, not a plain module
_PROBE = """\
import json, sys, types
from disksig.cli import main
status = main(json.loads(sys.argv[1]))
print(json.dumps([status, sorted(name for name, module in sys.modules.items()
                                 if type(module) is types.ModuleType)]))
"""


def run_fresh(tmp_path, *argv):
    """(exit status, executed module names) of one subcommand run alone."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    argv = [*argv, "--out", str(tmp_path / "out")]
    proc = subprocess.run([sys.executable, "-c", _PROBE, json.dumps(argv)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    status, executed = json.loads(proc.stdout.splitlines()[-1])
    return status, set(executed)


LAYERS = {"balls", "bessel", "development", "exactpoly", "hierarchy",
          "montecarlo", "polefinder"}
EXACT = {"exactpoly", "development", "hierarchy"}
BALL = {"exactpoly", "balls", "bessel"}


@pytest.mark.parametrize("argv, layers, status", [
    (("radius", "--levels", "4"), EXACT, 0),
    (("develop", "--levels", "4", "--x", "1/2"), EXACT, 0),
    (("hierarchy", "--levels", "4", "--mode", "developed"), EXACT, 0),
    (("bessel", "--pairing", "141/50"), BALL, 0),
    (("bessel", "--re", "3/2"), BALL, 0),
    (("pole", "--width", "1/10"), BALL | {"polefinder"}, 0),
    (("compare", "--lambda", "1", "--levels", "4"), EXACT | BALL | {"polefinder"}, 0),
    (("mc", "--paths", "8", "--h", "1e-2"), {"exactpoly", "montecarlo"}, 0),
    (("radius", "--levels", "99999"), set(), 2),
], ids=["radius", "develop", "hierarchy", "bessel-pairing", "bessel-point",
        "pole", "compare", "mc", "usage-error"])
def test_subcommands_execute_only_their_layers(tmp_path, argv, layers, status):
    rc, executed = run_fresh(tmp_path, *argv)
    assert rc == status
    assert {name for name in LAYERS if "disksig." + name in executed} == layers
    # mpmath comes in only with the ball layer, numpy only on first use
    # inside the Monte Carlo engine
    assert ("mpmath" in executed) == ("balls" in layers)
    assert ("numpy" in executed) == ("montecarlo" in layers)


def test_bessel_at_a_tiny_point_prints_its_radius_quickly(tmp_path):
    # the tail bound there is an exact rational near 1e-60000; its decade
    # and its conversion to a ball radius cost no more than at |z| = 1
    start = time.perf_counter()
    rc, out = run(tmp_path, "bessel", "--re", "1e-1000", "--terms", "30")
    elapsed = time.perf_counter() - start
    assert rc == 0
    assert json.loads(out.read_text())["conjugation_symmetry"] is True
    # about 0.05 s; printing radii by repeated Fraction scaling took 9 s
    assert elapsed < 0.5


def parse_csv(out):
    comments, rows = [], []
    with open(out, newline="") as handle:
        for line in handle:
            if line.startswith("#"):
                comments.append(line.rstrip("\n"))
            else:
                rows.append(line.rstrip("\n"))
    return comments, list(csv.reader(rows))


def test_compare_partial_sums(tmp_path):
    rc, out = run(tmp_path, "compare", "--lambda", "1", "--levels", "12")
    assert rc == 0
    comments, rows = parse_csv(out)
    assert comments[0] == "# schema: disksig.compare/1"
    header, *data = rows
    assert header == ["k", "partial_sum", "gap"]
    assert len(data) == 13
    assert data[0][1] == "1/1"
    assert data[2][1] == "3/2"
    # gaps shrink as more levels enter
    assert float(data[12][2]) < float(data[2][2])


def test_compare_lambda_zero(tmp_path):
    rc, out = run(tmp_path, "compare", "--lambda", "0", "--levels", "4")
    assert rc == 0
    comments, rows = parse_csv(out)
    _, *data = rows
    assert all(row[1] == "1/1" and row[2] == "0.0" for row in data)


def test_compare_refuses_lambda_at_pole(tmp_path):
    rc, out = run(tmp_path, "compare", "--lambda", "29/10", "--levels", "10")
    assert rc == 2
    assert not out.exists()


def test_compare_guard_does_not_depend_on_precision(tmp_path, capsys):
    errors = []
    for prec in ("53", "2048"):
        rc, out = run(tmp_path, "compare", "--lambda", "29/10", "--levels",
                      "4", "--precision", prec)
        assert rc == 2
        assert not out.exists()
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1]
    assert "bracket [361/128, 181/64]" in errors[0]


def test_radius_csv(tmp_path):
    rc, out = run(tmp_path, "radius", "--levels", "12")
    assert rc == 0
    comments, rows = parse_csv(out)
    assert comments[0] == "# schema: disksig.radius/1"
    header, *data = rows
    assert header == ["k", "lambda_hat"]
    assert [row[0] for row in data] == ["1", "2", "3", "4", "5"]
    assert float(data[0][1]) == pytest.approx(8 ** 0.5)


def test_radius_at_developed_cap(tmp_path):
    rc, out = run(tmp_path, "radius", "--levels", str(DEVELOPED_CAP))
    assert rc == 0
    _, rows = parse_csv(out)
    _, *data = rows
    assert len(data) == 99
    assert 2.5 < float(data[-1][1]) < 3.0


def test_series_subcommands_skip_bivariate_hierarchy(tmp_path, monkeypatch):
    def refuse(self, n):
        raise AssertionError("bivariate developed hierarchy called")

    monkeypatch.setattr(HierarchyState, "developed", refuse)
    for argv in (("develop", "--lambda", "1", "--x", "1/2", "--y", "1/3",
                  "--levels", "12"),
                 ("compare", "--lambda", "1", "--levels", "12"),
                 ("radius", "--levels", "12")):
        rc, _ = run(tmp_path, *argv)
        assert rc == 0


def test_radius_insufficient_data(tmp_path, capsys):
    rc, out = run(tmp_path, "radius", "--levels", "2")
    assert rc == 0
    comments, rows = parse_csv(out)
    assert any("insufficient data" in c for c in comments)
    assert len(rows) == 1  # header only
    assert "insufficient" in capsys.readouterr().err


def test_mc_csv(tmp_path):
    rc, out = run(tmp_path, "mc", "--paths", "300", "--h", "1e-3")
    assert rc == 0
    comments, rows = parse_csv(out)
    assert comments[0] == "# schema: disksig.mc/1"
    config = json.loads(comments[1].removeprefix("# config: "))
    assert config["paths"] == 300
    header, *data = rows
    assert header == ["word", "mean", "stderr"]
    by_word = {row[0]: row for row in data}
    assert by_word[""][1] == "1.0"
    assert set("12") <= {w[0] for w in by_word if w and w != "exit_time"}
    assert float(by_word["exit_time"][1]) > 0
    assert len(data) == 1 + 2 + 4 + 1


def test_mc_reports_deviation_from_exact_levels(tmp_path, capsys):
    rc, out = run(tmp_path, "mc", "--paths", "300", "--h", "1e-3")
    assert rc == 0
    # per-path streams fix every byte; the deviation report must not move them
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "2cb226b411a1a86d7d379b44e59e36b371ec70955751a52d6e2f7d7a4ab21457")
    # values written by the earlier per-step kernel, which built the top
    # signature level step by step: exits must match it bit for bit, the
    # reassociated signature sums to 1e-12
    text = out.read_text()
    assert "\nexit_time,0.48936666666666667,0.022371715715729164\n" in text
    assert "\n1,0.015345781918025945,0.040817870457212066\n" in text
    _, rows = parse_csv(out)
    by_word = {row[0]: (float(row[1]), float(row[2])) for row in rows[1:]}
    for word, mean, err in (("11", 0.2491994795362688, 0.010474936644708551),
                            ("12", -0.01163341329174235, 0.014817993398142045),
                            ("21", -0.01188151053689204, 0.013836525179601634),
                            ("22", 0.25080052046373114, 0.010474936644708553)):
        assert by_word[word][0] == pytest.approx(mean, rel=0, abs=1e-12)
        assert by_word[word][1] == pytest.approx(err, rel=0, abs=1e-12)
    lines = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "mc exit_time", "mc 11", "mc 12", "mc 21", "mc 22"]
    assert "exact +0.500000" in lines[0]
    assert "exact +0.250000" in lines[1] and "exact +0.000000" in lines[2]
    assert all(line.endswith(" SE") for line in lines)


def test_mc_exhausted_block_budget_is_a_clean_error(tmp_path, monkeypatch,
                                                    capsys):
    monkeypatch.setattr(montecarlo, "_MAX_BLOCKS_PER_PATH", 1)
    rc, out = run(tmp_path, "mc", "--paths", "64", "--h", "1e-3")
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()
    assert not (tmp_path / "out.manifest.json").exists()


def test_mc_worker_error_is_a_clean_error(tmp_path, budget_one_in_workers,
                                         capsys):
    rc, out = run(tmp_path, "mc", "--paths", "64", "--h", "1e-3")
    assert rc == 1
    assert capsys.readouterr().err == (
        "error: path failed to exit within the block budget\n")
    assert not out.exists()
    assert not (tmp_path / "out.manifest.json").exists()


def test_mc_manifest_records_the_worker_count(tmp_path, monkeypatch):
    outputs = []
    for workers in (1, 3):
        monkeypatch.setattr(montecarlo, "_worker_count",
                            lambda paths, k=workers: k)
        rc, out = run(tmp_path, "mc", "--paths", "300", "--h", "1e-3")
        assert rc == 0
        assert read_manifest(out)["stats"] == {"workers": workers}
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def _running(pid):
    """Whether pid names a process that has not ended (zombies have)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return False
    return state not in ("Z", "X")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc")
def test_mc_workers_end_when_their_parent_is_killed(tmp_path):
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("one usable CPU: mc forks no worker")
    if not os.path.exists(f"/proc/self/task/{os.getpid()}/children"):
        pytest.skip("the kernel lists no child processes")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.Popen(
        [sys.executable, "-m", "disksig", "mc", "--paths", "20000",
         "--out", str(tmp_path / "out")],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    workers = []
    try:
        deadline = time.monotonic() + 60
        while not workers:
            assert proc.poll() is None, "mc ended before it forked a worker"
            assert time.monotonic() < deadline, "mc forked no worker in 60 s"
            time.sleep(0.01)
            with open(f"/proc/{proc.pid}/task/{proc.pid}/children") as handle:
                workers = [int(pid) for pid in handle.read().split()]
    finally:
        proc.kill()
        proc.wait(timeout=10)
    deadline = time.monotonic() + 2
    while any(_running(pid) for pid in workers):
        assert time.monotonic() < deadline, "a worker outlived its parent by 2 s"
        time.sleep(0.01)


def test_mc_rejects_bad_start(tmp_path):
    rc, out = run(tmp_path, "mc", "--x", "1.5", "--paths", "10")
    assert rc == 2
    # NaN passes the disk test by comparing false; it must still be refused
    rc, out = run(tmp_path, "mc", "--x", "nan", "--paths", "10")
    assert rc == 2
    assert not out.exists()
    assert not (tmp_path / "out.manifest.json").exists()


def test_mc_rejects_step_below_minimum(tmp_path, capsys):
    # at h = 1e-12 a path needs ~5e11 steps; refused before any work
    rc, out = run(tmp_path, "mc", "--paths", "1", "--h", "1e-12")
    assert rc == 2
    assert "step size must be at least" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "out.manifest.json").exists()


def test_mc_rejects_single_path(tmp_path, capsys):
    # one path has no standard error; refused before any work
    rc, out = run(tmp_path, "mc", "--paths", "1", "--h", "1e-3")
    assert rc == 2
    assert "at least two paths" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "out.manifest.json").exists()
