"""CLI contract: schemas, manifests, bit-reproducibility, exit statuses."""

import argparse
import csv
import hashlib
import json
import os
import subprocess
import sys
import time
from datetime import datetime, timedelta, timezone
from fractions import Fraction as F

import pytest

import disksig.bessel
import disksig.cli as cli
import disksig.hierarchy
import disksig.montecarlo as montecarlo
import disksig.radial
from disksig.cli import DEVELOPED_CAP, main
from disksig.exactpoly import ZPoly
from disksig.hierarchy import HierarchyState
from reference import TensorPoly, X, Y, closed_form_center, words


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


def test_manifest_timestamp_is_the_utc_time_of_the_run(tmp_path):
    before = datetime.now(timezone.utc)
    rc, out = run(tmp_path, "radius", "--levels", "4")
    after = datetime.now(timezone.utc)
    assert rc == 0
    stamp = datetime.fromisoformat(read_manifest(out)["timestamp"])
    assert stamp.utcoffset() == timedelta(0)
    # datetime.now() rounds to the microsecond and the stamp truncates
    assert before - timedelta(microseconds=1) <= stamp <= after


@pytest.mark.parametrize("ns", [0, 1_700_000_000_000_000_000,
                                1_700_000_000_123_456_789, 1_700_000_000_000_001_000])
def test_manifest_timestamp_has_the_isoformat_layout(monkeypatch, ns):
    # microseconds are written only when nonzero, as isoformat() does
    monkeypatch.setattr(cli.time, "time_ns", lambda: ns)
    seconds, rest = divmod(ns, 10 ** 9)
    expected = datetime.fromtimestamp(seconds, timezone.utc).replace(
        microsecond=rest // 1000).isoformat()
    assert cli._utc_timestamp() == expected


def test_hierarchy_developed_mode(tmp_path):
    rc, out = run(tmp_path, "hierarchy", "--levels", "2",
                  "--mode", "developed")
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["a"][2] == "1/2"
    assert "norms" not in payload


def test_hierarchy_developed_mode_checks_radial_route(tmp_path, monkeypatch,
                                                     capsys):
    radial = disksig.radial.a_coefficients
    monkeypatch.setattr(disksig.radial, "a_coefficients",
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
    t2 = TensorPoly.from_json(payload["polynomials"][2])
    assert t2.entry("11") == (1 - X * X - Y * Y) * F(1, 4)


@pytest.mark.parametrize("mode, levels, digest", [
    ("tensor", 8,
     "338ddc8db32ef5d942a46eb9b32d08186aa2454962e1c8aa72ea954e2b0cb1e9"),
    ("tensor", 12,
     "12cfb49870055be5d8b3316d12ebfdcf8303028609066102a67a627f0b5db3cd"),
    ("developed", 24,
     "de58e72dbbac53f86764e0869d2f1c9f22b5286156228dbcb512f9d1e42571e4"),
    ("developed", 60,
     "4bb4dcf8ee7f43f22d69584ad82c7222dfdf4a14b1e52d6b45cb015633a0070b"),
])
def test_hierarchy_dump_polys_bytes_are_pinned(tmp_path, mode, levels, digest):
    # every dumped rational of both oracle hierarchies, pinned to the bytes
    # of their x, y routes: the tensor level by one Poisson solve per e-word,
    # the developed level (up to its cap) by a sweep over y-degree rows and
    # a Fourier boundary trace, before both were solved in z and zbar; the
    # tensor level 12, and develop and radius below, pinned when both parts
    # of every x, y polynomial were still built
    rc, out = run(tmp_path, "hierarchy", "--levels", str(levels),
                  "--mode", mode, "--dump-polys")
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (("develop", "--lambda", "3/2", "--x=1/3", "--y=1/4", "--levels", "32"),
     "8313239b1e1db1f09a4784229bb1a757eaab03fd2d4fb72072b6378b541e8f6c"),
    (("radius", "--levels", "40"),
     "b414f607fc073b91279e6706cc6da816398072a69417109125d14e3cae30bca8"),
], ids=["develop", "radius"])
def test_develop_and_radius_bytes_are_pinned(tmp_path, argv, digest):
    rc, out = run(tmp_path, *argv)
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_hierarchy_tensor_dump_cap(tmp_path, capsys):
    # the dump doubles per level; without it the tensor cap is unchanged
    rc, out = run(tmp_path, "hierarchy", "--mode", "tensor", "--dump-polys",
                  "--levels", str(cli.TENSOR_DUMP_CAP + 1))
    assert rc == 2
    assert f"0..{cli.TENSOR_DUMP_CAP}" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "out.manifest.json").exists()
    assert cli.TENSOR_DUMP_CAP < cli.TENSOR_CAP


# sha256 of `disksig hierarchy --mode tensor --levels N` output, taken
# from the bivariate per-word tensor route before the words in f, fbar
# replaced it
@pytest.mark.parametrize("levels, digest", [
    (9, "7a2b958d908a83367d5e6361dcd493a20eb699352751bd5fe32994c959d24205"),
    (12, "2612db4a563e5f67ebd725d8f1bbdea532b073415b7d9c95ed08003a60ce630f"),
    (16, "3ee6fa7ad2ecdc24cc4fb3c71d186fa5a80a0518719d22e4973060b42d2b5c62"),
])
def test_hierarchy_tensor_bytes_are_pinned(tmp_path, levels, digest):
    rc, out = run(tmp_path, "hierarchy", "--levels", str(levels), "--mode", "tensor")
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("mode, levels, name", [
    ("developed", 32, "developed_rhs"),
    ("tensor", 9, "tensor_rhs"),
])
def test_hierarchy_builds_each_right_hand_side_once(tmp_path, monkeypatch,
                                                   mode, levels, name):
    # levels 2..N are solved (31 of 32 developed, 8 of 9 reduced tensor
    # levels), and each level's check reads the residual verdict its solve
    # recorded instead of building the rhs again
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


def test_hierarchy_reports_a_level_that_is_not_real(tmp_path, capsys,
                                                   monkeypatch):
    # i (z + zbar) = 2ix added to every component solved for level 3: the
    # level and the ones built on it are not real, which is a failed check
    # with exit status 1, not an exception
    import disksig.hierarchy as hierarchy

    building = []
    real_rhs, solve = hierarchy.developed_rhs, hierarchy.solve_poisson_zero_bd

    def rhs(state, n):
        building.append(n)
        return real_rhs(state, n)

    def wrong_solve(f, scale):
        u = solve(f, scale)
        return u + ZPoly({(1, 0, 1): 1, (0, 1, 1): 1}) if building[-1] == 3 else u

    monkeypatch.setattr(hierarchy, "developed_rhs", rhs)
    monkeypatch.setattr(hierarchy, "solve_poisson_zero_bd", wrong_solve)
    rc, out = run(tmp_path, "hierarchy", "--levels", "5", "--mode", "developed",
                  "--dump-polys")
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert "check failed: level 3: developed level is not real" in err
    assert not any("level 2" in line for line in err)
    assert not any("Traceback" in line for line in err)
    assert out.exists()


def test_tensor_levels_that_are_not_real_fail_both_checks(tmp_path, capsys,
                                                        monkeypatch):
    # an imaginary term on one e-word of level 3 is seen in z, zbar by the
    # realness check of both subcommands, and by their fold checks
    real = HierarchyState.tensor_z

    def wrong_tensor_z(self, n):
        values, den = real(self, n)
        if n == 3:
            values = [values[0] + ZPoly({(1, 1, 1): den}), *values[1:]]
        return values, den

    monkeypatch.setattr(HierarchyState, "tensor_z", wrong_tensor_z)
    rc, _ = run(tmp_path, "hierarchy", "--levels", "4", "--mode", "tensor")
    assert rc == 1
    lines = [line for line in capsys.readouterr().err.splitlines()
             if line.startswith("check failed")]
    assert lines == ["check failed: level 3: tensor level is not real",
                     "check failed: level 3: fold of tensor level != developed level"]
    rc, out = run(tmp_path, "develop", "--lambda", "1", "--x=1/3", "--y=1/4",
                  "--levels", "4")
    assert rc == 1
    lines = [line for line in capsys.readouterr().err.splitlines()
             if line.startswith("check failed")]
    assert lines == ["check failed: fold_route_matches",
                     "check failed: level 3: tensor level is not real"]
    assert json.loads(out.read_text())["checks"]["fold_route_matches"] is False


def test_hierarchy_expands_each_tensor_level_once(tmp_path, monkeypatch):
    # the fold check (through level 8) and the dump share one expansion
    real = HierarchyState.tensor_z
    calls = []

    def counted(self, n):
        calls.append(n)
        return real(self, n)

    monkeypatch.setattr(HierarchyState, "tensor_z", counted)
    rc, _ = run(tmp_path, "hierarchy", "--levels", "10", "--mode", "tensor",
                "--dump-polys")
    assert rc == 0
    assert calls == list(range(11))
    calls.clear()
    rc, _ = run(tmp_path, "hierarchy", "--levels", "10", "--mode", "tensor")
    assert rc == 0
    assert calls == list(range(9))


def test_hierarchy_runs_the_origin_butterfly_once_per_level(tmp_path,
                                                          monkeypatch):
    # the norms and the origin fold read the same values at the origin
    real = disksig.hierarchy.origin_values
    calls = []

    def counted(state, n):
        calls.append(n)
        return real(state, n)

    monkeypatch.setattr(disksig.hierarchy, "origin_values", counted)
    rc, _ = run(tmp_path, "hierarchy", "--levels", "12", "--mode", "tensor")
    assert rc == 0
    assert calls == list(range(13))


@pytest.mark.parametrize("mode", ["tensor", "developed"])
def test_hierarchy_checks_build_no_xy_view(tmp_path, monkeypatch, mode):
    # both oracles are checked in z, zbar; only --dump-polys reads x, y
    real = ZPoly.real_part
    calls = []

    def spy(self, den):
        calls.append(den)
        return real(self, den)

    monkeypatch.setattr(ZPoly, "real_part", spy)
    rc, _ = run(tmp_path, "hierarchy", "--levels", "10", "--mode", mode)
    assert rc == 0
    assert calls == []
    rc, _ = run(tmp_path, "hierarchy", "--levels", "3", "--mode", mode, "--dump-polys")
    assert rc == 0
    assert calls


def test_hierarchy_origin_fold_sees_a_wrong_tensor_rhs(tmp_path, capsys,
                                                     monkeypatch):
    # a wrong right-hand side at level 10 is solved exactly, so the residual
    # verdict and the boundary values pass; past level 8 only the fold at
    # the origin against the radial a_n sees it
    import disksig.hierarchy as hierarchy

    real = hierarchy.tensor_rhs

    def wrong_rhs(state, n):
        rhs = real(state, n)
        if n != 10:
            return rhs
        return rhs._replace(words=[{**word, 0: word.get(0, 0) + rhs.den}
                                   for word in rhs.words])

    monkeypatch.setattr(hierarchy, "tensor_rhs", wrong_rhs)
    rc, out = run(tmp_path, "hierarchy", "--levels", "10", "--mode", "tensor")
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if line.startswith("check failed")] == [
        "check failed: level 10: fold of tensor level at the origin != a_n"]
    payload = json.loads(out.read_text())
    assert payload["fold_matches_developed"] is False
    assert all(c["residual_ok"] and c["boundary_ok"] for c in payload["checks"])


def test_develop_subcommand(tmp_path):
    rc, out = run(tmp_path, "develop", "--lambda", "1", "--levels", "2")
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["schema"] == "disksig.develop/1"
    assert payload["partial_sum"] == ["0/1", "0/1", "3/2"]
    assert payload["checks"]["fold_route_matches"] is True


@pytest.mark.parametrize("broken", ["residual_ok", "boundary_ok"])
def test_develop_fold_check_sees_a_wrong_tensor_level(tmp_path, capsys,
                                                      wrong_level, broken):
    # either wrong term changes the level-3 words inside the disk
    wrong_level("tensor", 3, broken)
    rc, out = run(tmp_path, "develop", "--lambda", "1", "--x=1/3", "--y=1/4",
                  "--levels", "4")
    assert rc == 1
    assert "check failed: fold_route_matches" in capsys.readouterr().err
    assert json.loads(out.read_text())["checks"]["fold_route_matches"] is False


def test_develop_reports_broken_radial_parity_as_an_error(tmp_path, capsys,
                                                         monkeypatch):
    # developed_values raises ArithmeticError; main turns it into exit 1
    # with one error line and writes nothing
    real = disksig.radial.radial_levels

    def broken(n_max):
        a_list, c_list = real(n_max)
        c2 = c_list[2]
        c_list[2] = disksig.radial.RadialMap({**c2.nums, 3: 1}, c2.den)  # odd power
        return a_list, c_list

    monkeypatch.setattr(disksig.radial, "radial_levels", broken)
    rc, out = run(tmp_path, "develop", "--lambda", "1", "--x=1/3", "--y=1/4",
                  "--levels", "4")
    assert rc == 1
    assert capsys.readouterr().err == "error: level 2: radial parity violated\n"
    assert not out.exists()
    assert not (tmp_path / "out.manifest.json").exists()


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
    # the manifest records no point, which the pairing does not read
    params = read_manifest(out)["parameters"]
    assert [params[k] for k in ("nu", "re", "im", "terms")] == [None] * 4


def test_bessel_point_manifest_records_the_default_point(tmp_path):
    rc, out = run(tmp_path, "bessel", "--re", "3/2")
    assert rc == 0
    params = read_manifest(out)["parameters"]
    assert [params[k] for k in ("nu", "re", "im", "terms")] == [0, "3/2", "0/1", None]


@pytest.mark.parametrize("option, value", [("--nu", "1"), ("--re", "5"),
                                           ("--im", "1"), ("--terms", "1")])
def test_bessel_pairing_refuses_point_options(tmp_path, capsys, option, value):
    # the pairing evaluates d at lambda alone, so a point option would be
    # ignored while the manifest recorded it
    rc, _ = run(tmp_path, "bessel", "--pairing", "1", option, value)
    assert rc == 2
    assert f"--pairing takes no point options: {option}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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


# sha256 of point-mode `disksig bessel` output, taken while the radii were
# rounded up by integer decade search; they print radii from 1e-2465 to
# 1e+397 and midpoints of up to 2469 digits
PINNED_POINTS = [
    (("--nu", "1", "--re", "100"),
     "747cfe7f3dcf0627f55c72a2f0d85e306339a5bb98cbce807a866d3b1bc7526b"),
    (("--nu", "0", "--re", "1/7", "--im", "2/3", "--precision", "8192"),
     "388f8cce3b5033547323546c023b9fe6d0acd937373e9e4da467c3fde4d080dc"),
    (("--nu", "0", "--re", "1000"),
     "a08f1bf14e22843cf4948661f58bd2147a6769bba423e6ce227b10b2c1cbd645"),
]


@pytest.mark.parametrize("argv, digest", PINNED_POINTS,
                         ids=["J1(100)", "J0(1/7+2i/3)@8192", "J0(1000)"])
def test_bessel_point_bytes_are_pinned(tmp_path, argv, digest):
    rc, out = run(tmp_path, "bessel", *argv)
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# sha256 of `disksig compare --lambda LAMBDA --levels 8 --precision P`
# output, taken while E's coefficients came from the binomial sum over
# Z[w] powers; 2957311/1048576 = 361/128 - 2^-20, just below the pole
PINNED_COMPARES = [
    ("1/3", 53,
     "f05a34a9611e3e9a66288bfe871eed7ac7a8fd693cae347efebf45530ecb9cf2"),
    ("1/3", 128,
     "0f12ece15e43a5db6a97a0391859877b811f147bb533ed99e98bc10304286dee"),
    ("1/3", 8192,
     "230665420633e1b0205eeb8eb8ed1b494910ac71aa5ae1c07a3bf3f812d2a1d6"),
    ("2", 53,
     "7ab3a1099f16c2152e33fe0a366dbf7054e5e832dc6261c16dbe9aadd3f7dfda"),
    ("2", 128,
     "d08ce4f30ee7386ff8f12034a22e61f9cfbedee4bbd05b5610840b1ce68e6474"),
    ("2", 8192,
     "ffc458b36857365ecf7460d3c458bc9537e76987e32e845002325aad0087ec60"),
    ("2957311/1048576", 53,
     "76b27faf6bf1596c19f7354bb86f09c0404f72a16f71b023fd4b47654bee89c6"),
    ("2957311/1048576", 128,
     "585e9ae9e551c81e30db00745518b1f3d32da72f1b4a36eef729fe01fdb9680f"),
    ("2957311/1048576", 8192,
     "cd7f635e575c5b949093f28266764320e13b005a9f349facb401634b0fbb1bc8"),
]


@pytest.mark.parametrize("lam, precision, digest", PINNED_COMPARES, ids=[
    f"{lam}@{precision}" for lam, precision, _ in PINNED_COMPARES])
def test_compare_bytes_are_pinned(tmp_path, lam, precision, digest):
    rc, out = run(tmp_path, "compare", "--lambda", lam, "--levels", "8",
                  "--precision", str(precision))
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_bessel_pairing_evaluates_each_series_once(tmp_path, monkeypatch):
    # two series, J0(lambda zeta) and J1(lambda conj(zeta)), each summed
    # once; the determinant route's J1(lambda zeta) and J0(lambda
    # conj(zeta)) are their exact conjugates
    real = disksig.bessel.bessel_j
    calls = []

    def raw(nu, x):
        return nu, x.re.mid, x.re.rad, x.im.mid, x.im.rad

    def recorded(nu, x, n_terms=None, prec=128):
        calls.append(raw(nu, x))
        return real(nu, x, n_terms=n_terms, prec=prec)

    monkeypatch.setattr(disksig.bessel, "bessel_j", recorded)
    rc, _ = run(tmp_path, "bessel", "--pairing", "141/50")
    assert rc == 0
    zeta = disksig.bessel.make_constants(128).zeta
    x0 = disksig.bessel._as_complex_ball(F(141, 50), 128).mul(zeta, 128)
    assert calls == [raw(0, x0), raw(1, x0.conj())]


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
    assert disksig.MAX_PRECISION >= 512
    # the README's `bessel --re 3/2`, and --terms as long as the series
    # auto-selected there at the largest precision
    from disksig.balls import ComplexBall
    from disksig.bessel import _terms_and_tail

    assert cli.MAX_BESSEL_ABS >= F(3, 2)
    point = ComplexBall.from_rationals(F(3, 2), F(0), disksig.MAX_PRECISION)
    assert cli.MAX_BESSEL_TERMS >= _terms_and_tail(point, prec=disksig.MAX_PRECISION)[0]
    # the README's `bessel --pairing 141/50`, and the whole (5/2, 3) the
    # pole search and the benchmark evaluate d on
    assert cli.MAX_PAIRING_ABS >= 3


@pytest.mark.parametrize("argv", [
    ("pole", "--width", "1e-101"),
    ("pole", "--width", "1e-100000"),
    ("pole", "--width", "1e-1000000000"),
    ("pole", "--precision", str(disksig.MAX_PRECISION + 1)),
    ("pole", "--precision", "100000000"),
    ("bessel", "--pairing", "3", "--precision", str(disksig.MAX_PRECISION + 1)),
    ("compare", "--lambda", "1", "--levels", "4",
     "--precision", str(disksig.MAX_PRECISION + 1)),
    ("compare", "--lambda", "1e-1000000000", "--levels", "4"),
    ("pole", "--width", "abc"),
    ("bessel", "--re", str(cli.MAX_BESSEL_ABS + 1)),
    ("bessel", "--re", "600", "--im", "801"),
    ("bessel", "--im", "1e4300"),
    ("bessel", "--terms", str(cli.MAX_BESSEL_TERMS + 1)),
    ("bessel", "--terms", "200000"),
    ("bessel", "--terms", "0"),
    ("bessel", "--re", "100", "--terms", "5"),
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
        "bessel-terms-too-few",
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
    # level 22 already passes the limit: develop refuses there, before it
    # evaluates the later levels and their partial sum (about 40 s)
    ("develop", f"--x=1/{10 ** 400}", "--levels", "200"),
    # every level fits, but the partial sum's denominator is a multiple
    # of 2^N or of (10^2000 + 1)^N (N the top level), so it is refused
    # before the sum is formed (about 20 s)
    ("develop", f"--lambda=1/{10 ** 4000}", "--x=1/2", "--levels", "200"),
    ("develop", f"--lambda=1/{10 ** 2000 + 1}", "--x=1/2", "--levels", "200"),
], ids=["compare", "develop", "develop-early-level", "develop-lambda",
        "develop-lambda-coprime"])
def test_exact_output_past_the_digit_limit_is_a_usage_error(tmp_path, capsys, argv):
    t0 = time.perf_counter()
    rc, _ = run(tmp_path, *argv)
    assert time.perf_counter() - t0 < 5.0
    assert rc == 2
    assert f"more than {disksig.MAX_DIGITS} digits" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_develop_on_the_boundary_accepts_any_lambda(tmp_path):
    # every V_n with n >= 1 vanishes on the circle, so no denominator of
    # lambda makes the partial sum long
    rc, out = run(tmp_path, "develop", f"--lambda=1/{10 ** 4000}", "--x=1",
                  "--levels", "200")
    assert rc == 0
    assert json.loads(out.read_text())["partial_sum"] == ["0/1", "0/1", "1/1"]


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


def test_output_and_manifest_get_the_umask_mode(tmp_path):
    old = os.umask(0o022)
    try:
        rc, out = run(tmp_path, "radius", "--levels", "4")
    finally:
        os.umask(old)
    assert rc == 0
    for path in (out, tmp_path / "out.manifest.json"):
        assert os.stat(path).st_mode & 0o777 == 0o644


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


LAYERS = {"balls", "bessel", "bigfloat", "development", "exactpoly", "exactseries",
          "hierarchy", "montecarlo", "polefinder", "radial", "rational"}
# the radial route prints its rationals with `rational` and nothing else
RADIAL = {"radial", "rational"}
# the oracles, and the tensor fold of develop's point check
ORACLES = RADIAL | {"exactpoly", "development", "hierarchy"}
# balls computes on bigfloat's floats and prints its radii with rational's
# decimal rounding; only the pole search runs the exact series
BALL = {"rational", "bigfloat", "balls", "bessel"}


@pytest.mark.parametrize("argv, layers, status", [
    (("radius", "--levels", "4"), RADIAL, 0),
    (("develop", "--levels", "4", "--x", "1/2"), ORACLES, 0),
    (("hierarchy", "--levels", "4", "--mode", "developed"), ORACLES, 0),
    (("bessel", "--pairing", "141/50"), BALL, 0),
    (("bessel", "--re", "3/2"), BALL, 0),
    (("pole", "--width", "1/10"), BALL | {"polefinder", "exactseries"}, 0),
    (("compare", "--lambda", "1", "--levels", "4"), RADIAL | {"exactseries"}, 0),
    (("compare", "--lambda", "29/10", "--levels", "4"), {"rational", "exactseries"}, 2),
    (("mc", "--paths", "8", "--h", "1e-2"), {"montecarlo"}, 0),
    (("radius", "--levels", "99999"), set(), 2),
], ids=["radius", "develop", "hierarchy", "bessel-pairing", "bessel-point",
        "pole", "compare", "compare-at-pole", "mc", "usage-error"])
def test_subcommands_execute_only_their_layers(tmp_path, argv, layers, status):
    rc, executed = run_fresh(tmp_path, *argv)
    assert rc == status
    assert {name for name in LAYERS if "disksig." + name in executed} == layers
    # no subcommand executes mpmath (the ball layer's floats are bigfloat's),
    # and numpy comes in only on first use inside the Monte Carlo engine
    assert "mpmath" not in executed
    assert ("numpy" in executed) == ("montecarlo" in layers)
    # only the layers with dataclass records load dataclasses (and with it
    # inspect); the manifest timestamp needs no datetime, which numpy loads
    records = bool(layers & {"polefinder", "montecarlo"})
    assert ("dataclasses" in executed) == records
    assert ("inspect" in executed) == records
    assert ("datetime" in executed) == ("montecarlo" in layers)


# reads a certificate and verifies it in a fresh interpreter, then prints
# the failures and whether mpmath was executed
_REPLAY_PROBE = """\
import json, sys, types
from disksig.polefinder import PoleCertificate
with open(sys.argv[1]) as handle:
    failures = PoleCertificate.from_json(json.load(handle)).verify()
print(json.dumps([failures, type(sys.modules.get("mpmath")) is types.ModuleType]))
"""


def test_certificate_replay_executes_no_mpmath(tmp_path):
    rc, out = run(tmp_path, "pole", "--width", "1/10")
    assert rc == 0
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", _REPLAY_PROBE, str(out)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[], False]


# the parser gives arguments only to the subcommand argv names; each of
# these runs must print and exit as the parser with every subcommand's
# arguments does: one usage error per subcommand, each subcommand's help,
# and the top level's help, missing name and unknown name
USAGE_ERRORS = {
    "hierarchy": ["hierarchy", "--levels", "4", "--mode", "bogus", "--out", "o"],
    "develop": ["develop", "--lambda", "x", "--levels", "4", "--out", "o"],
    "bessel": ["bessel", "--nu", "2", "--out", "o"],
    "pole": ["pole", "--width", "x", "--out", "o"],
    "compare": ["compare", "--levels", "4", "--out", "o"],
    "radius": ["radius", "--levels", "4", "--bogus", "--out", "o"],
    "mc": ["mc", "--h", "x", "--out", "o"],
}
PARSER_CASES = {
    **{f"{name}-help": [name, "--help"] for name in USAGE_ERRORS},
    **{f"{name}-usage-error": argv for name, argv in USAGE_ERRORS.items()},
    "top-help": ["-h"], "top-empty": [], "top-unknown": ["nosuch"],
}


def full_parser_run(argv, capsys):
    """(status, stdout, stderr) of the parser with every subcommand's
    arguments on argv."""
    parser = cli._build_parser([])
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert all("--out" in p._option_string_actions
               for p in subparsers.choices.values())
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv", PARSER_CASES.values(), ids=list(PARSER_CASES))
def test_one_subcommand_parser_matches_the_full_parser(tmp_path, monkeypatch,
                                                       capsys, argv):
    monkeypatch.setenv("COLUMNS", "80")  # help is wrapped to the terminal
    monkeypatch.chdir(tmp_path)
    expected = full_parser_run(argv, capsys)
    assert expected[0] == (0 if argv[-1:] in (["-h"], ["--help"]) else 2)
    status = main(argv)
    captured = capsys.readouterr()
    assert (status, captured.out, captured.err) == expected
    assert list(tmp_path.iterdir()) == []


def test_parser_adds_only_the_named_subcommands_arguments():
    parser = cli._build_parser(["radius", "--levels", "4"])
    subparsers = next(action for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert list(subparsers.choices) == list(USAGE_ERRORS)
    assert [name for name, p in subparsers.choices.items()
            if "--out" in p._option_string_actions] == ["radius"]


@pytest.mark.parametrize("argv", [["radius", "--help"], USAGE_ERRORS["radius"]],
                         ids=["help", "usage-error"])
def test_console_entry_parser_matches_the_full_parser(tmp_path, monkeypatch,
                                                      capsys, argv):
    # python -m disksig calls main() with argv None, so sys.argv names the
    # subcommand
    monkeypatch.setenv("COLUMNS", "80")
    expected = full_parser_run(argv, capsys)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-m", "disksig", *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == expected
    assert list(tmp_path.iterdir()) == []


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


def test_compare_prints_an_exact_enclosure_of_the_closed_form(tmp_path):
    rc, out = run(tmp_path, "compare", "--lambda", "27/10", "--levels", "8",
                  "--precision", "256")
    assert rc == 0
    comments, _ = parse_csv(out)
    header = dict(line[2:].split(": ", 1) for line in comments)
    # 80 significant digits, as a 256-bit ball midpoint printed with
    mid_str = header["closed_form_mid"]
    assert len(mid_str.replace(".", "")) <= 80
    mid, rad = F(mid_str), F(header["closed_form_rad"])
    assert abs(closed_form_center(F(27, 10)) - mid) <= rad <= mid / 2 ** 256


def test_compare_at_a_huge_denominator_is_quick(tmp_path):
    # mu = lambda^2 is rounded to a dyadic interval at the working
    # precision, so lambda's 4001 digits do not enter the series work
    # (evaluated exactly at lambda itself, this took 20 s)
    start = time.perf_counter()
    rc, out = run(tmp_path, "compare", "--lambda", f"1/{10 ** 4000 + 1}",
                  "--levels", "1")
    assert time.perf_counter() - start < 1.0
    assert rc == 0
    comments, rows = parse_csv(out)
    assert "# closed_form_mid: 1.0" in comments
    assert [row[1] for row in rows[1:]] == ["1/1", "1/1"]


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

    monkeypatch.setattr(HierarchyState, "developed_z", refuse)
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


def test_mc_word_labels_are_the_exact_layer_words():
    for n in range(7):
        assert cli._words(n) == words(n)


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


def test_mc_zero_standard_error_has_no_deviation(tmp_path, capsys):
    # a step of 32 stops every path at its first step: the exit time's
    # standard error is 0, so no deviation is measured in units of it, and
    # one warning says the run followed no path inside the disk; the
    # output bytes and the exit status stay those of any run
    rc, out = run(tmp_path, "mc", "--h", "32", "--paths", "10", "--level", "1")
    assert rc == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "bd28ede9d057074e70aeea89c722b1f5395dfd9dd419e53c631dadeb64cbef23")
    assert capsys.readouterr().err == (
        "mc exit_time: estimate +32.000000 stderr 0.000000 exact +0.500000 "
        "deviation n/a (zero standard error)\n"
        "warning: all 10 paths stopped at their first step; --h 32.0 is too "
        "coarse to follow a path inside the disk\n")


def test_mc_equal_exit_times_at_a_non_dyadic_step(tmp_path, capsys):
    # near the circle every path stops at its first step of 0.1; the mean
    # of three equal exit times is 0.1, not 0.10000000000000002 with a
    # rounding residue for a standard error
    rc, out = run(tmp_path, "mc", "--h", "0.1", "--x", "0.99", "--paths", "3",
                  "--level", "1")
    assert rc == 0
    assert "\nexit_time,0.1,0.0\n" in out.read_text()
    err = capsys.readouterr().err
    assert "deviation n/a (zero standard error)" in err
    assert " SE" not in err


def test_mc_warns_only_when_no_path_takes_a_second_step(tmp_path, capsys):
    # from the centre at h = 1 most paths exit at step one, but not all
    # 1000 of them (mean exit time 1.217)
    rc, out = run(tmp_path, "mc", "--h", "1", "--paths", "1000", "--level", "1")
    assert rc == 0
    assert "warning" not in capsys.readouterr().err


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


@pytest.mark.parametrize("workers", [1, 2])
def test_mc_two_cohorts_bytes_are_pinned(tmp_path, monkeypatch, workers):
    # 4500 paths are one full cohort and one of 404 paths, merged into one
    # estimate; taken before the path-step budget, on one and two workers
    monkeypatch.setattr(montecarlo, "_worker_count",
                        lambda paths, k=workers: k)
    rc, out = run(tmp_path, "mc", "--paths", "4500", "--h", "1e-2",
                  "--level", "3")
    assert rc == 0
    assert read_manifest(out)["stats"] == {"workers": workers}
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "1c14834a174c9e4b562349e77e4e213cd52ba35aea2c623440ea8846708997da")


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


def test_mc_rejects_step_above_maximum(tmp_path, capsys):
    # at h = 1e300 the Welford squares overflowed; refused before any work
    rc, out = run(tmp_path, "mc", "--paths", "10", "--level", "1",
                  "--h", "1e300")
    assert rc == 2
    assert "step size must be at most" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "out.manifest.json").exists()


def test_mc_rejects_work_above_the_budget(tmp_path, capsys):
    # about 2e18 expected path-steps; refused before any work
    rc, out = run(tmp_path, "mc", "--paths", str(10 ** 12), "--h", "2.4e-7")
    assert rc == 2
    assert "expected work" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "out.manifest.json").exists()


def test_mc_rejects_single_path(tmp_path, capsys):
    # one path has no standard error; refused before any work
    rc, out = run(tmp_path, "mc", "--paths", "1", "--h", "1e-3")
    assert rc == 2
    assert "at least two paths" in capsys.readouterr().err
    assert not out.exists()
    assert not (tmp_path / "out.manifest.json").exists()
