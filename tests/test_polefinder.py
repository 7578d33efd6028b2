"""Certified sign changes, bisection brackets, and certificates."""

import hashlib
import json
from dataclasses import replace
from fractions import Fraction as F
from itertools import groupby

import pytest

import disksig.polefinder as polefinder
from disksig.balls import RealBall
from disksig.bessel import d_lambda, make_constants
from disksig.cli import main
from disksig.exactpoly import as_rat
from disksig.polefinder import (InconclusiveSign, NoSignChange,
                                PoleCertificate, locate_pole,
                                verify_numerator_nonvanishing)


def test_locate_pole_narrow_bracket():
    cert = locate_pole(F(1, 10 ** 6))
    assert cert.bracket_hi - cert.bracket_lo <= F(1, 10 ** 6)
    assert F(282, 100) <= cert.bracket_lo < cert.bracket_hi <= F(283, 100)
    assert cert.verify() == []
    assert cert.d_lo.is_negative() and cert.d_hi.is_positive()
    assert cert.numerator_bound.is_negative()


def test_locate_pole_coarse_bracket_stays_inside_lemma_interval():
    cert = locate_pole(F(1, 100))
    assert F(5, 2) < cert.bracket_lo < cert.bracket_hi < F(3)
    assert cert.verify() == []


@pytest.mark.parametrize("straddling", ["both", "lo", "hi"])
def test_escalation_recertifies_endpoints_at_final_precision(monkeypatch,
                                                             straddling):
    ref = locate_pole(F(1, 100))
    lo, hi = ref.bracket_lo, ref.bracket_hi
    inconclusive = {"both": (lo, hi), "lo": (lo,), "hi": (hi,)}[straddling]
    real = polefinder.d_lambda

    def flaky(lam, constants, prec=None):
        # the chosen stored endpoints read inconclusive at 128 bits; both
        # endpoints must then be stored at the one doubled precision
        if prec == 128 and lam in inconclusive:
            return RealBall.from_interval(-1, 1)
        return real(lam, constants, prec)

    monkeypatch.setattr(polefinder, "d_lambda", flaky)
    cert = locate_pole(F(1, 100), precision=128)
    assert (cert.bracket_lo, cert.bracket_hi) == (lo, hi)
    assert cert.precision == 256
    assert cert.verify() == []
    constants = make_constants(256)
    for lam, ball in ((cert.bracket_lo, cert.d_lo), (cert.bracket_hi, cert.d_hi)):
        ref = d_lambda(lam, constants, 256)
        assert (ball.mid, ball.rad) == (ref.mid, ref.rad)


def test_stored_endpoints_must_bracket_the_zero(tmp_path, monkeypatch):
    # the midpoint rungs (64 bits at width 1/100) see the true d; every
    # evaluation at the stored precision reads d > 0
    real = polefinder.d_lambda

    def positive(lam, constants, prec=None):
        if prec >= 128:
            return RealBall.from_interval(1, 2)
        return real(lam, constants, prec)

    monkeypatch.setattr(polefinder, "d_lambda", positive)
    with pytest.raises(NoSignChange):
        locate_pole(F(1, 100))
    out = tmp_path / "cert.json"
    assert main(["pole", "--width", "1/100", "--out", str(out)]) == 1
    assert list(tmp_path.iterdir()) == []


def test_sign_that_never_certifies_is_inconclusive(monkeypatch):
    precs = []

    def straddling(lam, constants, prec=None):
        precs.append(prec)
        return RealBall.from_interval(-1, 1)

    monkeypatch.setattr(polefinder, "d_lambda", straddling)
    with pytest.raises(InconclusiveSign):
        locate_pole(F(1, 100))
    # the first midpoint's rung, doubled _MAX_ESCALATIONS times
    assert precs == [64 << k for k in range(polefinder._MAX_ESCALATIONS + 1)]


def test_bracket_depends_on_width_alone():
    ref = locate_pole(F(1, 10 ** 20), precision=512)
    for precision in (53, 64, 80):
        cert = locate_pole(F(1, 10 ** 20), precision=precision)
        assert (cert.bracket_lo, cert.bracket_hi) == (ref.bracket_lo, ref.bracket_hi)
        assert cert.verify() == []


# precision of every d evaluation in locate_pole at the two benchmark
# inputs, as runs of (precision, count): the midpoint rungs in bisection
# order, then both stored endpoints at the requested precision
D_EVALUATIONS = [
    ("1/1000000", 128, [(64, 19), (128, 2)]),
    ("1e-20", 512, [(64, 30), (96, 32), (128, 4), (512, 2)]),
]


@pytest.mark.parametrize("width, precision, runs", D_EVALUATIONS,
                         ids=["1e-6@128", "1e-20@512"])
def test_d_evaluations_are_pinned(monkeypatch, width, precision, runs):
    real = polefinder.d_lambda
    precs = []

    def recorded(lam, constants, prec=None):
        precs.append(prec)
        return real(lam, constants, prec)

    monkeypatch.setattr(polefinder, "d_lambda", recorded)
    locate_pole(as_rat(width), precision=precision)
    assert [(p, len(list(g))) for p, g in groupby(precs)] == runs


def test_certificate_json_round_trip():
    cert = locate_pole(F(1, 1000))
    blob = json.dumps(cert.to_json())
    back = PoleCertificate.from_json(json.loads(blob))
    assert back.verify() == []
    assert back.bracket_lo == cert.bracket_lo
    assert back.bracket_hi == cert.bracket_hi


# each tampering breaks one invariant of PoleCertificate.verify() alone
TAMPERINGS = {
    "bracket-outside": (
        lambda c: {"bracket_lo": c.bracket_lo - 1, "bracket_hi": c.bracket_hi - 1},
        "bracket not strictly inside (5/2, 3)"),
    "bracket-too-wide": (
        lambda c: {"target_width": (c.bracket_hi - c.bracket_lo) / 2},
        "bracket wider than target"),
    "d-lo-not-negative": (
        lambda c: {"d_lo": c.d_hi},
        "d at lower endpoint not certified negative"),
    "d-hi-not-positive": (
        lambda c: {"d_hi": c.d_lo},
        "d at upper endpoint not certified positive"),
    "numerator-not-negative": (
        lambda c: {"numerator_bound": c.numerator_bound.neg()},
        "numerator bound not certified negative"),
}


@pytest.mark.parametrize("tamper, failure", TAMPERINGS.values(), ids=list(TAMPERINGS))
def test_certificate_tampering_is_detected(tamper, failure):
    cert = locate_pole(F(1, 1000))
    obj = replace(cert, **tamper(cert)).to_json()
    assert PoleCertificate.from_json(obj).verify() == [failure]


def test_locate_pole_input_validation():
    with pytest.raises(ValueError):
        locate_pole(F(0))
    with pytest.raises(ValueError):
        locate_pole(F(1, 100), precision=10)


def test_numerator_nonvanishing_over_lemma_interval():
    hull = verify_numerator_nonvanishing(F(5, 2), F(3), target=F(-13, 10))
    assert hull.upper() <= F(-13, 10)
    assert hull.is_negative()


def test_numerator_degenerate_point():
    hull = verify_numerator_nonvanishing(F(14, 5), F(14, 5))
    assert hull.is_negative()


def test_numerator_budget_exhaustion():
    with pytest.raises(InconclusiveSign):
        verify_numerator_nonvanishing(F(5, 2), F(3), max_subdivisions=0,
                                      target=F(-13, 10))


def test_numerator_rejects_outside_bracket():
    with pytest.raises(ValueError):
        verify_numerator_nonvanishing(F(2), F(3))


# sha256 of `disksig pole --width W --precision P` output, taken from the
# bisection that certified every midpoint at the requested precision
PINNED_CERTIFICATES = [
    ("1/1000000", 128,
     "30b6b7f65538cd68b0333e9e39c2c1bb57bd2128c6983cee1224369e0492e83c"),
    ("1e-20", 512,
     "c03121887b9f06d9a5830d089bb316c47ee9ccfe72f029836e1bca1872fb9ea1"),
    ("1e-30", 128,
     "5bd511f6debccfb6da1b478945dc732f0c7b959fe04cbd576d09d1478413eb6f"),
]
PINNED_IDS = ["1e-6@128", "1e-20@512", "1e-30@128"]


def pole_digest(tmp_path, width, precision):
    out = tmp_path / "cert.json"
    rc = main(["pole", "--width", width, "--precision", str(precision),
               "--out", str(out)])
    assert rc == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


@pytest.mark.parametrize("width, precision, digest", PINNED_CERTIFICATES,
                         ids=PINNED_IDS)
def test_pole_certificate_bytes_are_pinned(tmp_path, width, precision, digest):
    assert pole_digest(tmp_path, width, precision) == digest


@pytest.mark.parametrize("width, precision, digest", PINNED_CERTIFICATES,
                         ids=PINNED_IDS)
def test_straddling_rungs_double_to_the_same_certificate(
        tmp_path, monkeypatch, width, precision, digest):
    # make every evaluation below the requested precision inconclusive, so
    # each midpoint's rung is doubled up to at least that precision; the
    # signs are the same facts, so the certificate bytes do not change
    real = polefinder.d_lambda
    rungs = []

    def straddling(lam, constants, prec=None):
        if prec < precision:
            rungs.append(prec)
            return RealBall.from_interval(-1, 1)
        return real(lam, constants, prec)

    monkeypatch.setattr(polefinder, "d_lambda", straddling)
    assert pole_digest(tmp_path, width, precision) == digest
    assert rungs
