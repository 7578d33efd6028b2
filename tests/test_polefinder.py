"""Certified sign changes, bisection brackets, and certificates."""

import hashlib
import json
from fractions import Fraction as F

import pytest

import disksig.polefinder as polefinder
from disksig.balls import RealBall
from disksig.bessel import d_lambda, make_constants
from disksig.cli import main
from disksig.polefinder import (InconclusiveSign, NoSignChange,
                                PoleCertificate, locate_pole,
                                verify_sign_change,
                                verify_numerator_nonvanishing)


def test_sign_change_on_the_coarse_bracket():
    d_lo, d_hi = verify_sign_change(F(5, 2), F(3))
    assert d_lo.is_negative()
    assert d_hi.is_positive()


def test_sign_change_rejected_where_none_exists():
    with pytest.raises(NoSignChange):
        verify_sign_change(F(1, 10), F(2, 10))


def test_sign_change_input_validation():
    with pytest.raises(ValueError):
        verify_sign_change(F(3), F(5, 2))
    with pytest.raises(ValueError):
        verify_sign_change(F(-1), F(3))


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


def test_escalation_recertifies_endpoints_at_final_precision(monkeypatch):
    real = polefinder._certified_d
    calls = []

    def counted(lam, constants, precision):
        calls.append(lam)
        return real(lam, constants, precision)

    monkeypatch.setattr(polefinder, "_certified_d", counted)
    locate_pole(F(1, 100))
    last = len(calls)
    calls.clear()

    def flaky(lam, constants, precision):
        # the last midpoint and its nudge read inconclusive at 128 bits
        sign, ball = counted(lam, constants, precision)
        return (0, ball) if len(calls) in (last, last + 1) else (sign, ball)

    monkeypatch.setattr(polefinder, "_certified_d", flaky)
    cert = locate_pole(F(1, 100), precision=128)
    assert cert.precision == 256
    assert cert.verify() == []
    constants = make_constants(256)
    for lam, ball in ((cert.bracket_lo, cert.d_lo), (cert.bracket_hi, cert.d_hi)):
        ref = d_lambda(lam, constants, 256)
        assert (ball.mid, ball.rad) == (ref.mid, ref.rad)


def test_certificate_json_round_trip():
    cert = locate_pole(F(1, 1000))
    blob = json.dumps(cert.to_json())
    back = PoleCertificate.from_json(json.loads(blob))
    assert back.verify() == []
    assert back.bracket_lo == cert.bracket_lo
    assert back.bracket_hi == cert.bracket_hi


def test_certificate_tampering_is_detected():
    cert = locate_pole(F(1, 1000))
    obj = cert.to_json()
    obj["bracket"] = ["1/2", "3/4"]  # outside the proven lemma interval
    broken = PoleCertificate.from_json(obj)
    assert broken.verify() != []


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
def test_straddling_rungs_fall_back_to_requested_precision(
        tmp_path, monkeypatch, width, precision, digest):
    # every evaluation below the requested precision is a rung; make each
    # one inconclusive, so every sign comes from the fallback path
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
