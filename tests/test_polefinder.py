"""Certified sign changes, bisection brackets, and certificates."""

import hashlib
import json
import time
from dataclasses import replace
from fractions import Fraction as F
from itertools import groupby
from math import factorial

import pytest

import disksig.exactseries as exactseries
import disksig.polefinder as polefinder
from disksig import MAX_PRECISION
from disksig.balls import RealBall
from disksig.bessel import d_lambda, make_constants, series_terms
from disksig.cli import main
from disksig.exactseries import InconclusiveSign, NoSignChange
from disksig.polefinder import (PoleCertificate, locate_pole,
                                verify_numerator_nonvanishing)
from disksig.rational import as_rat
from reference import ball_bisection


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
        if constants.prec == 128 and lam in inconclusive:
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
    # the exact midpoint signs pick the true bracket; every ball
    # evaluation of d at its endpoints reads d > 0, so the ball route
    # disagrees with the exact one at the lower endpoint

    def positive(lam, constants, prec=None):
        return RealBall.from_interval(1, 2)

    monkeypatch.setattr(polefinder, "d_lambda", positive)
    with pytest.raises(NoSignChange):
        locate_pole(F(1, 100))
    out = tmp_path / "cert.json"
    assert main(["pole", "--width", "1/100", "--out", str(out)]) == 1
    assert list(tmp_path.iterdir()) == []


def test_sign_that_never_certifies_is_inconclusive(monkeypatch):
    precs = []

    def straddling(lam, constants, prec=None):
        precs.append(constants.prec)
        return RealBall.from_interval(-1, 1)

    monkeypatch.setattr(polefinder, "d_lambda", straddling)
    with pytest.raises(InconclusiveSign):
        locate_pole(F(1, 100))
    # both stored endpoints at the requested precision, doubled while the
    # doubled precision stays at most MAX_PRECISION: 128 .. 8192 bits
    assert 128 << 6 == MAX_PRECISION
    assert precs == [128 << k for k in range(7) for _ in range(2)]


@pytest.mark.parametrize("precision, ladder", [
    (53, [53 << k for k in range(8)]), (4096, [4096, 8192]), (5000, [5000]),
    (8192, [8192])])
def test_escalation_stops_at_the_precision_cap(monkeypatch, precision, ladder):
    precs = []

    def straddling(lam, constants, prec=None):
        precs.append(constants.prec)
        return RealBall.from_interval(-1, 1)

    monkeypatch.setattr(polefinder, "d_lambda", straddling)
    with pytest.raises(InconclusiveSign, match=f"up to {ladder[-1]} bits"):
        locate_pole(F(1, 100), precision=precision)
    assert precs == [prec for prec in ladder for _ in range(2)]


def test_series_term_cap_is_inconclusive(monkeypatch):
    # 8 terms do not certify E at the first midpoint, 11/4, and the cap
    # forbids doubling
    def never(lam, constants, prec=None):
        raise AssertionError("no ball evaluation before the bracket is found")

    monkeypatch.setattr(exactseries, "_MAX_TERMS", 8)
    monkeypatch.setattr(polefinder, "d_lambda", never)
    with pytest.raises(InconclusiveSign, match="8 series terms"):
        locate_pole(F(1, 100))


def test_bracket_depends_on_width_alone():
    ref = locate_pole(F(1, 10 ** 20), precision=512)
    for precision in (53, 64, 80):
        cert = locate_pole(F(1, 10 ** 20), precision=precision)
        assert (cert.bracket_lo, cert.bracket_hi) == (ref.bracket_lo, ref.bracket_hi)
        assert cert.verify() == []


# precision of every d evaluation in locate_pole at the two benchmark
# inputs, 1e-30, and 1e-100, the one whose endpoint balls escalate, as
# runs of (precision, count): both stored endpoints at the requested
# precision, doubled while one straddles zero; and the number of exact
# midpoint signs before them and the most series terms one needed, which
# the certificate's search records (1e-30 and 1e-100 pinned when each
# sign was an integer partial sum against a rational tail bound)
D_EVALUATIONS = [
    ("1/1000000", 128, [(128, 2)], 19, 16),
    ("1e-20", 512, [(512, 2)], 66, 32),
    ("1e-30", 128, [(128, 2)], 99, 32),
    ("1e-100", 128, [(128, 2), (256, 2), (512, 2)], 332, 64),
]


@pytest.mark.parametrize("width, precision, runs, signs, terms", D_EVALUATIONS,
                         ids=["1e-6@128", "1e-20@512", "1e-30@128", "1e-100@128"])
def test_d_evaluations_are_pinned(monkeypatch, width, precision, runs, signs,
                                  terms):
    real_d, real_sign = polefinder.d_lambda, exactseries._series_sign
    precs, mus = [], []

    def recorded_d(lam, constants, prec=None):
        precs.append(constants.prec)
        return real_d(lam, constants, prec)

    def recorded_sign(mu):
        mus.append(mu)
        return real_sign(mu)

    monkeypatch.setattr(polefinder, "d_lambda", recorded_d)
    monkeypatch.setattr(exactseries, "_series_sign", recorded_sign)
    cert = locate_pole(as_rat(width), precision=precision)
    assert [(p, len(list(g))) for p, g in groupby(precs)] == runs
    assert len(mus) == signs
    assert cert.search == {"exact_signs": signs, "max_terms": terms,
                           "d_evaluations": {str(p): k for p, k in runs},
                           "numerator_pieces": 1}


def test_search_is_recorded_but_not_certified(tmp_path):
    search = {"exact_signs": 19, "max_terms": 16,
              "d_evaluations": {"128": 2}, "numerator_pieces": 1}
    cert = locate_pole(F(1, 10 ** 6), precision=128)
    assert cert.search == search
    out = tmp_path / "cert.json"
    assert main(["pole", "--width", "1e-6", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "cert.json.manifest.json").read_text())
    assert manifest["stats"] == search
    # the search is not part of the certificate's bytes or its equality
    bare = replace(cert, search=None)
    assert bare == cert
    assert bare.to_json() == cert.to_json()
    assert PoleCertificate.from_json(cert.to_json()).search is None


@pytest.mark.parametrize("width", [F(1, 100), F(1, 10 ** 6), F(1, 10 ** 20),
                                   F(1, 10 ** 30)],
                         ids=["1/100", "1e-6", "1e-20", "1e-30"])
def test_exact_signs_pick_the_ball_route_bracket(width):
    # both routes certify true signs of d at the same dyadic midpoints
    cert = locate_pole(width)
    assert (cert.bracket_lo, cert.bracket_hi) == ball_bisection(width)


@pytest.mark.parametrize("lam", [F(1, 3), F(5, 2), F(14, 5), F(3)],
                         ids=["1/3", "5/2", "14/5", "3"])
def test_series_partial_sum_and_tail_enclose_d(lam):
    # d(lambda) = sqrt(7) lambda E(lambda^2): the partial sum of E plus or
    # minus its tail bound, scaled, meets the ball enclosure of d
    n, prec, mu = 40, 256, lam * lam
    assert 3 * mu <= (n + 1) * (n + 2)
    numerators, den = exactseries._series_coefficients(n)
    partial = sum(F(c, den) * mu ** m for m, c in enumerate(numerators))
    tail = 2 * (F(3, 2) * mu) ** n / (factorial(n) * factorial(n + 1))
    series = RealBall.from_interval(partial - tail, partial + tail, prec)
    scale = RealBall.from_int(7).sqrt(prec).mul(RealBall.from_rational(lam, prec), prec)
    enclosure = scale.mul(series, prec)
    d = d_lambda(lam, make_constants(prec), prec)
    assert enclosure.lower() <= d.upper() and d.lower() <= enclosure.upper()


def test_certificate_json_round_trip():
    cert = locate_pole(F(1, 1000))
    blob = json.dumps(cert.to_json())
    back = PoleCertificate.from_json(json.loads(blob))
    assert back.verify() == []
    assert back.bracket_lo == cert.bracket_lo
    assert back.bracket_hi == cert.bracket_hi


# each tampering breaks one invariant of PoleCertificate.verify() alone; a
# moved bracket keeps series_terms consistent with its new upper end
TAMPERINGS = {
    "bracket-outside": (
        lambda c: _moved(c, c.bracket_lo - 1, c.bracket_hi - 1),
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
    "precision-below-53-bits": (
        lambda c: {"precision": 7},
        "precision below 53 bits"),
    "precision-above-8192-bits": (
        lambda c: {"precision": 2 ** 20},
        "precision above 8192 bits"),
    "series-terms-changed": (
        lambda c: {"series_terms": 1},
        "series_terms differs from the length selected at bracket_hi"),
    # the stored balls kept, the bracket moved near 2.6, where d < 0 at
    # both ends
    "bracket-off-the-zero": (
        lambda c: _bracket_at(F(13, 5), c),
        "exact sign of d at upper endpoint not positive"),
}


def _bracket_at(x, cert):
    """The certificate's bracket moved to start at x rounded down to a
    multiple of its width, so both ends stay dyadic."""
    width = cert.bracket_hi - cert.bracket_lo
    lo = x // width * width
    return _moved(cert, lo, lo + width)


def _moved(cert, lo, hi):
    """The fields of the certificate's bracket moved to [lo, hi], with the
    series length selected at hi."""
    return {"bracket_lo": lo, "bracket_hi": hi,
            "series_terms": series_terms(hi, make_constants(cert.precision))}


@pytest.mark.parametrize("tamper, failure", TAMPERINGS.values(), ids=list(TAMPERINGS))
def test_certificate_tampering_is_detected(tamper, failure):
    cert = locate_pole(F(1, 1000))
    obj = replace(cert, **tamper(cert)).to_json()
    assert PoleCertificate.from_json(obj).verify() == [failure]


def test_replay_of_a_huge_precision_is_bounded():
    # verify builds no constants at a precision make_constants refuses;
    # unbounded, 2^20 bits ran past 55 s
    cert = locate_pole(F(1, 1000))
    t0 = time.perf_counter()
    assert replace(cert, precision=2 ** 20).verify() == ["precision above 8192 bits"]
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("mid", ["1e-1000000", "-1e-999999999999999999"])
def test_replay_of_a_huge_exponent_is_bounded(mid):
    # from_json encloses a far decimal in O(log |exponent|) products and
    # verify compares the floats, so neither builds the power of ten;
    # read exactly, "1e-1000000" did not finish in 20 s.  A midpoint that
    # small, with a radius as large, is not certified negative.
    obj = locate_pole(F(1, 1000)).to_json()
    obj["d_lo"] = {"mid": mid, "rad": mid.lstrip("-")}
    t0 = time.perf_counter()
    failures = PoleCertificate.from_json(obj).verify()
    assert time.perf_counter() - t0 < 1.0
    assert failures == ["d at lower endpoint not certified negative"]


@pytest.mark.parametrize("ball", [{"mid": "-1.5", "rad": 0}, {"mid": -1.5, "rad": "0"}],
                         ids=["numeric-rad", "numeric-mid"])
def test_replay_of_a_numeric_ball_is_refused(ball):
    obj = locate_pole(F(1, 1000)).to_json()
    obj["d_lo"] = ball
    with pytest.raises(ValueError, match="not a decimal"):
        PoleCertificate.from_json(obj)


@pytest.mark.parametrize("field", ["precision", "series_terms"])
@pytest.mark.parametrize("raw", ["Infinity", "1.9", "true", '"128"'])
def test_replay_of_a_non_integer_count_is_refused(field, raw):
    # coerced with int(), Infinity raised OverflowError, 1.9 and true
    # became 1 and "128" was read as 128
    obj = locate_pole(F(1, 1000)).to_json()
    obj[field] = json.loads(raw)
    with pytest.raises(ValueError, match=f"{field} must be a JSON integer"):
        PoleCertificate.from_json(obj)


def test_verify_reports_an_uncertified_exact_sign(monkeypatch):
    # a non-dyadic endpoint has no exact sign of E; nor has one the series
    # cannot certify within its term cap: each is a failure line, not an
    # exception
    cert = locate_pole(F(1, 1000))
    width = cert.bracket_hi - cert.bracket_lo
    moved = replace(cert, bracket_lo=F(2827, 1000), bracket_hi=F(2827, 1000) + width)
    assert [f.split(":")[0] for f in moved.verify()] == [
        "exact sign of d at lower endpoint not negative",
        "exact sign of d at upper endpoint not positive"]
    monkeypatch.setattr(exactseries, "_MAX_TERMS", 4)
    assert [f.split(":")[0] for f in cert.verify()] == [
        "exact sign of d at lower endpoint not negative",
        "exact sign of d at upper endpoint not positive"]


def test_locate_pole_input_validation(monkeypatch):
    with pytest.raises(ValueError):
        locate_pole(F(0))
    # the precision floor is make_constants' own, checked before the
    # bisection would spend its exact signs
    def no_bisection(width):
        raise AssertionError("exact_bracket ran before the precision check")

    monkeypatch.setattr(polefinder, "exact_bracket", no_bisection)
    for width in (F(1, 100), F(1, 10 ** 100)):
        with pytest.raises(ValueError, match="below 53 bits"):
            locate_pole(width, precision=10)


def test_numerator_nonvanishing_over_lemma_interval():
    hull, _ = verify_numerator_nonvanishing(F(5, 2), F(3), target=F(-13, 10))
    assert hull.upper() <= F(-13, 10)
    assert hull.is_negative()


def test_numerator_pieces_are_counted_once_each(monkeypatch):
    # the count verify_numerator_nonvanishing returns is the number of
    # numerator evaluations, and the certificate's search records it
    cert = locate_pole(F(1, 1000))
    _, pieces = verify_numerator_nonvanishing(
        cert.bracket_lo, cert.bracket_hi, make_constants(cert.precision))
    assert pieces == cert.search["numerator_pieces"]
    calls = []
    real = polefinder.numerator_im

    def counted(lam, constants):
        calls.append(lam)
        return real(lam, constants)

    monkeypatch.setattr(polefinder, "numerator_im", counted)
    _, pieces = verify_numerator_nonvanishing(F(5, 2), F(3), target=F(-13, 10))
    assert pieces == len(calls) > 1


def test_numerator_degenerate_point():
    hull, _ = verify_numerator_nonvanishing(F(14, 5), F(14, 5))
    assert hull.is_negative()


def test_numerator_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(polefinder, "_MAX_SUBDIVISIONS", 0)
    with pytest.raises(InconclusiveSign):
        verify_numerator_nonvanishing(F(5, 2), F(3), target=F(-13, 10))


def test_numerator_rejects_outside_bracket():
    with pytest.raises(ValueError):
        verify_numerator_nonvanishing(F(2), F(3))


# sha256 of `disksig pole --width W --precision P` output, taken from the
# bisection that certified every midpoint at the requested precision;
# 1e-100 from the bisection on integer partial sums of E, before enclose
# gave each midpoint's sign
PINNED_CERTIFICATES = [
    ("1/1000000", 128,
     "30b6b7f65538cd68b0333e9e39c2c1bb57bd2128c6983cee1224369e0492e83c"),
    ("1e-20", 512,
     "c03121887b9f06d9a5830d089bb316c47ee9ccfe72f029836e1bca1872fb9ea1"),
    ("1e-30", 128,
     "5bd511f6debccfb6da1b478945dc732f0c7b959fe04cbd576d09d1478413eb6f"),
    ("1e-100", 128,
     "3cf2a3277dc445ac9d87948e0067be62cb741d2f06c461dffe109006a026baf0"),
]
PINNED_IDS = ["1e-6@128", "1e-20@512", "1e-30@128", "1e-100@128"]


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
def test_midpoints_never_evaluate_balls(tmp_path, monkeypatch, width,
                                        precision, digest):
    # d may be evaluated only at the two endpoints the exact signs pick;
    # the certificate bytes are the pinned ones
    ref = locate_pole(as_rat(width), precision=precision)
    endpoints = {ref.bracket_lo, ref.bracket_hi}
    real = polefinder.d_lambda

    def endpoints_only(lam, constants, prec=None):
        if lam not in endpoints:
            raise AssertionError(f"d evaluated at {lam}")
        return real(lam, constants, prec)

    monkeypatch.setattr(polefinder, "d_lambda", endpoints_only)
    assert pole_digest(tmp_path, width, precision) == digest
