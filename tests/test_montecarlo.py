"""Stopped-path simulation, blockwise signatures, and the estimator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import disksig.montecarlo as montecarlo
from disksig.montecarlo import (BLOCK, MIN_STEP, SigAccumulator, SimConfig,
                                _advance_block, _block_signature,
                                _chen_combine, _path_generator, _run_cohort,
                                estimate_expected_sig, signature_of_path,
                                simulate_stopped_path, tensor_exp)

FAST = SimConfig(paths=64, h=1e-3, level=3)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(start=(1.0, 0.0))
    with pytest.raises(ValueError):
        SimConfig(h=0.0)
    with pytest.raises(ValueError):
        SimConfig(level=0)
    with pytest.raises(ValueError):
        SimConfig(paths=0)
    # one sample has no standard error, so every estimate would read inf
    with pytest.raises(ValueError, match="at least two paths"):
        SimConfig(paths=1)
    SimConfig(paths=2)
    # non-finite inputs would slip past the disk and sign tests above
    with pytest.raises(ValueError):
        SimConfig(h=float("inf"))
    with pytest.raises(ValueError):
        SimConfig(start=(float("nan"), 0.0))
    with pytest.raises(ValueError):
        SimConfig(start=(0.0, float("-inf")))
    # below MIN_STEP the step budget would not reach the exit horizon
    with pytest.raises(ValueError, match="at least"):
        SimConfig(h=1e-12)
    with pytest.raises(ValueError, match="at least"):
        SimConfig(h=MIN_STEP * (1 - 1e-12))
    SimConfig(h=MIN_STEP)
    SimConfig(h=1e-6)


def test_paths_are_deterministic_and_distinct():
    a = simulate_stopped_path(FAST, 3)
    b = simulate_stopped_path(FAST, 3)
    c = simulate_stopped_path(FAST, 4)
    assert np.array_equal(a, b)
    assert a.shape != c.shape or not np.array_equal(a, c)


def test_stopped_path_ends_on_the_circle():
    for idx in (0, 1, 17):
        inc = simulate_stopped_path(FAST, idx)
        end = np.asarray(FAST.start) + inc.sum(axis=0)
        assert np.linalg.norm(end) == pytest.approx(1.0, abs=1e-12)
        # interior points stay strictly inside up to the exit step
        traj = np.asarray(FAST.start) + np.cumsum(inc, axis=0)
        assert (np.linalg.norm(traj[:-1], axis=1) < 1.0).all()


def test_batched_blocks_equal_single_path_blocks():
    cfg = SimConfig(paths=4)
    normals = np.empty((4, BLOCK, 2))
    uniforms = np.empty((4, BLOCK))
    for j in range(4):
        gen = _path_generator(cfg.seed, j)
        gen.standard_normal(out=normals[j])
        gen.random(out=uniforms[j])
    pos = np.zeros((4, 2))
    inc_b, step_b, end_b = _advance_block(pos, normals, uniforms, cfg.h, True)
    for j in range(4):
        inc_1, step_1, end_1 = _advance_block(
            pos[j:j + 1], normals[j:j + 1], uniforms[j:j + 1], cfg.h, True)
        assert np.array_equal(inc_b[j], inc_1[0])
        assert step_b[j] == step_1[0]
        assert np.array_equal(end_b[j], end_1[0])


def test_single_increment_signature():
    sig = signature_of_path(np.array([[0.3, -0.7]]), 2)
    assert np.allclose(sig[0], [0.3, -0.7])
    outer = np.outer([0.3, -0.7], [0.3, -0.7]).reshape(4) / 2
    assert np.allclose(sig[1], outer)


def test_two_increment_area_term():
    a = np.array([0.5, 0.1])
    b = np.array([-0.2, 0.4])
    sig = signature_of_path(np.stack([a, b]), 2)
    lvl2 = sig[1].reshape(2, 2)
    area = (lvl2[0, 1] - lvl2[1, 0]) / 2
    assert area == pytest.approx((a[0] * b[1] - a[1] * b[0]) / 2, abs=1e-15)
    assert np.allclose(sig[0], a + b)


def test_reversed_path_cancels_to_identity():
    rng = np.random.default_rng(5)
    p = rng.standard_normal((9, 2)) * 0.4
    round_trip = np.concatenate([p, -p[::-1]], axis=0)
    sig = signature_of_path(round_trip, 4)
    for lvl in sig:
        assert np.allclose(lvl, 0.0, atol=1e-12)


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 12), st.integers(1, 12))
@settings(max_examples=100, deadline=None)
def test_chen_identity(seed, n_left, n_right):
    rng = np.random.default_rng(seed)
    p = rng.standard_normal((n_left, 2)) * 0.5
    q = rng.standard_normal((n_right, 2)) * 0.5
    whole = signature_of_path(np.concatenate([p, q]), 3)
    left = [x[None] for x in signature_of_path(p, 3)]
    right = [x[None] for x in signature_of_path(q, 3)]
    combined = _chen_combine(left, right)
    for n in range(3):
        assert np.allclose(combined[n][0], whole[n], atol=1e-12)


def _assert_block_matches_reference(inc, level):
    levels = _block_signature(inc, level)
    assert [x.shape for x in levels] == [(inc.shape[0], 2 ** n)
                                         for n in range(1, level + 1)]
    for row in range(inc.shape[0]):
        want = signature_of_path(inc[row], level)
        for n in range(level):
            assert np.allclose(levels[n][row], want[n], rtol=0, atol=1e-12)


def test_block_signature_matches_reference():
    rng = np.random.default_rng(11)
    inc = rng.standard_normal((5, 20, 2)) * 0.2
    inc[2, 13:] = 0.0  # zero-padded tail must act as identity steps
    inc[4, 1:] = 0.0   # a single live step, then padding
    for level in range(1, 7):
        _assert_block_matches_reference(inc, level)
        _assert_block_matches_reference(inc[:, :1], level)  # one-step block


@given(st.integers(0, 2 ** 32 - 1), st.integers(1, 6), st.integers(1, 3),
       st.integers(1, 24), st.integers(0, 24))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_block_signature_random_blocks(seed, level, rows, steps, live):
    rng = np.random.default_rng(seed)
    inc = rng.standard_normal((rows, steps, 2)) * 0.3
    inc[0, min(live, steps):] = 0.0
    _assert_block_matches_reference(inc, level)


def test_tensor_exp_factorials():
    delta = np.array([1.0, 2.0])
    levels = tensor_exp(delta, 3)
    assert np.allclose(levels[1], np.kron(delta, delta) / 2)
    assert np.allclose(levels[2], np.kron(np.kron(delta, delta), delta) / 6)


def test_cohort_engine_agrees_with_scalar_reference():
    acc = _run_cohort(FAST, 0, FAST.paths)
    ref = SigAccumulator(FAST.level)
    for idx in range(FAST.paths):
        inc = simulate_stopped_path(FAST, idx)
        sig = signature_of_path(inc, FAST.level)
        ref.update([x[None] for x in sig],
                   np.array([inc.shape[0] * FAST.h]))
    assert acc.count == ref.count == FAST.paths
    assert acc.tau_mean == pytest.approx(ref.tau_mean, abs=1e-14)
    for n in range(FAST.level):
        assert np.allclose(acc.mean[n], ref.mean[n], atol=1e-11)
        assert np.allclose(acc.m2[n], ref.m2[n], atol=1e-9)


def test_cohort_raises_when_the_block_budget_runs_out(monkeypatch):
    # from the origin with h = 1e-3 most paths outlive one 256-step block
    monkeypatch.setattr(montecarlo, "_MAX_BLOCKS_PER_PATH", 1)
    with pytest.raises(RuntimeError, match="block budget"):
        _run_cohort(FAST, 0, FAST.paths)


def test_accumulator_merge_is_associative_up_to_rounding():
    rng = np.random.default_rng(3)
    chunks = [rng.standard_normal((40, 2)) * 0.1 + 0.3 for _ in range(3)]
    taus = [np.abs(rng.standard_normal(40)) + 0.1 for _ in range(3)]
    accs = []
    for data, tau in zip(chunks, taus):
        acc = SigAccumulator(1)
        acc.update([data], tau)
        accs.append(acc)
    left = accs[0].merge(accs[1]).merge(accs[2])
    right = accs[0].merge(accs[1].merge(accs[2]))
    direct = SigAccumulator(1)
    direct.update([np.concatenate(chunks)], np.concatenate(taus))
    for other in (right, direct):
        assert left.count == other.count
        assert np.allclose(left.mean[0], other.mean[0], atol=1e-13)
        assert np.allclose(left.m2[0], other.m2[0], atol=1e-10)
        assert left.tau_mean == pytest.approx(other.tau_mean, abs=1e-13)


def test_merge_with_empty_accumulator():
    acc = SigAccumulator(2)
    acc.update([np.ones((5, 2)), np.ones((5, 4))], np.ones(5))
    merged = acc.merge(SigAccumulator(2))
    assert merged.count == 5
    assert np.allclose(merged.mean[0], 1.0)


def test_estimator_is_deterministic():
    cfg = SimConfig(paths=500, h=1e-3)
    res1 = estimate_expected_sig(cfg)
    res2 = estimate_expected_sig(cfg)
    for a, b in zip(res1.means, res2.means):
        assert np.array_equal(a, b)
    assert res1.exit_time_mean == res2.exit_time_mean


def test_estimator_level2_and_exit_time_near_exact_values():
    cfg = SimConfig(paths=6000, h=1e-3, seed=7)
    res = estimate_expected_sig(cfg)
    lvl2 = res.means[2].reshape(2, 2)
    err2 = res.stderrs[2].reshape(2, 2)
    exact = np.array([[0.25, 0.0], [0.0, 0.25]])
    assert (np.abs(lvl2 - exact) < 4 * err2).all()
    assert abs(res.exit_time_mean - 0.5) < 4 * res.exit_time_stderr
    assert (np.abs(res.means[1]) < 4 * res.stderrs[1]).all()
    assert res.means[0][0] == 1.0 and res.stderrs[0][0] == 0.0


def test_estimates_are_rotation_invariant_within_noise():
    res = estimate_expected_sig(SimConfig(paths=4096, h=1e-3))
    m = res.means[2].reshape(2, 2)
    se = res.stderrs[2].reshape(2, 2)
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    m_rot = rot @ m @ rot.T
    se_rot = np.abs(rot) @ se @ np.abs(rot).T
    assert (np.abs(m_rot - m) <= 3 * (se_rot + se)).all()


def test_start_near_boundary_exits_fast():
    cfg = SimConfig(start=(0.999, 0.0), paths=4000, h=1e-6, seed=11)
    res = estimate_expected_sig(cfg)
    want = (1 - 0.999 ** 2) / 2
    assert abs(res.exit_time_mean - want) < 4 * res.exit_time_stderr
