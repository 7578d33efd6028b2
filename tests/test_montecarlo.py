"""Stopped-path simulation, blockwise signatures, and the estimator."""

import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import disksig.montecarlo as montecarlo
from disksig.montecarlo import (BLOCK, COHORT, EXIT_HORIZON, MIN_STEP,
                                SigAccumulator, SimConfig, _advance_block,
                                _block_signature, _chen_combine,
                                _path_generator, _run_cohort, _run_slice,
                                estimate_expected_sig)
from reference import (bridge_exit_steps, signature_of_path,
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
    # one step of EXIT_HORIZON already spans the time no path outlives
    SimConfig(h=EXIT_HORIZON)
    with pytest.raises(ValueError, match="at most"):
        SimConfig(h=math.nextafter(EXIT_HORIZON, math.inf))
    with pytest.raises(ValueError, match="at most"):
        SimConfig(h=1e300)


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


def _lattice(*k):
    """Uniform deviates as Generator.random() draws them: k * 2^-53."""
    return np.array(k, dtype=np.float64) * 2.0 ** -53


def _assert_bridge_matches_reference(pos, normals, uniforms, h):
    _, exit_step, _ = _advance_block(pos, normals, uniforms, h, True)
    assert np.array_equal(exit_step, bridge_exit_steps(pos, normals, uniforms, h))


def test_bridge_shortcut_equals_the_full_bridge_test():
    # drawn blocks from the centre and from near the circle
    for start, h in (((0.0, 0.0), 1e-3), ((0.999, 0.0), 1e-6), ((0.9, 0.3), 1e-4)):
        normals = np.empty((32, BLOCK, 2))
        uniforms = np.empty((32, BLOCK))
        for j in range(32):
            gen = _path_generator(7, j)
            gen.standard_normal(out=normals[j])
            gen.random(out=uniforms[j])
        pos = np.tile(start, (32, 1))
        _assert_bridge_matches_reference(pos, normals, uniforms, h)

    # paths that stand still at distance d from the circle, so every step
    # has log p = -2 d^2 / h: one row per (log p, uniform pattern)
    h = 1e-2
    x = 1.0 - np.sqrt(np.array([30.0, 36.0, 36.7, 39.98, 40.0, 45.0, 200.0]) * h / 2)
    # the stand-still points around log p = -40, one ulp apart
    near = x[4] + np.arange(-40, 41) * np.spacing(x[4])
    log_p = -2.0 * (1.0 - near) * (1.0 - near) / h
    above, below = near[log_p > -40.0][-1], near[log_p <= -40.0][0]
    assert -2.0 * (1.0 - below) * (1.0 - below) / h < -40.0
    x = np.concatenate([x, [above, below]])
    patterns = [_lattice(2 ** 52, 2 ** 30, 5, 3, 2, 1, 0, 0),
                _lattice(7, 5, 3, 2, 1, 1, 1, 1),
                _lattice(0, 1, 1, 1, 1, 1, 1, 1)]
    pos = np.array([[v, 0.0] for v in x for _ in patterns])
    uniforms = np.array([u for _ in x for u in patterns])
    normals = np.zeros((len(pos), 8, 2))
    _assert_bridge_matches_reference(pos, normals, uniforms, h)

    # d_prev <= 0 at step 0 (starts on or outside the circle), and a step
    # landing exactly on it (d_curr = 0); every uniform is 0 or tiny
    pos = np.array([[1.0, 0.0], [0.0, -1.0], [1.25, 0.0], [0.5, 0.0]])
    normals = np.zeros((4, 4, 2))
    normals[:3, :, 0] = -0.1  # inward: inside from the second step on
    normals[3, 0] = (1.0, 0.0)  # 0.5 + sqrt(0.25) = 1.0 exactly
    for uniforms in (np.zeros((4, 4)), np.tile(_lattice(0, 1, 0, 1), (4, 1))):
        _assert_bridge_matches_reference(pos, normals, uniforms, 0.25)

    # a huge step size: exp(log p) rounds to 1 inside, paths leave far
    # outside, and neither raises a warning (warnings are errors here)
    rng = np.random.default_rng(2)
    normals = rng.standard_normal((8, 16, 2))
    normals[:4] *= 1e-152  # steps of about 1e-2
    uniforms = np.tile(_lattice(2 ** 53 - 1, 1, 0, *range(13)), (8, 1))
    _assert_bridge_matches_reference(np.zeros((8, 2)), normals, uniforms, 1e300)


def test_tile_rows_per_level():
    assert [montecarlo._tile_rows(n) for n in range(1, 7)] == [
        256, 128, 64, 32, 16, 8]


@pytest.mark.parametrize("level", [2, 6])
def test_a_partial_last_tile_changes_no_path(level):
    # tile + 1 rows: the second tile of the first block holds one row
    cfg = SimConfig(paths=2, h=1e-3, level=level)
    rows = montecarlo._tile_rows(level) + 1
    steps, at_exit = _run_slice(cfg, 0, rows)
    for i in range(rows):
        one_steps, one_sig = _run_slice(cfg, i, i + 1)
        assert steps[i] == one_steps[0]
        for s, t in zip(at_exit, one_sig):
            assert s[i].tobytes() == t[0].tobytes()


def test_slice_memory_does_not_grow_with_its_rows():
    # numpy reports its buffers to tracemalloc.  Holding every live row's
    # step tensors made the peak grow about 16x from 64 to 1024 rows.
    cfg = SimConfig(paths=2, h=1e-2, level=6)
    _run_slice(cfg, 0, 16)  # numpy's one-time allocations on first use
    peaks = []
    for rows in (64, 1024):
        tracemalloc.start()
        try:
            _run_slice(cfg, 0, rows)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


def test_mmap_threshold_exceeds_every_tile_temporary():
    # a temporary above glibc's mmap threshold gets a fresh mapping, whose
    # pages every tile would fault in again
    for level in range(1, 7):
        rows = montecarlo._tile_rows(level)
        inc = rows * BLOCK * 2 * 8  # float64 increments (rows, BLOCK, 2)
        widest = 2 ** (level - 1) * rows * BLOCK * 8  # top prefix level
        assert montecarlo._MMAP_THRESHOLD > max(inc, widest)


_FAULTS = """
import resource
import disksig.montecarlo as montecarlo
from disksig.montecarlo import SimConfig, estimate_expected_sig
montecarlo._worker_count = lambda paths: 1
estimate_expected_sig(SimConfig(level=4, paths=64, h=1e-2))  # numpy's first use
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
estimate_expected_sig(SimConfig(level=4, paths=1024, h=1e-3))
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="glibc malloc thresholds are set on Linux only")
def test_library_estimate_reuses_freed_tile_memory():
    # a fresh interpreter, since the thresholds are fixed once per process;
    # with glibc's defaults every tile faulted its temporaries in afresh,
    # 47000-59000 minor faults for this estimate against about 220
    src = os.path.dirname(os.path.dirname(montecarlo.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", _FAULTS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 5000


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
    acc, _ = _run_cohort(FAST, 0, FAST.paths)
    ref = SigAccumulator(FAST.level)
    for idx in range(FAST.paths):
        inc = simulate_stopped_path(FAST, idx)
        sig = signature_of_path(inc, FAST.level)
        ref.update([x[None] for x in sig], [inc.shape[0]])
    assert acc.count == ref.count == FAST.paths
    assert (acc.steps, acc.steps_sq) == (ref.steps, ref.steps_sq)
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
    steps = [rng.integers(1, 10 ** 6, 40) for _ in range(3)]
    accs = []
    for data, step_counts in zip(chunks, steps):
        acc = SigAccumulator(1)
        acc.update([data], step_counts)
        accs.append(acc)
    left = accs[0].merge(accs[1]).merge(accs[2])
    right = accs[0].merge(accs[1].merge(accs[2]))
    direct = SigAccumulator(1)
    direct.update([np.concatenate(chunks)], np.concatenate(steps))
    for other in (right, direct):
        assert left.count == other.count
        assert np.allclose(left.mean[0], other.mean[0], atol=1e-13)
        assert np.allclose(left.m2[0], other.m2[0], atol=1e-10)
        # exit step counts are summed exactly, so merging is exact
        assert left.exit_time(1e-3) == other.exit_time(1e-3)


def test_merge_with_empty_accumulator():
    acc = SigAccumulator(2)
    acc.update([np.ones((5, 2)), np.ones((5, 4))], np.ones(5))
    merged = acc.merge(SigAccumulator(2))
    assert merged.count == 5
    assert np.allclose(merged.mean[0], 1.0)


def test_equal_exit_times_have_an_exact_mean_and_no_spread():
    # three exits at step 1 of h = 0.1: summed as floats, 3 * 0.1 / 3 is
    # 0.10000000000000002 with a residue of spread
    acc = SigAccumulator(1)
    acc.update([np.zeros((3, 2))], [1, 1, 1])
    assert acc.exit_time(0.1) == (0.1, 0.0)
    # the mean is the exact one rounded once: 1e5 exits of 7 steps of 0.1
    acc = SigAccumulator(1)
    acc.update([np.zeros((10 ** 5, 2))], np.full(10 ** 5, 7))
    assert acc.exit_time(0.1) == (float(F(7) * F(0.1)), 0.0)


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


# slice counts: serial, one worker, two workers, and more workers than
# CPUs; none of 2, 3 and 7 divides 151, 97 or the second cohort's 101 paths
SLICE_COUNTS = (1, 2, 3, 7)
SLICED = {
    **{f"level{n}": SimConfig(paths=151, h=1e-3, level=n) for n in range(1, 7)},
    "no-bridge": SimConfig(paths=151, h=1e-3, level=3, bridge_correction=False),
    "two-cohorts": SimConfig(paths=COHORT + 101, h=2e-2, level=2),
    # from near the circle the first of three slices ends in block 0
    "slice-exits-in-block-0": SimConfig(start=(0.99, 0.0), paths=97, h=1e-4,
                                        level=4, seed=0),
}


def _bits(result):
    """Every output number of an estimate, as exact bytes."""
    return ([m.tobytes() for m in result.means],
            [e.tobytes() for e in result.stderrs],
            result.count, repr(result.exit_time_mean),
            repr(result.exit_time_stderr))


@pytest.mark.parametrize("name", SLICED)
def test_estimates_are_bit_identical_for_every_slice_count(monkeypatch, name):
    cfg = SLICED[name]
    outputs = []
    for k in SLICE_COUNTS:
        monkeypatch.setattr(montecarlo, "_worker_count", lambda paths, k=k: k)
        outputs.append(_bits(estimate_expected_sig(cfg)))
    assert all(out == outputs[0] for out in outputs[1:])


def test_a_slice_can_end_in_its_first_block():
    cfg = SLICED["slice-exits-in-block-0"]
    steps, _ = _run_slice(cfg, 0, cfg.paths)
    exit_block = (steps - 1) // BLOCK
    assert (exit_block[:cfg.paths // 3] == 0).all()
    assert exit_block.max() > 0


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                    reason="no affinity mask: cohorts run serially")
def test_cohorts_use_every_usable_cpu():
    # the test process runs no second thread, so the default forks
    usable = len(os.sched_getaffinity(0))
    assert montecarlo._worker_count(COHORT) == min(
        usable, COHORT // montecarlo._MIN_SLICE)
    assert montecarlo._worker_count(63) == 1
    assert estimate_expected_sig(FAST).workers == montecarlo._worker_count(64)


def test_worker_count_is_asked_once_per_cohort(monkeypatch):
    asked = []
    monkeypatch.setattr(montecarlo, "_worker_count",
                        lambda paths: asked.append(paths) or 2)
    assert estimate_expected_sig(FAST).workers == 2
    assert asked == [FAST.paths]


def test_worker_error_reaches_the_parent(budget_one_in_workers):
    # the in-process slice finishes; the forked one runs out of blocks
    with pytest.raises(RuntimeError, match="block budget") as info:
        _run_cohort(FAST, 0, FAST.paths)
    assert type(info.value) is RuntimeError


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_parent_leaving_early_kills_its_workers(monkeypatch, error):
    # the in-process slice fails at once while the workers are still
    # running; the autouse fixture fails the test if one is left behind
    parent = os.getpid()
    run_slice = montecarlo._run_slice

    def fail_in_parent(config, index_lo, index_hi, *args):
        if os.getpid() == parent:
            raise error("in-process slice failed")
        return run_slice(config, index_lo, index_hi, *args)

    monkeypatch.setattr(montecarlo, "_run_slice", fail_in_parent)
    monkeypatch.setattr(montecarlo, "_worker_count", lambda paths: 3)
    with pytest.raises(error, match="in-process slice failed"):
        _run_cohort(SimConfig(paths=3000), 0, 3000)
