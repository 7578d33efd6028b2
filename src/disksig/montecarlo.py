"""Monte Carlo estimation of expected-signature levels on the disk.

A statistical oracle fully independent of the exact PDE route: simulate
Brownian paths from a start point, stop each at its first exit from the
unit disk, compute truncated path signatures of the piecewise-linear
interpolation by Chen concatenation, and average level by level.

Reproducibility: each path owns a counter-based RNG stream keyed by
(seed, path_index), so estimates do not depend on scheduling, cohort
size or CPU count.  Every path consumes its stream in one block pattern
(normals of shape (block, 2), then block uniform deviates) through
_advance_block, whose rows are independent, so a path is bit-identical
whether it is stepped alone or in a batch; the tests' reference
simulator steps single paths this way and checks the engine with them.

Boundary handling: a step landing outside the disk exits at that step;
optionally (bridge_correction) a step staying inside still exits with
the Brownian-bridge probability exp(-2 d_prev d_curr / h) of having
crossed the local tangent line mid-step.  Without the bridge test, the
discretely monitored barrier sits ~0.58 sqrt(h) too far out, which at
the default step size already biases the mean exit time by more than
three standard errors at 1e5 paths; the bridge test removes the
sqrt(h) term, leaving O(h) curvature bias far below noise.  The
exponential is evaluated only where a uniform deviate can fall below it
(_advance_block), so the decisions are those of the full test.  The exit
point is the radial projection of the exit-step position onto the
circle, folded into that step's increment so signatures see a path
ending exactly on the boundary.

Block signatures: each block of BLOCK steps gets its own truncated
signature, folded into the running one by Chen's identity.  Inside a
block, the levels below the top level N are built step by step, as
exclusive prefix sums, because the next level needs them; the top level
is a contraction of those prefixes with the step powers over the step
axis (batched matmuls), so no per-step array of width 2^N is ever made.
A block runs over the live paths in tiles of rows, in row order, sized
by _TILE_BYTES so that the widest per-step tensor of a tile, 2^(N-1)
components by BLOCK steps, takes about 512 KiB (256 rows at level 1, 8
at level 6): the step tensors of one tile exist at a time, so a slice's
memory beyond them is its rows' running signatures, positions and
generators, under 2 KiB per path at level 6.  estimate_expected_sig
fixes glibc's malloc thresholds above every tile temporary
(_retain_freed_memory), so each tile reuses the memory the last one freed.
Positions and exit decisions never read a signature, so exit steps,
exit times and each path's increments are fixed bit for bit by (seed,
path_index).  Lower levels are summed in step order; the matmul
reassociates the top-level sums, so the last bits of top-level means
depend on the kernel, and the tests check them against a reference
signature built by one Chen product per chord.

Work is bounded: a path gets at most 2^27 steps, and SimConfig refuses
any h below MIN_STEP, at which that budget would end paths before the
EXIT_HORIZON that no Brownian path outlives in practice, or above
MAX_STEP, one step of that whole horizon.

Parallel slices: paths run in cohorts of COHORT, and each cohort is cut
into one contiguous slice of paths per CPU in the process's affinity
mask (at least _MIN_SLICE paths each).  The first slice runs in this
process and every other in a forked worker, which pickles back, per
path in path order, its exit block, exit step count and signature at
exit.  The fold concatenates the slices and updates the accumulator
once per exit block, in block order, with rows in path order: exactly
the batches one serial pass makes.  Every array operation on a row is
independent of the other rows in its batch (ufuncs, sums and cumsums
along the step axis, one matmul per row), so means, standard errors
and exit times are bit-identical for any slice count and any tile
size; `taskset` limits the workers and changes no output byte.
Without os.fork or os.sched_getaffinity, or with a second Python thread
running, the cohort runs serially as one slice.
"""

from __future__ import annotations

import math
import os
import pickle
import signal
import sys
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache

from . import DEFAULT_SEED
from ._lazy import lazy_import

np = lazy_import("numpy")  # only the Monte Carlo engine needs numpy

BLOCK = 256
COHORT = 4096
_MIN_SLICE = 64  # fewest paths worth a forked worker
_TILE_BYTES = 2 ** 19  # size of a tile's widest per-step tensor
# glibc malloc thresholds (_retain_freed_memory): the largest tile
# temporary, level 1's increments, takes 2 * _TILE_BYTES
_MMAP_THRESHOLD = 8 * _TILE_BYTES  # 4 MiB
_TRIM_THRESHOLD = 32 * _TILE_BYTES  # 16 MiB
_MAX_BLOCKS_PER_PATH = 2 ** 19  # per-path step budget: 2^27 steps
# Brownian motion started anywhere in the disk is still inside at time t
# with probability at most about 1.6 exp(-j^2 t / 2), j = 2.405 the first
# zero of J0: about 1e-40 at t = 32.  Every accepted step size lets the
# step budget reach this horizon, so the budget is met only by a fault,
# and no accepted input costs a path more than 2^27 steps.
EXIT_HORIZON = 32.0
MIN_STEP = EXIT_HORIZON / (_MAX_BLOCKS_PER_PATH * BLOCK)  # about 2.4e-7
MAX_STEP = EXIT_HORIZON  # a longer step only rescales a first-step exit


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one Monte Carlo estimate.

    The step size h must lie in [MIN_STEP, MAX_STEP]: below MIN_STEP
    the per-path step budget would end paths before EXIT_HORIZON, and the
    expected work per path, (1 - |start|^2) / (2h) steps, is unbounded
    as h goes to 0; one step of MAX_STEP already spans EXIT_HORIZON, and
    from about 1e306 positions overflow.  At least two paths are needed
    for a finite standard error.
    """

    start: tuple = (0.0, 0.0)
    h: float = 1e-4
    level: int = 2
    paths: int = 100_000
    seed: int = DEFAULT_SEED
    bridge_correction: bool = True

    def __post_init__(self):
        x, y = self.start
        if not all(math.isfinite(v) for v in (x, y, self.h)):
            raise ValueError("start point and step size must be finite")
        if x * x + y * y >= 1.0:
            raise ValueError("start point must lie in the open unit disk")
        if not self.h > 0:
            raise ValueError("step size must be positive")
        if self.h < MIN_STEP:
            raise ValueError(
                f"step size must be at least {MIN_STEP:.3g}, so that the "
                f"per-path budget of {_MAX_BLOCKS_PER_PATH * BLOCK} steps "
                f"reaches simulated time {EXIT_HORIZON:g}")
        if self.h > MAX_STEP:
            raise ValueError(f"step size must be at most {MAX_STEP:g}")
        if not 1 <= self.level <= 6:
            raise ValueError("signature level must be in 1..6")
        if self.paths < 2:
            raise ValueError("need at least two paths: one sample has no "
                             "standard error")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")


def _path_generator(seed: int, path_index: int) -> np.random.Generator:
    key = np.array([seed, path_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _radius(p):
    """Euclidean norm over the last axis (size 2), bit for bit the value
    np.linalg.norm(p, axis=-1) returns, without its dispatch cost."""
    x, y = p[..., 0], p[..., 1]
    return np.sqrt(x * x + y * y)


def _advance_block(pos, normals, uniforms, h: float, bridge: bool):
    """One block of steps for a batch of paths sharing nothing.

    pos: (A, 2) current positions (inside the disk); uniforms: draws of
    Generator.random(), multiples of 2^-53, which the bridge test relies
    on.  Neither input array is written.  Returns
    (increments (A, B, 2) with exit adjustment applied, exit_step (A,)
    int with -1 for survivors, end_pos (A, 2): on-circle for exited
    paths, last trajectory point for survivors).
    """
    b_count = uniforms.shape[1]
    inc = normals * math.sqrt(h)
    traj = np.cumsum(inc, axis=1)
    traj += pos[:, None, :]
    rad = _radius(traj)
    exit_mask = rad >= 1.0
    if bridge:
        d_curr = 1.0 - rad
        d_prev = np.empty_like(d_curr)
        d_prev[:, 0] = 1.0 - _radius(pos)
        d_prev[:, 1:] = d_curr[:, :-1]
        # uniforms are multiples of 2^-53 > exp(-40), so a step with
        # log p <= -40 exits by the bridge only on a uniform of exactly 0;
        # the steps tested are inside, where exit_mask is still False
        log_p = -2.0 * d_prev * d_curr / h
        test = ((d_prev > 0.0) & (d_curr > 0.0)
                & ((log_p > -40.0) | (uniforms == 0.0)))
        exit_mask[test] = uniforms[test] < np.exp(log_p[test])
    has_exit = exit_mask.any(axis=1)
    k = exit_mask.argmax(axis=1)
    exit_step = np.where(has_exit, k, -1)
    end_pos = traj[:, -1].copy()
    rows = np.nonzero(has_exit)[0]
    if rows.size:
        kk = k[rows]
        pk = traj[rows, kk]
        nrm = np.maximum(_radius(pk), 1e-300)
        proj = pk / nrm[:, None]
        prev = np.where((kk > 0)[:, None], traj[rows, np.maximum(kk - 1, 0)],
                        pos[rows])
        inc[rows, kk] = proj - prev
        tail = np.arange(b_count)[None, :] > kk[:, None]
        inc[rows] = np.where(tail[:, :, None], 0.0, inc[rows])
        end_pos[rows] = proj
    return inc, exit_step, end_pos


def _excl_cumsum(x):
    """Exclusive cumulative sum over the last (step) axis."""
    out = np.empty_like(x)
    out[..., 0] = 0.0
    np.cumsum(x[..., :-1], axis=-1, out=out[..., 1:])
    return out


def _kron(x, y):
    """Per-row, per-step kron of x (i, A, B) and y (j, A, B): (i*j, A, B)."""
    return (x[:, None] * y[None, :]).reshape(-1, *x.shape[1:])


def _block_signature(inc, level: int) -> list:
    """Signature levels 1..level of each row of inc (A, B, 2), as (A, 2^n).

    Appending a chord with increment D sends level n to
        sum_{m=0..n} S_{n-m} (x) D^(x)m / m!,
    so step b contributes e_n[b] = sum_{m=1..n} P_{n-m}[b] (x) D_b^(x)m / m!,
    with P_j the exclusive prefix signature (P_0 = 1).  Below the top
    level N, e_n is built per step only to feed P_n, an exclusive
    cumulative sum, and its step total.  The top level is a contraction
    over the step axis and is never built per step:
        S_N = (P_{N-1} + D^(x)(N-1)/N!)^T D + sum_{m=2..N-1} P_{N-m}^T D^(x)m/m!,
    one batched matmul (A, 2^j, B) @ (A, B, 2^m) per term, whose result
    reshaped is already in kron order.  Per-step tensors are held
    component-major, (2^n, A, B), so each kron is a broadcast product of
    whole contiguous (A, B) planes.  All-zero padding steps contribute
    nothing.
    """
    a_count = inc.shape[0]
    if level == 1:
        return [inc.sum(axis=1)]
    d = np.ascontiguousarray(inc.transpose(2, 0, 1))
    powers = [d]  # D^(x)m / m! per step, m = 1 .. level - 1
    for m in range(2, level):
        powers.append(_kron(powers[-1], d) / m)
    prefixes = [None]  # exclusive prefix signatures P_1 .. P_{N-1}
    totals = []
    for n in range(1, level):
        e_n = powers[n - 1].copy()
        for m in range(1, n):
            e_n += _kron(prefixes[n - m], powers[m - 1])
        p_n = _excl_cumsum(e_n)
        totals.append((p_n[..., -1] + e_n[..., -1]).T)
        prefixes.append(p_n)
    left = prefixes[level - 1] + powers[level - 2] / level
    top = np.matmul(left.transpose(1, 0, 2), inc).reshape(a_count, -1)
    for m in range(2, level):
        term = np.matmul(prefixes[level - m].transpose(1, 0, 2),
                         powers[m - 1].transpose(1, 2, 0))
        top += term.reshape(a_count, -1)
    totals.append(top)
    return totals


def _chen_combine(s_levels: list, t_levels: list) -> list:
    """Levelwise tensor-series product with implicit level-0 scalars 1."""
    n_levels = len(s_levels)
    out = []
    for n in range(1, n_levels + 1):
        acc = s_levels[n - 1] + t_levels[n - 1]
        for i in range(1, n):
            a = s_levels[i - 1]
            b = t_levels[n - i - 1]
            acc = acc + np.einsum("pa,pb->pab", a, b).reshape(a.shape[0], -1)
        out.append(acc)
    return out


class SigAccumulator:
    """Welford-style running moments of signature levels, and exact sums
    of exit step counts.

    Numerically stable component-wise mean and sum of squared deviations
    per level, updated in batches and merged associatively; level 0 of a
    signature is identically 1 and is reported, not accumulated.  An exit
    time is a whole number of steps, so the step counts' sum and sum of
    squares are integers, turned into times only by exit_time.
    """

    def __init__(self, level: int):
        self.level = level
        self.count = 0
        self.mean = [np.zeros(2 ** n) for n in range(1, level + 1)]
        self.m2 = [np.zeros(2 ** n) for n in range(1, level + 1)]
        self.steps = 0  # sum of the exit step counts
        self.steps_sq = 0  # sum of their squares

    @staticmethod
    def _combine(count_a, mean_a, m2_a, count_b, mean_b, m2_b):
        total = count_a + count_b
        delta = mean_b - mean_a
        mean = mean_a + delta * (count_b / total)
        m2 = m2_a + m2_b + delta * delta * (count_a * count_b / total)
        return mean, m2

    def update(self, sig_levels: list, steps) -> None:
        steps = np.asarray(steps, dtype=np.int64).tolist()  # Python ints
        b = len(steps)
        if b == 0:
            return
        for n in range(self.level):
            batch = sig_levels[n]
            bm = batch.mean(axis=0)
            bm2 = ((batch - bm) ** 2).sum(axis=0)
            self.mean[n], self.m2[n] = self._combine(
                self.count, self.mean[n], self.m2[n], b, bm, bm2)
        self.steps += sum(steps)
        self.steps_sq += sum(s * s for s in steps)
        self.count += b

    def merge(self, other: "SigAccumulator") -> "SigAccumulator":
        if other.level != self.level:
            raise ValueError("level mismatch")
        if other.count == 0:
            return self
        if self.count == 0:
            return other
        out = SigAccumulator(self.level)
        out.count = self.count + other.count
        for n in range(self.level):
            out.mean[n], out.m2[n] = self._combine(
                self.count, self.mean[n], self.m2[n],
                other.count, other.mean[n], other.m2[n])
        out.steps = self.steps + other.steps
        out.steps_sq = self.steps_sq + other.steps_sq
        return out

    def stderr(self, n: int):
        if self.count < 2:
            return np.full(2 ** n, np.inf)
        return np.sqrt(self.m2[n - 1] / (self.count * (self.count - 1)))

    def exit_time(self, h: float) -> tuple:
        """(mean, standard error) of the exit time, h times the step count.

        The mean is the exact mean rounded once to a float, the standard
        error the square root of the exact variance of the mean, so equal
        exit times give h times their step count and 0.0.
        """
        n, total = self.count, self.steps
        mean = float(Fraction(total, n) * Fraction(h))
        if n < 2:
            return mean, math.inf
        variance = Fraction(n * self.steps_sq - total * total,
                            n * n * (n - 1)) * Fraction(h) ** 2
        return mean, math.sqrt(variance)


@dataclass(frozen=True)
class EstimateResult:
    config: SimConfig
    count: int
    means: list = field(repr=False)      # levels 0..N, level 0 = [1.0]
    stderrs: list = field(repr=False)
    exit_time_mean: float
    exit_time_stderr: float
    workers: int = 1  # processes the first, largest cohort ran on


def _worker_count(paths: int) -> int:
    """Slices to cut a cohort of `paths` into: one per usable CPU, with at
    least _MIN_SLICE paths each; 1 where the process cannot fork safely."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):  # a fork copies no other thread
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), paths // _MIN_SLICE))


@cache
def _retain_freed_memory() -> None:
    """Fix glibc's malloc thresholds for the calling process, once.

    With glibc's defaults, a freed block over the mmap threshold (128 KiB
    at start) or a heap top over the trim threshold goes back to the
    system, so each row tile faulted its temporaries (up to 2 *
    _TILE_BYTES) in afresh: 370000 faults for a 4096-path level-2 slice,
    a third of its time.  The fixed thresholds keep freed memory for the
    next tile (the peak moves by about 1 MB); forked workers inherit
    them.  Skipped off Linux and where the C library has no mallopt.
    """
    if sys.platform.startswith("linux"):
        import ctypes  # here: at module level it would add 2 ms to every start
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
        if mallopt is not None:
            mallopt(-3, _MMAP_THRESHOLD)  # M_MMAP_THRESHOLD in glibc's malloc.h
            mallopt(-1, _TRIM_THRESHOLD)  # M_TRIM_THRESHOLD


def _tile_rows(level: int) -> int:
    """Rows per tile at `level`: about _TILE_BYTES per step tensor of the
    widest prefix level, 2^(level - 1) components by BLOCK steps."""
    return max(8, _TILE_BYTES // (8 * BLOCK * 2 ** (level - 1)))


def _run_slice(config: SimConfig, index_lo: int, index_hi: int,
               parent_pid=None) -> tuple:
    """Simulate paths index_lo .. index_hi - 1, holding only live paths.

    Returns (exit step count, signature levels at exit), each per path in
    path order.  Every live path has run the same number of blocks, so the
    block index gives each step count; exited paths leave the live rows
    after each block.  Each block runs over the live rows in tiles of
    _tile_rows(level), in row order, so the per-step tensors of only one
    tile exist at a time.  A forked worker passes its
    parent's pid and ends at the next block once that parent is gone.
    """
    p_count = index_hi - index_lo
    tile = _tile_rows(config.level)
    gens = [_path_generator(config.seed, i) for i in range(index_lo, index_hi)]
    pos = np.tile(np.asarray(config.start, dtype=np.float64), (p_count, 1))
    # a row's signature stops changing when its path exits: at exit it is
    # the signature returned
    sig = [np.zeros((p_count, 2 ** n)) for n in range(1, config.level + 1)]
    rows = np.arange(p_count)  # slice position of each live path
    steps = np.empty(p_count, dtype=np.int64)
    normals = np.empty((min(tile, p_count), BLOCK, 2))
    uniforms = np.empty((min(tile, p_count), BLOCK))
    block = 0
    while gens:
        if block == _MAX_BLOCKS_PER_PATH:
            raise RuntimeError("path failed to exit within the block budget")
        if parent_pid is not None and os.getppid() != parent_pid:
            os._exit(1)
        exit_step = np.empty(len(gens), dtype=np.int64)
        for lo in range(0, len(gens), tile):
            hi = min(lo + tile, len(gens))
            nrm, uni = normals[:hi - lo], uniforms[:hi - lo]
            for gen, n_row, u_row in zip(gens[lo:hi], nrm, uni):
                gen.standard_normal(out=n_row)
                gen.random(out=u_row)
            inc, exit_step[lo:hi], pos[lo:hi] = _advance_block(
                pos[lo:hi], nrm, uni, config.h, config.bridge_correction)
            here = rows[lo:hi]
            combined = _chen_combine([s[here] for s in sig],
                                     _block_signature(inc, config.level))
            for s, c in zip(sig, combined):
                s[here] = c
        exited = exit_step >= 0
        if exited.any():
            steps[rows[exited]] = block * BLOCK + exit_step[exited] + 1
            live = ~exited
            gens = [gen for gen, keep in zip(gens, live) if keep]
            rows = rows[live]
            pos = pos[live]
        block += 1
    return steps, sig


def _fork_slice(config: SimConfig, index_lo: int, index_hi: int,
                inherited: list) -> tuple:
    """Run _run_slice in a forked worker; returns (pid, read end of the
    pipe that brings back the pickled (exception, result) pair).

    The worker ends in os._exit: it never returns into its caller,
    flushes no stdio buffer of the parent and runs no atexit handler.
    It first closes `inherited`, the earlier workers' pipes.
    """
    parent_pid = os.getpid()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, os.fdopen(read_fd, "rb")
    status = 1
    try:
        os.close(read_fd)
        for pipe in inherited:
            pipe.close()
        try:
            outcome = (None, _run_slice(config, index_lo, index_hi, parent_pid))
        except Exception as exc:  # re-raised in the parent
            outcome = (exc, None)
        with os.fdopen(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL))
        status = 0
    finally:
        os._exit(status)


def _fold(level: int, slices: list) -> SigAccumulator:
    """Accumulate the slices, in path order, in the batches of one serial
    pass: one update per exit block, in block order, rows in path order.
    A path of s steps exits in block (s - 1) // BLOCK."""
    steps = np.concatenate([s[0] for s in slices])
    at_exit = [np.concatenate(levels) for levels in zip(*(s[1] for s in slices))]
    exit_block = (steps - 1) // BLOCK
    order = np.argsort(exit_block, kind="stable")
    _, starts = np.unique(exit_block[order], return_index=True)
    acc = SigAccumulator(level)
    for batch in np.split(order, starts[1:]):
        acc.update([s[batch] for s in at_exit], steps[batch])
    return acc


def _run_cohort(config: SimConfig, index_lo: int, index_hi: int) -> tuple:
    """(accumulator of paths index_lo .. index_hi - 1, slice count): the
    paths run over _worker_count slices.

    The first slice runs here, the others in forked workers, collected in
    path order.  If anything ends this early, every worker not yet
    collected is killed and reaped.
    """
    k = _worker_count(index_hi - index_lo)
    bounds = [index_lo + (index_hi - index_lo) * j // k for j in range(k + 1)]
    workers = []  # (pid, result pipe) of each worker not yet reaped
    try:
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            workers.append(_fork_slice(config, lo, hi,
                                       [pipe for _, pipe in workers]))
        slices = [_run_slice(config, bounds[0], bounds[1])]
        while workers:
            pid, pipe = workers[0]
            payload = pipe.read()
            pipe.close()
            del workers[0]
            os.waitpid(pid, 0)
            if not payload:
                raise RuntimeError("a Monte Carlo worker ended without a result")
            error, result = pickle.loads(payload)
            if error is not None:
                raise error
            slices.append(result)
    finally:
        for pid, pipe in workers:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    return _fold(config.level, slices), k


def estimate_expected_sig(config: SimConfig) -> EstimateResult:
    """Deterministic vectorized estimate of expected-signature levels; the
    first call fixes glibc's malloc thresholds for the calling process."""
    _retain_freed_memory()
    acc = SigAccumulator(config.level)
    workers = []  # slice count of each cohort
    for lo in range(0, config.paths, COHORT):
        cohort, k = _run_cohort(config, lo, min(lo + COHORT, config.paths))
        acc = acc.merge(cohort)
        workers.append(k)
    means = [np.ones(1)] + [acc.mean[n - 1].copy()
                            for n in range(1, config.level + 1)]
    stderrs = [np.zeros(1)] + [acc.stderr(n)
                               for n in range(1, config.level + 1)]
    exit_mean, exit_stderr = acc.exit_time(config.h)
    return EstimateResult(config=config, count=acc.count, means=means,
                          stderrs=stderrs, exit_time_mean=exit_mean,
                          exit_time_stderr=exit_stderr, workers=workers[0])
