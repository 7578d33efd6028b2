"""Monte Carlo estimation of expected-signature levels on the disk.

A statistical oracle fully independent of the exact PDE route: simulate
Brownian paths from a start point, stop each at its first exit from the
unit disk, compute truncated path signatures of the piecewise-linear
interpolation by Chen concatenation, and average level by level.

Reproducibility: each path owns a counter-based RNG stream keyed by
(seed, path_index), so estimates do not depend on scheduling or cohort
size; a path is bit-identical whether simulated alone or inside the
vectorized engine, because both consume the stream in the same block
pattern (normals of shape (block, 2), then block uniform deviates) and
run the same array expressions.

Boundary handling: a step landing outside the disk exits at that step;
optionally (bridge_correction) a step staying inside still exits with
the Brownian-bridge probability exp(-2 d_prev d_curr / h) of having
crossed the local tangent line mid-step.  Without the bridge test, the
discretely monitored barrier sits ~0.58 sqrt(h) too far out, which at
the default step size already biases the mean exit time by more than
three standard errors at 1e5 paths; the bridge test removes the
sqrt(h) term, leaving O(h) curvature bias far below noise.  The exit
point is the radial projection of the exit-step position onto the
circle, folded into that step's increment so signatures see a path
ending exactly on the boundary.

Block signatures: each block of BLOCK steps gets its own truncated
signature, folded into the running one by Chen's identity.  Inside a
block, the levels below the top level N are built step by step, as
exclusive prefix sums, because the next level needs them; the top level
is a contraction of those prefixes with the step powers over the step
axis (batched matmuls), so no per-step array of width 2^N is ever made.
Positions and exit decisions never read a signature, so exit steps,
exit times and simulate_stopped_path are fixed bit for bit by (seed,
path_index).  Lower levels are summed in step order; the matmul
reassociates the top-level sums, so the last bits of top-level means
depend on the kernel (signature_of_path stays the reference).

Work is bounded: a path gets at most 2^27 steps, and SimConfig refuses
any h below MIN_STEP, at which that budget would end paths before the
EXIT_HORIZON that no Brownian path outlives in practice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

BLOCK = 256
COHORT = 4096
_MAX_BLOCKS_PER_PATH = 2 ** 19  # per-path step budget: 2^27 steps
# Brownian motion started anywhere in the disk is still inside at time t
# with probability at most about 1.6 exp(-j^2 t / 2), j = 2.405 the first
# zero of J0: about 1e-40 at t = 32.  Every accepted step size lets the
# step budget reach this horizon, so the budget is met only by a fault,
# and no accepted input costs a path more than 2^27 steps.
EXIT_HORIZON = 32.0
MIN_STEP = EXIT_HORIZON / (_MAX_BLOCKS_PER_PATH * BLOCK)  # about 2.4e-7


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one Monte Carlo estimate.

    The step size h must lie in [MIN_STEP, inf): below MIN_STEP the
    per-path step budget would end paths before EXIT_HORIZON, and the
    expected work per path, (1 - |start|^2) / (2h) steps, is unbounded
    as h goes to 0.  At least two paths are needed for a finite
    standard error.
    """

    start: tuple = (0.0, 0.0)
    h: float = 1e-4
    level: int = 2
    paths: int = 100_000
    seed: int = 2026
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

    pos: (A, 2) current positions (inside the disk).  Returns
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
        both_inside = (d_prev > 0.0) & (d_curr > 0.0)
        log_p = np.where(both_inside, -2.0 * d_prev * d_curr / h, -np.inf)
        exit_mask |= uniforms < np.exp(log_p)
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


def simulate_stopped_path(config: SimConfig, path_index: int) -> np.ndarray:
    """Increments of one stopped path, (n_steps, 2); the reference engine.

    Runs the identical block routine as the vectorized estimator with a
    batch of one, so the returned path is bit-identical to the one the
    estimator consumes for this (seed, path_index).
    """
    gen = _path_generator(config.seed, path_index)
    pos = np.array([config.start], dtype=np.float64)
    chunks = []
    for _ in range(_MAX_BLOCKS_PER_PATH):
        normals = np.empty((1, BLOCK, 2))
        uniforms = np.empty((1, BLOCK))
        gen.standard_normal(out=normals[0])
        gen.random(out=uniforms[0])
        inc, exit_step, end_pos = _advance_block(
            pos, normals, uniforms, config.h, config.bridge_correction)
        if exit_step[0] >= 0:
            chunks.append(inc[0, : exit_step[0] + 1])
            return np.concatenate(chunks, axis=0)
        chunks.append(inc[0])
        pos = end_pos
    raise RuntimeError("path failed to exit within the block budget")


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


def tensor_exp(delta, level: int) -> list:
    """Truncated tensor exponential of a single increment, levels 1..N."""
    delta = np.asarray(delta, dtype=np.float64)
    out = [delta]
    term = delta
    for m in range(2, level + 1):
        term = np.kron(term, delta) / m
        out.append(term)
    return out


def signature_of_path(increments, level: int) -> list:
    """Reference signature of a piecewise-linear path, levels 1..level.

    Plain per-chord Chen products; quadratic in path length, used as the
    ground truth against the blockwise engine.
    """
    if level < 1:
        raise ValueError("level must be at least 1")
    increments = np.asarray(increments, dtype=np.float64)
    sig = [np.zeros(2 ** n) for n in range(1, level + 1)]
    for delta in increments:
        exp_levels = tensor_exp(delta, level)
        new = []
        for n in range(1, level + 1):
            acc = sig[n - 1] + exp_levels[n - 1]
            for i in range(1, n):
                acc = acc + np.kron(sig[i - 1], exp_levels[n - i - 1])
            new.append(acc)
        sig = new
    return sig


class SigAccumulator:
    """Welford-style running moments of signature levels and exit time.

    Numerically stable component-wise mean and sum of squared deviations
    per level, updated in batches and merged associatively; level 0 of a
    signature is identically 1 and is reported, not accumulated.
    """

    def __init__(self, level: int):
        self.level = level
        self.count = 0
        self.mean = [np.zeros(2 ** n) for n in range(1, level + 1)]
        self.m2 = [np.zeros(2 ** n) for n in range(1, level + 1)]
        self.tau_mean = 0.0
        self.tau_m2 = 0.0

    @staticmethod
    def _combine(count_a, mean_a, m2_a, count_b, mean_b, m2_b):
        total = count_a + count_b
        delta = mean_b - mean_a
        mean = mean_a + delta * (count_b / total)
        m2 = m2_a + m2_b + delta * delta * (count_a * count_b / total)
        return mean, m2

    def update(self, sig_levels: list, taus) -> None:
        taus = np.asarray(taus, dtype=np.float64)
        b = taus.size
        if b == 0:
            return
        for n in range(self.level):
            batch = sig_levels[n]
            bm = batch.mean(axis=0)
            bm2 = ((batch - bm) ** 2).sum(axis=0)
            self.mean[n], self.m2[n] = self._combine(
                self.count, self.mean[n], self.m2[n], b, bm, bm2)
        tm = float(taus.mean())
        tm2 = float(((taus - tm) ** 2).sum())
        self.tau_mean, self.tau_m2 = self._combine(
            self.count, self.tau_mean, self.tau_m2, b, tm, tm2)
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
        out.tau_mean, out.tau_m2 = self._combine(
            self.count, self.tau_mean, self.tau_m2,
            other.count, other.tau_mean, other.tau_m2)
        return out

    def stderr(self, n: int):
        if self.count < 2:
            return np.full(2 ** n, np.inf)
        return np.sqrt(self.m2[n - 1] / (self.count * (self.count - 1)))

    def tau_stderr(self) -> float:
        if self.count < 2:
            return math.inf
        return math.sqrt(self.tau_m2 / (self.count * (self.count - 1)))


@dataclass(frozen=True)
class EstimateResult:
    config: SimConfig
    count: int
    means: list = field(repr=False)      # levels 0..N, level 0 = [1.0]
    stderrs: list = field(repr=False)
    exit_time_mean: float
    exit_time_stderr: float


def _run_cohort(config: SimConfig, index_lo: int, index_hi: int) -> SigAccumulator:
    """Accumulate paths index_lo .. index_hi - 1, holding only live paths.

    Every live path has run the same number of blocks, so the block index
    gives each exit time; exited rows are dropped after each block, in
    path order.
    """
    p_count = index_hi - index_lo
    gens = [_path_generator(config.seed, i) for i in range(index_lo, index_hi)]
    pos = np.tile(np.asarray(config.start, dtype=np.float64), (p_count, 1))
    sig = [np.zeros((p_count, 2 ** n)) for n in range(1, config.level + 1)]
    acc = SigAccumulator(config.level)
    for block in range(_MAX_BLOCKS_PER_PATH):
        normals = np.empty((len(gens), BLOCK, 2))
        uniforms = np.empty((len(gens), BLOCK))
        for gen, nrm, uni in zip(gens, normals, uniforms):
            gen.standard_normal(out=nrm)
            gen.random(out=uni)
        inc, exit_step, pos = _advance_block(
            pos, normals, uniforms, config.h, config.bridge_correction)
        sig = _chen_combine(sig, _block_signature(inc, config.level))
        exited = exit_step >= 0
        if exited.any():
            taus = (block * BLOCK + exit_step[exited] + 1) * config.h
            acc.update([s[exited] for s in sig], taus)
            live = ~exited
            gens = [gen for gen, keep in zip(gens, live) if keep]
            if not gens:
                return acc
            pos = pos[live]
            sig = [s[live] for s in sig]
    raise RuntimeError("path failed to exit within the block budget")


def estimate_expected_sig(config: SimConfig) -> EstimateResult:
    """Deterministic vectorized estimate of expected-signature levels."""
    acc = SigAccumulator(config.level)
    for lo in range(0, config.paths, COHORT):
        hi = min(lo + COHORT, config.paths)
        acc = acc.merge(_run_cohort(config, lo, hi))
    means = [np.ones(1)] + [acc.mean[n - 1].copy()
                            for n in range(1, config.level + 1)]
    stderrs = [np.zeros(1)] + [acc.stderr(n)
                               for n in range(1, config.level + 1)]
    return EstimateResult(config=config, count=acc.count, means=means,
                          stderrs=stderrs, exit_time_mean=acc.tau_mean,
                          exit_time_stderr=acc.tau_stderr())
