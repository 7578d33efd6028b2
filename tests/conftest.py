import os
import signal
import sys

import pytest

from disksig.exactpoly import ZPoly
from disksig.hierarchy import HierarchyState


@pytest.fixture(scope="session")
def state():
    """Shared hierarchy state; levels are computed once and memoized."""
    return HierarchyState()


def _child_pids() -> set:
    """Pids of this process's child processes, from /proc (Linux)."""
    pids = set()
    for task in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{task}/children") as handle:
                pids.update(int(pid) for pid in handle.read().split())
        except FileNotFoundError:  # the thread ended meanwhile
            pass
    return pids


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process behind, as a benchmark run
    that leaves one fails; the leftovers are killed and reaped."""
    if not (sys.platform.startswith("linux")
            and os.path.exists(f"/proc/self/task/{os.getpid()}/children")):
        yield
        return
    before = _child_pids()
    yield
    left = sorted(_child_pids() - before)
    for pid in left:
        try:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        except (ProcessLookupError, ChildProcessError):  # reaped meanwhile
            pass
    if left:
        pytest.fail(f"child processes left behind: {left}")


@pytest.fixture
def budget_one_in_workers(monkeypatch):
    """Cohorts split into two slices, and only the forked worker's copy of
    the block budget is cut to one block, which a path from the origin
    at h = 1e-3 outlives."""
    import disksig.montecarlo as montecarlo

    parent = os.getpid()
    run_slice = montecarlo._run_slice

    def run_slice_in_worker(config, index_lo, index_hi, *args):
        if os.getpid() != parent:
            montecarlo._MAX_BLOCKS_PER_PATH = 1
        return run_slice(config, index_lo, index_hi, *args)

    monkeypatch.setattr(montecarlo, "_run_slice", run_slice_in_worker)
    monkeypatch.setattr(montecarlo, "_worker_count", lambda paths: 2)


# what each wrong term of a developed component leaves intact, as ZPoly
# terms: z + zbar = 2x is harmonic, so the residual still holds but the
# trace is 2 cos t; (1 - z zbar)(z + zbar) vanishes on the circle, but its
# Laplacian is -8 (z + zbar); both are real, so the level's x, y view is
# still built
_WRONG_TERM = {"boundary_ok": ZPoly({(1, 0, 0): 1, (0, 1, 0): 1}),
               "residual_ok": ZPoly({(1, 0, 0): 1, (0, 1, 0): 1,
                                     (2, 1, 0): -1, (1, 2, 0): -1})}
# the same for a word p_k Q(s) of the reduced tensor level, as a map
# {power of s: rational}: p_k is harmonic, but Q(1) becomes 1; p_k (1 - s)
# has Q(1) = 0, but its Laplacian is -4 (1 + |k|) p_k
_WRONG_WORD_TERM = {"boundary_ok": {0: 1}, "residual_ok": {0: 1, 1: -1}}


@pytest.fixture
def wrong_level(monkeypatch):
    """wrong_level(mode, n, check): every word ("tensor", the reduced
    level) or component ("developed") solved for level n of the `mode`
    hierarchy comes out with a term added that only `check`
    ("residual_ok" or "boundary_ok") can see; every other level of both
    hierarchies is solved as before."""
    import disksig.hierarchy as hierarchy

    def corrupt(mode, level, check):
        if mode == "tensor":
            solve_level = hierarchy.solve_reduced_level

            def wrong_level_solve(rhs):
                got = solve_level(rhs)
                if rhs.n != level:
                    return got
                words = []
                for word in got.words:
                    word = dict(word)
                    for j, c in _WRONG_WORD_TERM[check].items():
                        word[j] = word.get(j, 0) + c * got.den
                    words.append({j: c for j, c in word.items() if c})
                return got._replace(words=words)

            monkeypatch.setattr(hierarchy, "solve_reduced_level", wrong_level_solve)
            return
        building = []  # level of each developed right-hand side built
        real_rhs = hierarchy.developed_rhs

        def rhs(state, n):
            building.append(n)
            return real_rhs(state, n)

        monkeypatch.setattr(hierarchy, "developed_rhs", rhs)
        solve = hierarchy.solve_poisson_zero_bd

        def wrong_solve(f, scale):
            if building[-1] == level:
                return solve(f, scale) + _WRONG_TERM[check]
            return solve(f, scale)

        monkeypatch.setattr(hierarchy, "solve_poisson_zero_bd", wrong_solve)

    return corrupt
