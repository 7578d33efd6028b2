import os
import signal
import sys

import pytest

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
