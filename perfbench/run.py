"""Benchmark of the `disksig` command line tool.

    python3 perfbench/run.py --workload series|oracle|numeric|all \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`./src`, nothing is installed.  Workloads are defined in `workloads.py`.

--trace 0 runs each invocation the way the README does, as one
`python -m disksig ...` subprocess at a time (a closed loop with one
client), with OMP/OPENBLAS/MKL threads pinned to 1.  One pass over a
workload's invocations is a round; rounds repeat until S seconds have
passed (at least MIN_ROUNDS).  Reported, as medians over rounds:

    setup_s      fresh `python -c "import disksig.cli"` (median of SETUP_REPEATS)
    wall_s       one round: all invocations, one after another
    wall_ref     wall_s divided by the median of reference_seconds(), a fixed
                 pure-Python computation timed before every invocation
    peak_rss_mb  largest max-RSS of any child process
    <key>        each invocation's wall time (or paths/s for `mc`), with n

On a shared 2-vCPU virtual machine the speed of a fixed pure-Python loop
drifts by 20% or more over minutes (21% IQR/median across 30 s windows),
which moves every raw time alike.  wall_ref divides that drift out, so it
is the gated round-time metric in BENCHMARK.json; wall_s and the
per-invocation times are printed and recorded beside it.

--workload all runs the three workloads, each in its own process, and
ends with one line holding every workload's printed metrics.

--trace 1 calls `disksig.cli.main(argv)` in this process with the same
arguments, alternating untraced and traced rounds, and reports the
per-layer metrics of `spans.py` (medians over traced rounds) plus
trace.overhead_s = traced minus untraced round time.

Every output is checked by `checks.py` outside the timed region, and its
sha256 must be identical in every round of the run.  An invocation that
exits non-zero, times out or fails a check counts as failed.

The last line of standard output is one JSON object with keys correct,
attempted, failed and metrics (names and units from BENCHMARK.json).
The full record (environment, generated arguments, digests, every
sample, workload reasons and predictions) goes to
.perfbench-out/results-<workload>-seed<N>-trace<T>.json; spans of traced
runs go beside it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import checks
import workloads

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 7
MIN_ROUNDS = 3
INVOCATION_TIMEOUT_S = 60.0
RUN_DEADLINE_S = 150.0  # no invocation starts or runs past this; the run must end within 180 s


class Run:
    """Samples, digests and failures of one workload run."""

    def __init__(self, workload: str, invocations: list):
        self.workload = workload
        self.invocations = invocations
        self.started = time.perf_counter()
        self.samples = {inv.key: [] for inv in invocations}  # wall seconds per round
        self.digests = {inv.key: {} for inv in invocations}  # round -> sha256
        self.first_output: dict = {}
        self.round_walls: list = []
        self.refs: list = []  # reference_seconds() before each invocation
        self.failures: list = []  # (round, key, reason)
        self.attempted = 0

    def remaining(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.started)

    def out_path(self, inv) -> str:
        return os.path.join(OUT_DIR, self.workload, f"{inv.key}.{inv.out_ext}")

    def fresh_out_path(self, inv) -> str:
        """out_path with any earlier output removed, so a stale file never passes."""
        path = self.out_path(inv)
        for stale in (path, path + ".manifest.json"):
            if os.path.exists(stale):
                os.remove(stale)
        return path

    def record(self, round_no: int, inv, wall: float, error) -> None:
        """Store one invocation's sample and output; error is None on success."""
        self.attempted += 1
        self.samples[inv.key].append(wall)
        if error is None:
            error = self._take_output(round_no, inv)
        if error is not None:
            self.failures.append((round_no, inv.key, error))

    def _take_output(self, round_no: int, inv):
        try:
            data = read_output(self.out_path(inv))
            manifest = json.loads(read_output(self.out_path(inv) + ".manifest.json"))
        except (OSError, ValueError) as exc:
            return f"output unreadable: {exc}"
        digest = hashlib.sha256(data).hexdigest()
        self.digests[inv.key][round_no] = digest
        if manifest.get("output_sha256") != digest:
            return "manifest digest differs from the output"
        first = self.first_output.setdefault(inv.key, data)
        if data != first:
            return "output differs from the first round's"
        return None

    def check_outputs(self) -> None:
        """Independent checks of each kept output, charged to every round
        that wrote the same bytes."""
        checker = checks.Checker()
        for inv in self.invocations:
            data = self.first_output.get(inv.key)
            if data is None:
                continue
            problems = checker.check(inv, data)
            if problems:
                digest = hashlib.sha256(data).hexdigest()
                self.failures.extend(
                    (r, inv.key, "; ".join(problems))
                    for r, d in self.digests[inv.key].items() if d == digest)

    @property
    def failed(self) -> int:
        return len({(r, key) for r, key, _ in self.failures})


def read_output(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("DISKSIG_PREC", None)  # the default precision is part of the workload
    env["PYTHONPATH"] = SRC
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(argv: list, timeout: float) -> tuple:
    """(wall s, error or None) of one subprocess, killed on timeout."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=child_env(), timeout=timeout,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, f"timed out after {timeout:.1f} s"
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return wall, f"exit status {proc.returncode}: {' '.join(tail)}"
    return wall, None


def measure_setup(run: Run) -> tuple:
    """Median seconds of a fresh `import disksig.cli`, and the samples."""
    probe = [sys.executable, "-c",
             "import disksig.cli, os, sys; "
             "sys.exit(not disksig.cli.__file__.startswith(sys.argv[1] + os.sep))", SRC]
    timeout = min(INVOCATION_TIMEOUT_S, run.remaining())
    _, error = run_child(probe, timeout)  # also warms the bytecode cache
    if error is not None:
        raise SystemExit(f"error: disksig does not import from {SRC}: {error}")
    samples = []
    for _ in range(SETUP_REPEATS):
        wall, error = run_child([sys.executable, "-c", "import disksig.cli"], timeout)
        if error is not None:
            raise SystemExit(f"error: import disksig.cli failed: {error}")
        samples.append(wall)
    return statistics.median(samples), samples


def run_rounds(run: Run, seconds: float, one_round, min_rounds: int) -> None:
    """Repeat one_round(round_no) until `seconds` pass, within the deadline."""
    os.makedirs(os.path.join(OUT_DIR, run.workload), exist_ok=True)
    start = time.perf_counter()
    round_no = 0
    while (round_no < min_rounds or time.perf_counter() - start < seconds) \
            and run.remaining() > 0:
        one_round(round_no)
        round_no += 1


def reference_seconds() -> float:
    """Time of a fixed pure-Python computation (rational sums, dict stores,
    integer products), about 50 ms, as a yardstick for the machine's
    current speed."""
    start = time.perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 4000):
        acc += Fraction(1, i)
        table[i & 255] = acc
    total = 0
    for i in range(250_000):
        total += i * i
    return time.perf_counter() - start


def measure_subprocess(run: Run, seconds: float) -> None:
    def one_round(round_no: int) -> None:
        total = 0.0
        for inv in run.invocations:
            timeout = min(INVOCATION_TIMEOUT_S, run.remaining())
            if timeout <= 0:
                break
            argv = [sys.executable, "-m", "disksig", *inv.argv(run.fresh_out_path(inv))]
            run.refs.append(reference_seconds())
            wall, error = run_child(argv, timeout)
            run.record(round_no, inv, wall, error)
            total += wall
        run.round_walls.append(total)

    run_rounds(run, seconds, one_round, MIN_ROUNDS)


class _Timeout(BaseException):
    """Raised by SIGALRM; a BaseException so no handler in the program swallows it."""


def _alarm(signum, frame):
    raise _Timeout()


def run_in_process(argv: list, timeout: float) -> tuple:
    """(wall s, error or None) of disksig.cli.main(argv) in this process."""
    import disksig.cli

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    start = time.perf_counter()
    try:
        status = disksig.cli.main(argv)
        error = None if status == 0 else f"exit status {status}"
    except _Timeout:
        error = f"timed out after {timeout:.1f} s"
    except SystemExit as exc:
        error = f"exit status {exc.code}"
    except Exception as exc:  # a crash is a failed invocation, not a benchmark crash
        error = f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return time.perf_counter() - start, error


def measure_traced(run: Run, seconds: float) -> tuple:
    """In-process rounds: round 0 warms up, then untraced (odd) and traced
    (even) rounds alternate.

    Returns (untraced round walls, traced round walls, one Tracer per
    traced round).
    """
    import spans

    untraced, traced, tracers = [], [], []

    def one_round(round_no: int) -> None:
        tracer = spans.Tracer() if round_no and round_no % 2 == 0 else None
        if tracer is not None:
            tracer.install()
        total = 0.0
        try:
            for inv in run.invocations:
                timeout = min(INVOCATION_TIMEOUT_S, run.remaining())
                if timeout <= 0:
                    break
                wall, error = run_in_process(inv.argv(run.fresh_out_path(inv)), timeout)
                run.record(round_no, inv, wall, error)
                total += wall
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            traced.append(total)
            tracers.append(tracer)
        elif round_no:
            untraced.append(total)

    run_rounds(run, seconds, one_round, 2 * MIN_ROUNDS - 1)  # warm-up + two of each
    return untraced, traced, tracers


# -- reporting ------------------------------------------------------------


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None  # an exported checkout has no history to name
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_sha256() -> str:
    digest = hashlib.sha256()
    package = os.path.join(SRC, "disksig")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            digest.update(name.encode() + b"\0" + read_output(os.path.join(package, name)))
    return digest.hexdigest()


def environment(seed: int) -> dict:
    import mpmath
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "seed": seed,
        "child_env": {var: "1" for var in THREAD_VARS},
    }


def invocation_report(run: Run) -> dict:
    """Median of each invocation's samples (paths/s for Monte Carlo), by key."""
    out = {}
    for inv in run.invocations:
        samples = run.samples[inv.key]
        if not samples:
            continue
        median = statistics.median(samples)
        if inv.paths:
            out[inv.key] = (inv.paths / median, "paths/s", len(samples))
        else:
            out[inv.key] = (median, "s", len(samples))
    return out


def _median(samples: list):
    """Median; a whole-number count stays a whole number."""
    if all(isinstance(v, int) for v in samples):
        return statistics.median_low(samples)
    return statistics.median(samples)


def emit(specs: list, values: dict) -> dict:
    return {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
            for spec in specs}


def run_workload(name: str, seed: int, seconds: float, trace: int, spec: dict,
                 sizes=workloads.FULL) -> dict:
    run = Run(name, workloads.GENERATORS[name](seed, sizes))
    record = {"workload": name, "why": workloads.WHY[name],
              "predictions": workloads.PREDICTIONS, "seconds": seconds,
              "trace": trace, "sizes": vars(sizes),
              "invocations": [{"key": inv.key, "argv": inv.argv(run.out_path(inv))}
                              for inv in run.invocations]}
    if trace:
        untraced, traced, tracers = measure_traced(run, seconds)
        if not tracers:
            raise SystemExit("error: the deadline passed before a traced round started")
        per_round = [t.metrics() for t in tracers]
        values = {key: _median([r[key] for r in per_round]) for key in per_round[0]}
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
        metrics = emit(spec["per_layer"], values)
        report = {k: (m["value"], m["unit"], len(tracers)) for k, m in metrics.items()}
        record.update(untraced_round_s=untraced, traced_round_s=traced,
                      per_layer_rounds=per_round)
        spans_path = os.path.join(OUT_DIR, f"spans-{name}-seed{seed}.json")
        with open(spans_path, "w") as handle:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "rounds": [t.spans for t in tracers]}, handle)
    else:
        setup, setup_samples = measure_setup(run)
        measure_subprocess(run, seconds)
        values = {"setup_s": setup,
                  "wall_s": statistics.median(run.round_walls),
                  "wall_ref": statistics.median(run.round_walls) / statistics.median(run.refs),
                  # largest max-RSS of any child so far (KiB on Linux)
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024}
        metrics = emit(spec["end_to_end"], values)
        report = invocation_report(run)
        report["wall_s"] = (values["wall_s"], "s", len(run.round_walls))
        report["wall_ref"] = (values["wall_ref"], "ratio", len(run.refs))
        report["setup_s"] = (setup, "s", len(setup_samples))
        report["peak_rss_mb"] = (values["peak_rss_mb"], "MB", run.attempted)
        record.update(setup_samples=setup_samples, round_walls=run.round_walls,
                      reference_s=run.refs)
    run.check_outputs()
    report["failed_frac"] = (run.failed / max(run.attempted, 1), "ratio", run.attempted)
    record.update(
        environment=environment(seed),
        samples=run.samples, digests=run.digests,
        identical_digests={k: len(set(d.values())) == 1 for k, d in run.digests.items() if d},
        failures=[{"round": r, "key": k, "reason": why} for r, k, why in run.failures],
        attempted=run.attempted, failed=run.failed, metrics=metrics,
        report={k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in report.items()})
    with open(results_path(name, seed, trace), "w") as handle:
        json.dump(record, handle, indent=1)
    return {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics, "report": report, "failures": run.failures,
            "digests": run.digests}


def results_path(name: str, seed: int, trace: int) -> str:
    return os.path.join(OUT_DIR, f"results-{name}-seed{seed}-trace{trace}.json")


def run_all(args) -> int:
    """Each workload in its own process (so peak RSS and patched state stay
    per workload), then one line with every workload's metrics."""
    totals = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.GENERATORS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if subprocess.run(argv, cwd=ROOT).returncode != 0:
            return 1
        with open(results_path(name, args.seed, args.trace)) as handle:
            record = json.load(handle)
        totals["correct"] = totals["correct"] and record["failed"] == 0
        totals["attempted"] += record["attempted"]
        totals["failed"] += record["failed"]
        totals["metrics"].update({f"{name}.{key}": {"value": m["value"], "unit": m["unit"]}
                                  for key, m in record["report"].items()})
    print(json.dumps(totals))
    return 0


def print_table(name: str, result: dict) -> None:
    for key, (value, unit, n) in result["report"].items():
        print(f"{name:8s} {key:36s} {value:14.6g} {unit}  (n={n})")
    for round_no, key, reason in result["failures"]:
        print(f"{name:8s} FAILED round {round_no} {key}: {reason}")


def import_disksig() -> None:
    sys.path.insert(0, SRC)
    import disksig

    if not disksig.__file__.startswith(SRC + os.sep):
        raise SystemExit(f"error: disksig imported from {disksig.__file__}, not {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.GENERATORS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "disksig", "cli.py")):
        print(f"error: no disksig source under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads in this process
    import_disksig()
    result = run_workload(args.workload, args.seed, args.seconds, args.trace, spec)
    print_table(args.workload, result)
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
