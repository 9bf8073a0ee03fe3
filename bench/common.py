"""Pieces shared by the benchmark's workloads: environment, timing at
the reference speed, child processes, the pass loop and the result line."""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

#: BLAS/OpenMP thread count fixed for the benchmark and every child.
#: With the default threading, process CPU time runs ahead of wall time
#: and timings depend on what else the machine runs.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: A child that has not ended after this long is killed.
CHILD_TIMEOUT_S = 150.0

#: Fresh processes per run whose set-up time is measured; setup_s is
#: their median.
SETUP_REPEATS = 3


def configure_environment(root: str) -> None:
    """Pin BLAS threads and point imports at the checkout's sources.

    Must run before numpy is imported anywhere in this process.
    """
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    src = os.path.join(root, "src")
    os.environ["PYTHONPATH"] = src
    sys.path.insert(0, src)


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so that the speed
    kernel runs on the CPU the timed work runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def arithmetic_kernel() -> None:
    """Interpreter arithmetic on small ints."""
    total = 0
    for i in range(300_000):
        total += i * i


def allocation_kernel() -> None:
    """Build and read back 60,000 small tuples of an int, a float and a
    str.  The garbage collector is off meanwhile, so that the kernel's
    work does not depend on what else the process holds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        rows = [(i, float(i), str(i)) for i in range(60_000)]
        sum(len(row[2]) for row in rows)
    finally:
        if enabled:
            gc.enable()


#: Speed kernels: fixed pure-Python work that runs none of the program's
#: code, each with its time at the reference speed, a fixed constant of
#: the order of its time on this host that sets the scale of the
#: figures.  A workload uses the one closest to the kind of work its
#: timed calls do.
KERNELS = {"arithmetic": (arithmetic_kernel, 0.021), "allocation": (allocation_kernel, 0.015)}
_kernel = KERNELS["arithmetic"]


def use_kernel(name: str) -> None:
    global _kernel
    _kernel = KERNELS[name]


def kernel_s() -> float:
    """Wall time of one run of the speed kernel in use."""
    start = time.perf_counter()
    _kernel[0]()
    return time.perf_counter() - start


def measure(func, *args, **kwargs):
    """(value, wall time, wall time at the reference speed) of a call.

    The host's vCPU speed changes by up to about 1.8x over seconds to
    minutes, with process CPU time equal to wall time, so a wall time
    says as much about the host's speed at that moment as about the
    program.  The speed kernel runs just before and just after the call;
    the wall time times the kernel's reference time over its mean
    measured time is the call's time at the reference speed.
    """
    before = kernel_s()
    start = time.perf_counter()
    value = func(*args, **kwargs)
    wall = time.perf_counter() - start
    after = kernel_s()
    return value, wall, wall * _kernel[1] / (0.5 * (before + after))


@dataclass
class Context:
    """What a workload's run gets from the entry point."""

    seed: int
    seconds: float
    workdir: str
    inputs: str  # directory holding the set-up's inputs
    setup_walls: list[float]  # set-up process walls as measured
    setup_scaled: list[float]  # the same at the reference speed
    tracer: object | None  # a tracer.Tracer in traced runs


class CheckFailed(Exception):
    """A program output disagrees with the benchmark's own computation."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Child:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    maxrss_mb: float


def run_child(argv: list[str], cwd: str | None = None) -> Child:
    """Run one process to its end; wall time is spawn to exit and
    peak RSS is that process's own, read from its rusage."""
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err, cwd=cwd)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:  # interrupted: end the child before leaving
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return Child(proc.returncode, out.decode("utf-8", "replace"), stderr, wall,
                 usage.ru_maxrss / 1024.0)


def python_child(script: str, *args: str) -> list[str]:
    return [sys.executable, os.path.join(BENCH_DIR, script), *args]


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_passes(seconds: float, min_passes: int, one_pass) -> list[dict]:
    """Run whole passes while the next one is expected to end within
    `seconds`, and at least `min_passes`.  A pass returns, per timed
    operation, (wall time, wall time at the reference speed); this
    returns those of every pass."""
    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        passes.append(one_pass(len(passes)))
        elapsed = time.perf_counter() - start
        typical = statistics.median(pass_time(p, 0) for p in passes)
        if len(passes) >= min_passes and elapsed + typical > seconds:
            return passes


def pass_time(times: dict, which: int) -> float:
    """A pass's time: the sum of its operations' walls (which=0) or of
    their times at the reference speed (which=1)."""
    return sum(t[which] for t in times.values())


@dataclass
class Outcome:
    """What one run reports: operation counts, correctness and metrics."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    # traced runs: layer figures per pass, figures taken once per run,
    # and what else the trace file records
    per_pass: list[dict[str, float]] = field(default_factory=list)
    layers: dict[str, float] = field(default_factory=dict)
    trace_extra: dict = field(default_factory=dict)

    def fail_check(self, message: str) -> None:
        self.problems.append(message)
        print(f"check failed: {message}", file=sys.stderr)

    def result_line(self) -> str:
        return json.dumps({
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in self.metrics.items()},
        })


def end_to_end(outcome: Outcome, passes: list[dict], rows: int,
               peak_rss_mb: float, ctx: Context) -> None:
    walls = [pass_time(p, 0) for p in passes]
    scaled = [pass_time(p, 1) for p in passes]
    wall = statistics.median(scaled)
    print(f"pass walls: {[round(w, 3) for w in walls]}, "
          f"at reference speed: {[round(w, 3) for w in scaled]}", file=sys.stderr)
    outcome.metrics.update({
        "wall_s": (wall, "s"),
        "rows_per_s": (rows / wall, "rows/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(ctx.setup_scaled), "s"),
    })
    outcome.trace_extra.update(pass_walls_s=walls, pass_walls_reference_s=scaled,
                               setup_walls_s=ctx.setup_walls,
                               setup_reference_s=ctx.setup_scaled)
