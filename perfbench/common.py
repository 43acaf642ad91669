"""Shared plumbing: paths, child processes, statistics, host record."""

from __future__ import annotations

import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: everything a run writes lives under this directory of the checkout
OUT_DIR = ".perfbench-out"
#: the benchmark's declaration: run length, workloads, metrics and bounds
SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
#: a run kills what is still running this long after it started, so it
#: always reports within three minutes
RUN_LIMIT_S = 165.0


def spec() -> dict:
    return json.loads(SPEC.read_text())


@dataclass
class Context:
    """One benchmark run: where it works and what it was asked to do."""

    root: Path
    workload: str
    seed: int
    seconds: float
    trace: bool
    work: Path = field(init=False)
    deadline: float = field(init=False)

    def __post_init__(self) -> None:
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.work = self.root / OUT_DIR / "work" / f"{self.workload}-{os.getpid()}"
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)

    def env(self) -> dict:
        """Environment for the program's processes: ``src`` on the path."""
        env = dict(os.environ)
        paths = [str(self.root / "src")]
        if env.get("PYTHONPATH"):
            paths.append(env["PYTHONPATH"])
        env["PYTHONPATH"] = os.pathsep.join(paths)
        # set iteration order follows the hash seed; tie it to the run's
        # seed so one seed replays the same program behaviour
        env["PYTHONHASHSEED"] = str(self.seed % 4294967296)
        return env

    def time_left(self) -> float:
        """Seconds until the run's deadline (at least one)."""
        return max(1.0, self.deadline - time.monotonic())

    def cleanup(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def wait_rusage(proc: subprocess.Popen, timeout: float) -> tuple[int, float]:
    """Reap ``proc``; ``(exit code, peak RSS in MB)``.

    ``wait4`` reports the largest resident set of the child and of every
    descendant it reaped (Linux folds children's ``maxrss`` into the
    parent's), so one call covers a CLI and its job workers.  A child
    still running at ``timeout`` is killed and reported as code -9.
    """
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            code = os.waitstatus_to_exitcode(status)
            proc.returncode = code
            return code, usage.ru_maxrss / 1024.0
        if time.monotonic() > deadline:
            stop(proc)
            return -9, 0.0
        time.sleep(0.005)


def stop(proc: subprocess.Popen) -> None:
    """Kill ``proc`` and its process group, then reap it."""
    if proc.returncode is not None:
        return
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    try:
        proc.wait(timeout=10)
    except (subprocess.TimeoutExpired, ChildProcessError):
        pass


def popen(cmd: list[str], ctx: Context, **kwargs) -> subprocess.Popen:
    """Start a program process in its own group, from the checkout root."""
    return subprocess.Popen(
        cmd, cwd=ctx.root, env=ctx.env(), start_new_session=True, **kwargs
    )


# --------------------------------------------------------------------------
# statistics
# --------------------------------------------------------------------------
def geomean(values) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def median_of(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, p: float) -> float:
    """Nearest-rank percentile of ``values`` (``p`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_ok(values, p: float, beyond: int = 10) -> bool:
    """True when at least ``beyond`` samples lie above the ``p``-th
    percentile, the least a tail percentile is reported from."""
    return len(values) - math.ceil(p / 100.0 * len(values)) >= beyond


# --------------------------------------------------------------------------
# host record (a diagnostic: never used to scale or drop runs)
# --------------------------------------------------------------------------
def host_probe() -> float:
    """Milliseconds for a fixed pure-Python loop (best of three)."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best * 1000.0


def host_info() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def save_run(ctx: Context, record: dict) -> Path:
    """Store one run's raw values so the spread between runs stays
    visible; returns the file written."""
    runs = ctx.root / OUT_DIR / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    kind = "trace" if ctx.trace else "metrics"
    path = runs / f"{ctx.workload}-{kind}-seed{ctx.seed}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True, default=str))
    return path


def note(message: str) -> None:
    """Progress and summary lines go to stderr; stdout ends with the
    result line."""
    print(message, file=sys.stderr, flush=True)
