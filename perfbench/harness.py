"""Shared plumbing for the benchmark workloads.

Everything here runs in the benchmark's own process: starting and
stopping the Ray session, the run environment record, the host
calibration, statistics helpers and resident-memory readings.  The
program under test (``lighthouse_ray``) is imported from the checkout
root, never installed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench")  # caches, scratch indexes, results
NUM_CPUS = 4  # Ray num_cpus for every run, whatever the host has
OBJECT_STORE_BYTES = 768 * 1024**2
# AF_UNIX socket paths are capped at 107 bytes; Ray puts its sockets
# ~62 bytes below its temp dir (session_<date>_<pid>/sockets/plasma_store)
_SOCKET_SUFFIX = 64


def workdir(*parts: str) -> str:
    p = os.path.join(WORK, *parts)
    os.makedirs(p, exist_ok=True)
    return p


def ray_temp_dir() -> str | None:
    """Ray's session dir inside the checkout when its socket paths fit;
    otherwise ``None`` (Ray's default), which the run record notes."""
    d = os.path.join(WORK, "ray")
    return d if len(d) + _SOCKET_SUFFIX <= 107 else None


def start_ray(times: int = 1) -> tuple[float, set[str]]:
    """Start a local Ray session sized to NUM_CPUS, ``times`` times over
    (each start but the last is shut down again).  Returns the median
    start wall and the entries of the Ray temp dir before the first
    start (for stop_ray)."""
    # Ray workers import the program and the benchmark's own modules
    here = os.path.dirname(os.path.abspath(__file__))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, here, os.environ.get("PYTHONPATH", "")) if p
    )
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    import ray

    kw = {}
    before: set[str] = set()
    tmp = ray_temp_dir()
    if tmp:
        os.makedirs(tmp, exist_ok=True)
        before = set(os.listdir(tmp))
        kw["_temp_dir"] = tmp
    walls = []
    for i in range(times):
        if i:
            stop_ray(before)
        t0 = time.perf_counter()
        ray.init(
            address="local", num_cpus=NUM_CPUS, include_dashboard=False,
            logging_level="ERROR", log_to_driver=False,
            object_store_memory=OBJECT_STORE_BYTES, **kw,
        )
        walls.append(time.perf_counter() - t0)
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.print_on_execution_start = False
    return median(walls), before


def stop_ray(before: set[str]) -> None:
    """Shut Ray down and remove the session directory this run created
    (entries of the Ray temp dir not in ``before``)."""
    import ray

    if ray.is_initialized():
        ray.shutdown()
    tmp = ray_temp_dir()
    if tmp and os.path.isdir(tmp):
        for name in set(os.listdir(tmp)) - before:
            p = os.path.join(tmp, name)
            if os.path.islink(p):
                os.unlink(p)
            else:
                shutil.rmtree(p, ignore_errors=True)


# -- environment -------------------------------------------------------------


def _calibration_task(seed: int) -> float:
    """The host calibration kernel: regex camel-split, sha256, numpy sum."""
    import numpy as np

    rng = np.random.RandomState(seed)
    s = "getHTTPResponse snake_case value import return def foo_bar " * 200
    p1 = re.compile(r"([A-Z]+)([A-Z][a-z])")
    p2 = re.compile(r"([a-z0-9])([A-Z])")
    total = 0.0
    for i in range(100):
        x = p2.sub(r"\1 \2", p1.sub(r"\1 \2", s)).lower().split()
        h = hashlib.sha256((" ".join(x[:50]) + str(i)).encode()).digest()
        total += float(rng.rand(20000).sum()) + h[0]
    return total


def calibrate(n_tasks: int = 4 * NUM_CPUS) -> float:
    """Calibration kernel throughput as Ray tasks on NUM_CPUS slots
    (tasks/s).  The first call also spawns the Ray worker processes."""
    import ray

    task = ray.remote(num_cpus=1)(_calibration_task)
    ray.get([task.remote(i) for i in range(NUM_CPUS)])  # spawn + import
    t0 = time.perf_counter()
    ray.get([task.remote(i) for i in range(n_tasks)])
    return n_tasks / (time.perf_counter() - t0)


def git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int, calibration: float) -> dict:
    import numpy
    import pyarrow
    import ray

    return {
        "cpus_available": len(os.sched_getaffinity(0)),
        "ray_num_cpus": NUM_CPUS,
        "omp_num_threads": os.environ.get("OMP_NUM_THREADS"),
        "calibration_tasks_per_s": round(calibration, 2),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "commit": git_commit(),
        "seed": seed,
        "ray_temp_dir": "checkout" if ray_temp_dir() else "ray default",
    }


# -- statistics --------------------------------------------------------------


def median(xs) -> float:
    return float(statistics.median(xs))


def quantile(xs, q: float) -> float:
    """Linear-interpolated quantile, q in [0, 1]."""
    s = sorted(xs)
    if not s:
        raise ValueError("quantile of no samples")
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return float(s[lo] + (s[hi] - s[lo]) * (pos - lo))


def tail_percentile(n: int) -> int:
    """Highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return p
    return 50


def geomean(xs) -> float:
    return float(math.exp(sum(math.log(x) for x in xs) / len(xs)))


# -- memory ------------------------------------------------------------------


def rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise ValueError(f"no VmRSS for pid {pid}")


def dir_bytes(path: str) -> int:
    total = 0
    for d, _dirs, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(d, f))
    return total


class Phases:
    """Wall of each phase of a run, recorded into the run's report."""

    def __init__(self, res):
        self.walls = res.report.setdefault("phase_s", {})
        self.t = time.perf_counter()

    def __call__(self, name: str) -> None:
        now = time.perf_counter()
        self.walls[name] = round(now - self.t, 3)
        self.t = now


# -- result ------------------------------------------------------------------


class Result:
    """Collects one run's outputs: attempts, failures, metrics, report."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.metrics: dict[str, dict] = {}
        self.layers: dict[str, tuple[float, str]] = {}  # traced run only
        self.report: dict = {}

    def check(self, ok: bool, what: str) -> bool:
        """Count one checked output; a failed check is a failed attempt."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def metric(self, name: str, value: float, unit: str) -> None:
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is not finite: {value}")
        self.metrics[name] = {"value": float(value), "unit": unit}

    def line(self) -> dict:
        return {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }

    def save(self, env: dict) -> str:
        """Append the full record to .perfbench/results/runs.jsonl."""
        path = os.path.join(workdir("results"), "runs.jsonl")
        rec = {
            "workload": self.workload, "seed": self.seed, "trace": int(self.trace),
            "time": time.time(), "env": env, **self.line(),
            "failures": self.failures, "report": self.report,
        }
        with open(path, "a") as f:
            f.write(json.dumps(rec, default=str) + "\n")
        return path
