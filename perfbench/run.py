"""Benchmark entry point.

    python3 perfbench/run.py --workload <build|search|sync|all> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  One workload per process: Ray is
started with ``num_cpus=4``, inputs are generated from the seed (cached
under ``.perfbench/inputs``), the workload runs for ``--seconds`` and
checks every output.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  The line before it, prefixed ``report``, carries
the run environment and the workload's named metrics; the full record
is appended to ``.perfbench/results/runs.jsonl``.

``--workload all`` runs every workload in turn, each in its own process,
and prints one summary line per workload.

The workload itself runs in a child process.  This process stays a
"child subreaper", so every process the run starts (the Ray head, its
workers, anything they fork) stays its descendant or is reparented to
it; each of them also carries the run's token in its environment.  When
the child ends, every process still carrying the token is stopped
(SIGTERM, then SIGKILL after a grace period) and waited for, and only
then is the child's output printed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import shutil
import signal
import subprocess
import sys
import time
import uuid

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import harness  # noqa: E402

WORKLOADS = ("build", "search", "sync")
TOKEN_VAR = "PERFBENCH_RUN_TOKEN"  # set in the child; inherited by all it starts
CHILD_TIMEOUT_S = 870  # the first run in a checkout also generates inputs
STOP_GRACE_S = 5.0  # SIGTERM to SIGKILL
PR_SET_PDEATHSIG = 1
PR_SET_CHILD_SUBREAPER = 36


def _spec() -> dict:
    with open(os.path.join(harness.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    spec = _spec()
    if harness.ROOT not in sys.path:
        sys.path.insert(0, harness.ROOT)
    import lighthouse_ray  # noqa: F401 - fail before starting anything

    from tracing import Tracer

    mod = __import__(f"wl_{workload}")
    res = harness.Result(workload, seed, trace)
    tracer = Tracer() if trace else None
    # the program's exchange spills go under the checkout, one dir per run
    xchg = harness.workdir("scratch", f"xchg-{os.getpid()}")
    os.environ["LIGHTHOUSE_RAY_XCHG_ROOT"] = xchg
    # workloads whose only set-up is starting Ray start it several times
    ray_init_s, ray_dirs = harness.start_ray(getattr(mod, "RAY_STARTS", 1))
    try:
        env = harness.environment(seed, harness.calibrate())
        mod.run(res, seed, seconds, tracer, ray_init_s)
    finally:
        harness.stop_ray(ray_dirs)
        shutil.rmtree(xchg, ignore_errors=True)

    named = {k: v for k, v in res.report.items() if not isinstance(v, (dict, list))}
    named["failed_frac"] = res.failed / max(res.attempted, 1)
    if trace:
        res.layers["host.calibration_tasks_per_s"] = (env["calibration_tasks_per_s"], "1/s")
        res.layers["trace.overhead_pct"] = (100 * (tracer.overhead or 0.0), "%")
        res.report["e2e_while_traced"] = res.metrics
        res.report["trace_totals"] = tracer.totals()
        spans = os.path.join(harness.workdir("results"), f"spans-{workload}-{seed}.json")
        tracer.dump(spans)
        res.report["spans_file"] = os.path.relpath(spans, harness.ROOT)
        # layers a workload does not exercise did no work: 0
        res.metrics = {}
        for m in spec["per_layer"]:
            value, _unit = res.layers.get(m["name"], (0.0, m["unit"]))
            res.metric(m["name"], value, m["unit"])
    else:
        want = [m["name"] for m in spec["end_to_end"]]
        missing = [m for m in want if m not in res.metrics]
        if missing:
            raise RuntimeError(f"workload {workload} did not measure {missing}")
    res.save(env)
    print("report " + json.dumps({"workload": workload, "env": env, "named": named,
                                  "failures": res.failures}, default=str))
    print(json.dumps(res.line()))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload from one seed, each in a fresh process."""
    rc = 0
    for w in WORKLOADS:
        t0 = time.perf_counter()
        p = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", w,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900,
        )
        lines = p.stdout.strip().splitlines()
        if p.returncode != 0 or len(lines) < 2:
            sys.stderr.write(p.stderr[-4000:])
            print(f"{w}: FAILED (exit {p.returncode})")
            rc = 1
            continue
        report = json.loads(lines[-2][len("report "):])
        final = json.loads(lines[-1])
        named = ", ".join(f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in report["named"].items())
        metrics = ", ".join(f"{k}={v['value']:.4g} {v['unit']}" for k, v in final["metrics"].items()
                            if not trace or v["value"])
        print(f"{w} [{time.perf_counter() - t0:.0f}s wall, {final['failed']}/{final['attempted']} failed]")
        print(f"  named: {named}")
        print(f"  metrics: {metrics}")
    return rc


# -- process supervision -----------------------------------------------------


def _prctl(option: int, value: int) -> None:
    libc = ctypes.CDLL(None, use_errno=True)
    libc.prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    libc.prctl.restype = ctypes.c_int
    if libc.prctl(option, value, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), f"prctl({option}, {value})")


def _die_with_parent() -> None:
    """In the child: if the supervising process is killed, so is the run
    (and with it the Ray head, which shares its fate)."""
    _prctl(PR_SET_PDEATHSIG, signal.SIGKILL)


def _run_processes(token: str) -> list[int]:
    """Live processes that carry ``token`` or whose parent is this one."""
    me = os.getpid()
    tag = f"{TOKEN_VAR}={token}".encode()
    pids = []
    for name in os.listdir("/proc"):
        if not name.isdigit() or int(name) == me:
            continue
        try:
            with open(f"/proc/{name}/stat", "rb") as f:
                fields = f.read().rsplit(b")", 1)[1].split()
            with open(f"/proc/{name}/environ", "rb") as f:
                env = f.read().split(b"\0")
        except OSError:  # ended meanwhile, or not ours to read
            continue
        state, ppid = fields[0], int(fields[1])
        if state != b"Z" and (ppid == me or tag in env):
            pids.append(int(name))
    return pids


def _reap_children() -> bool:
    """Reap every child that has ended; False once there are none left."""
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return False
        if pid == 0:
            return True


def _stop_all(token: str) -> int:
    """Stop every process the run started and wait until each has ended.
    Returns how many were still running when called."""
    first = None
    deadline = time.monotonic() + STOP_GRACE_S
    while True:
        pids = _run_processes(token)
        if first is None:
            first = len(pids)
        if not _reap_children() and not pids:
            return first
        sig = signal.SIGTERM if time.monotonic() < deadline else signal.SIGKILL
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        time.sleep(0.05)


def _on_signal(signum, _frame):
    raise SystemExit(128 + signum)


def supervise(argv: list[str]) -> int:
    """Run this script with ``argv`` in a child; stop everything it started;
    then print its output.  The child's exit code is returned."""
    # orphaned descendants are reparented to this process, not to init,
    # so it can wait for every one of them
    _prctl(PR_SET_CHILD_SUBREAPER, 1)
    token = uuid.uuid4().hex
    out_path = os.path.join(harness.workdir("results"), f"stdout-{token}.txt")
    for s in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(s, _on_signal)
    rc = 1
    child = None
    try:
        with open(out_path, "w") as out:
            child = subprocess.Popen([sys.executable, os.path.abspath(__file__), *argv],
                                     stdout=out, env={**os.environ, TOKEN_VAR: token},
                                     preexec_fn=_die_with_parent)
            try:
                rc = child.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                sys.stderr.write(f"run exceeded {CHILD_TIMEOUT_S} s; stopped\n")
    finally:
        for s in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
            signal.signal(s, signal.SIG_IGN)
        left = _stop_all(token)
        if child is not None and child.returncode is None:
            child.returncode = -1  # reaped by _stop_all
        with open(out_path) as f:
            output = f.read()
        os.unlink(out_path)
    if left:
        sys.stderr.write(f"stopped {left} process(es) left running by the run\n")
    (sys.stdout if rc == 0 else sys.stderr).write(output)
    sys.stdout.flush()
    return rc


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    if a.workload == "all":
        return run_all(a.seed, a.seconds, bool(a.trace))
    if TOKEN_VAR not in os.environ:
        return supervise(sys.argv[1:] if argv is None else list(argv))
    return run_one(a.workload, a.seed, a.seconds, bool(a.trace))


if __name__ == "__main__":
    sys.exit(main())
