"""Cold workers: each job runs in a child forked from a parent that has
imported braidcover and computed nothing, so every job starts with empty
lru caches, as every `braidcover` invocation does.  The clock runs inside
the child around each call; fork, output checks and result transfer are
outside it.
"""

from __future__ import annotations

import io
import json
import os
import random
import select
import signal
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

import workloads
from layers import Tracer


def run_cold(job: list, modules: dict, traced: bool, timeout: float) -> tuple[dict, int]:
    """Run one job in a fresh fork; returns (result, peak RSS in KiB).

    A child that crashes, prints garbage or outlives `timeout` seconds
    yields {"error": ...}; the child is always reaped before returning.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        _child(job, modules, traced, write_fd)
    os.close(write_fd)
    chunks = []
    deadline = time.monotonic() + timeout
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([read_fd], [], [], left)[0]:
                os.kill(pid, signal.SIGKILL)
                chunks = [json.dumps({"error": f"job exceeded {timeout:.0f} s"}).encode()]
                break
            chunk = os.read(read_fd, 1 << 20)
            if not chunk:
                break
            chunks.append(chunk)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(read_fd)
        _, status, usage = os.wait4(pid, 0)
    try:
        result = json.loads(b"".join(chunks))
    except ValueError:
        result = {"error": f"worker ended with status {status} and no result"}
    return result, usage.ru_maxrss


def _child(job, modules, traced, write_fd) -> None:
    """Body of the forked child; never returns."""
    code = 1
    try:
        tracer = None
        if traced:
            tracer = Tracer()
            tracer.install(modules)
        try:
            result = {"ops": _run_job(job, modules, tracer)}
        except Exception:  # any failure of the job becomes the parent's report
            result = {"error": traceback.format_exc()}
        if tracer is not None:
            result["trace"] = tracer.report()
        data = json.dumps(result).encode()
        view = memoryview(data)
        while view:
            view = view[os.write(write_fd, view):]
        code = 0
    finally:
        os._exit(code)


def _timed(tracer, label, fn):
    if tracer is not None:
        return tracer.op(label, fn)
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


# Fixed pure-Python work shaped like the package's hot loops: free
# reduction on a list used as a stack, then string formatting.  Its time
# gauges the host's speed at the moment; see README.md.
_REFERENCE_CODES = random.Random(0).choices((-3, -2, -1, 1, 2, 3), k=200_000)


def _reference_loop() -> float:
    t0 = time.perf_counter()
    out: list[int] = []
    for c in _REFERENCE_CODES:
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    "*".join(f"x[{abs(c)},{1 if c > 0 else 2}]" for c in out)
    return time.perf_counter() - t0


def _run_job(job, modules, tracer) -> list[dict]:
    """Run every op of a job; one dict per op with its seconds and checks."""
    if job[0] == "reference":
        return [{"s": _reference_loop()}]
    if job[0] == "desk":
        run_suite = modules["braid"].run_suite
        ops = []
        for suite, d, n in job[1]:
            report, seconds = _timed(tracer, f"run_suite {suite} d={d} n={n}",
                                     lambda: run_suite(d, n, suite))
            error = workloads.check_report(len(report), report.all_passed, suite, n)
            ops.append({"s": seconds, "error": error, "work": len(report)})
        return ops

    main = modules["cli"].main
    argv = workloads.job_argv(job)
    out, err = io.StringIO(), io.StringIO()

    def call():
        with redirect_stdout(out), redirect_stderr(err):
            return main(argv)

    rc, seconds = _timed(tracer, " ".join(argv[:5]), call)
    op = {"s": seconds}
    if job[0] == "verify":
        _, d, n, suite = job
        op["error"] = workloads.check_verify_output(out.getvalue(), rc, n, suite)
        op["work"] = workloads.expected_checks(suite, n)
    else:
        _, d, n, letters, golden = job
        error, total, digest = workloads.check_eval_output(out.getvalue(), rc, d, n, letters, golden)
        op.update(error=error, work=total, digest=digest)
    if op["error"] and err.getvalue():
        op["error"] += f"; stderr: {err.getvalue().strip()[:200]}"
    return [op]
