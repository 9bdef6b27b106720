#!/usr/bin/env python3
"""Closed-loop benchmark of braidcover: one client, one op at a time.

    python3 bench/run.py --workload verify-desk --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`.  With `--trace 0` the run times whole passes over the workload's
seeded jobs, each job in a cold worker, until `--seconds` would be
exceeded, and reports the end-to-end metrics.  With `--trace 1` it runs
one untraced and one traced pass and reports the per-layer metrics,
after checking that two traced runs of one job count the same calls.
Every op's output is checked; the last line printed is one JSON object.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from layers import layer_metrics
from worker import run_cold

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
JOB_TIMEOUT_S = 150.0
SETUP_EVERY_S = 1.0
REFERENCE_SHARE = 0.1

# Times `import braidcover` plus input generation in a fresh interpreter.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
import braidcover, braidcover.cli
import workloads
workloads.make_jobs(sys.argv[3], int(sys.argv[4]))
print(time.perf_counter() - t0)
"""


def main(argv=None) -> int:
    # end as on any exit, so that run_cold stops and reaps its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "braidcover" / "__init__.py").is_file():
        print(f"error: no braidcover sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import braidcover
    from braidcover import braid, cli, groupoid, pi1, words

    if Path(braidcover.__file__).resolve().parent != SRC / "braidcover":
        print(f"error: imported braidcover from {braidcover.__file__}", file=sys.stderr)
        return 2
    modules = {"words": words, "groupoid": groupoid, "pi1": pi1, "braid": braid, "cli": cli}
    jobs = workloads.make_jobs(args.workload, args.seed)

    print(f"env python={platform.python_version()} git={_git_sha()} src_sha256={_src_digest()} "
          f"nproc={len(os.sched_getaffinity(0))} seed={args.seed} workload={args.workload} "
          f"trace={args.trace}")
    run = Run(jobs, modules)
    if args.trace:
        metrics = run.traced(args.workload, args.seed)
    else:
        metrics = run.untraced(args.workload, args.seed, args.seconds)
    attempted = run.attempted
    failed = len(run.failures)
    print(f"fail_ratio {failed / max(attempted, 1):.6g} ({failed} of {attempted} ops)")
    for line in run.failures[:20]:
        print(f"FAILED {line}")
    correct = failed == 0 and attempted > 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


class Run:
    """Passes over one workload's jobs, with every op's output checked."""

    def __init__(self, jobs: list, modules: dict) -> None:
        self.jobs = jobs
        self.modules = modules
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}  # eval input -> output digest
        self.peak_kib = 0
        self.started = time.monotonic()

    def run_job(self, job: list, traced: bool = False) -> dict:
        # stay inside the 180 s a run may take, whatever a job does
        timeout = max(1.0, min(JOB_TIMEOUT_S, 170.0 - (time.monotonic() - self.started)))
        result, peak_kib = run_cold(job, self.modules, traced, timeout)
        self.peak_kib = max(self.peak_kib, peak_kib)
        label = _label(job)
        if "error" in result:
            count = len(job[1]) if job[0] == "desk" else 1
            self.attempted += count
            self.failures.append(f"{label}: {result['error'].strip().splitlines()[-1]}")
            result["ops"] = []
            return result
        for op in result["ops"]:
            self.attempted += 1
            if op["error"]:
                self.failures.append(f"{label}: {op['error']}")
        if job[0] == "eval":
            key = json.dumps(job)
            digest = result["ops"][0]["digest"]
            if self.digests.setdefault(key, digest) != digest:
                self.failures.append(f"{label}: output differs from an earlier run of this input")
        return result

    def run_pass(self, traced: bool = False) -> list[dict]:
        return [self.run_job(job, traced) for job in self.jobs]

    def untraced(self, workload: str, seed: int, seconds: float) -> dict:
        # Set-ups and reference loops are spread over the run, between jobs,
        # so that they sample the same slow and fast spells of the host as
        # the ops do.  Each job's ops are divided by the mean of the
        # reference loops just before and just after it.
        setups = [_setup_seconds(workload, seed)]
        before = self.references(0.0)
        references = list(before)
        start = last_setup = time.monotonic()
        passes = []
        while True:
            results = []
            for job in self.jobs:
                results.append(self.run_job(job))
                after = self.references(sum(op["s"] for op in results[-1]["ops"]))
                ref = statistics.mean(before + after)
                for op in results[-1]["ops"]:
                    op["ref"] = op["s"] / ref
                references += after
                before = after
                if time.monotonic() - last_setup >= SETUP_EVERY_S:
                    setups.append(_setup_seconds(workload, seed))
                    last_setup = time.monotonic()
            passes.append(results)
            elapsed = time.monotonic() - start
            if elapsed * (len(passes) + 1) / len(passes) > seconds:
                break
        ops = [op for results in passes for result in results for op in result["ops"]]
        latencies = sorted(op["s"] for op in ops)
        relative = sorted(op["ref"] for op in ops)
        busy = sum(latencies)
        busy_ref = sum(relative)
        work = sum(op["work"] for op in ops)
        setup = statistics.median(setups)
        # Slow spells of the host come in blocks of seconds; a mean over the
        # passes tracks their share smoothly where a median would jump.
        run_s = busy / len(passes)
        p50 = statistics.median(latencies) if latencies else 0.0
        rate = work / busy if busy else 0.0
        metrics = {
            "setup_s": (setup, "s"),
            "run_ref": (busy_ref / len(passes), "ref"),
            "op_p50_ref": (statistics.median(relative) if relative else 0.0, "ref"),
            "work_per_ref": (work / busy_ref if busy_ref else 0.0, "1/ref"),
            "peak_rss_mb": (self.peak_kib / 1024, "MB"),
        }
        rate_name = "letters_per_s" if workload == "eval-long" else "checks_per_s"
        print(f"setup_s       {setup:.6f} s  (median of {len(setups)} set-ups)")
        print(f"reference     {statistics.mean(references):.6f} s  "
              f"(mean of {len(references)} reference loops)")
        print(f"run_s         {run_s:.6f} s  (summed op time per pass, mean of {len(passes)} passes)")
        print(f"op_p50_s      {p50:.6f} s  (n={len(latencies)})")
        if len(latencies) >= 100:
            p90 = statistics.quantiles(latencies, n=10)[-1]
            print(f"op_p90_s      {p90:.6f} s  (n={len(latencies)})")
        print(f"{rate_name:<13} {rate:.1f} 1/s  ({work} over {busy:.3f} s of ops)")
        for name in ("run_ref", "op_p50_ref", "work_per_ref"):
            value, unit = metrics[name]
            print(f"{name:<13} {value:.6g} {unit}")
        print(f"peak_rss_mb   {self.peak_kib / 1024:.3f} MB (max over workers)")
        return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}

    def references(self, covering: float) -> list[float]:
        """Reference loops worth REFERENCE_SHARE of `covering` op seconds
        (at least one), each in a fresh fork like the ops."""
        times: list[float] = []
        while not times or sum(times) < REFERENCE_SHARE * covering:
            result, _ = run_cold(["reference"], self.modules, False, JOB_TIMEOUT_S)
            times.append(result["ops"][0]["s"])
        return times

    def traced(self, workload: str, seed: int) -> dict:
        plain = self.run_pass()
        traced = self.run_pass(traced=True)
        self._self_test(plain, traced)
        plain_s = sum(op["s"] for result in plain for op in result["ops"])
        traced_s = sum(op["s"] for result in traced for op in result["ops"])
        values = _layer_values([r["trace"] for r in traced if "trace" in r])
        values["trace.overhead_ratio"] = traced_s / plain_s if plain_s else 0.0
        print(f"trace overhead {values['trace.overhead_ratio']:.3f} "
              f"({traced_s:.3f} s traced / {plain_s:.3f} s untraced)")
        absent = sorted({key for r in traced for key in r.get("trace", {}).get("absent", [])})
        values["trace.absent_functions"] = len(absent)
        if absent:
            print("absent " + " ".join(absent))
        _print_shares(values)
        _write_spans(workload, seed, traced)
        # a counter that no job produced, e.g. of an absent function, reads 0
        return {name: {"value": values.get(name, 0), "unit": unit}
                for name, unit, _ in layer_metrics()}

    def _self_test(self, plain: list[dict], traced: list[dict]) -> None:
        """Two traced runs of the cheapest job must count the same calls."""
        costs = [sum(op["s"] for op in result["ops"]) for result in plain]
        index = costs.index(min(costs))
        again = self.run_job(self.jobs[index], traced=True)
        calls = [{key: st[0] for key, st in r.get("trace", {}).get("stats", {}).items()}
                 for r in (traced[index], again)]
        if not calls[0] or calls[0] != calls[1]:
            changed = sorted(k for k in calls[0] if calls[0][k] != calls[1].get(k))
            self.failures.append(f"cold-state self-test: call counts differ for {changed}")
        else:
            print(f"cold-state self-test: two runs of job {index} counted the same calls")


def _label(job: list) -> str:
    if job[0] == "desk":
        return "desk sweep"
    if job[0] == "verify":
        return "verify d={} n={} suite={}".format(*job[1:])
    return f"eval d={job[1]} n={job[2]} word={' '.join(map(str, job[3][:4]))} ({len(job[3])} letters)"


def _layer_values(traces: list[dict]) -> dict:
    """Per-layer metric values summed over the traced jobs."""
    stats: dict[str, list] = {}
    cache: dict[str, list] = {}
    root = 0.0
    for trace in traces:
        for key, st in trace["stats"].items():
            total = stats.setdefault(key, [0, 0.0, 0, 0, 0])
            for k, v in enumerate(st):
                total[k] += v
        for key, (hits, misses) in trace["cache"].items():
            total = cache.setdefault(key, [0, 0])
            total[0] += hits
            total[1] += misses
        root += trace["root_self_s"]
    values = {}
    for key, (calls, self_s, out, expanded, unmeasured) in stats.items():
        values[f"{key}.calls"] = calls
        values[f"{key}.self_s"] = self_s
        values[f"{key}.letters_out"] = out
        values[f"{key}.kept_ratio"] = out / expanded if expanded else 0.0
        if unmeasured:
            print(f"unmeasured {key}: {unmeasured} calls returned values of an unknown shape")
    for key, (hits, misses) in cache.items():
        values[f"{key}.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    values["trace.self_total_s"] = root + sum(st[1] for st in stats.values())
    return values


def _print_shares(values: dict) -> None:
    total = values["trace.self_total_s"]
    if not total:
        return
    modules: dict[str, float] = {}
    for name, value in values.items():
        if name.endswith(".self_s"):
            module = name.split(".", 1)[0]
            modules[module] = modules.get(module, 0.0) + value
    print("self-time share " + " ".join(
        f"{m}={v / total:.3f}" for m, v in sorted(modules.items(), key=lambda kv: -kv[1])))
    top = sorted((v, n[:-7]) for n, v in values.items() if n.endswith(".self_s"))[::-1][:6]
    print("top self time " + " ".join(f"{n}={v / total:.3f}" for v, n in top))


def _write_spans(workload: str, seed: int, traced: list[dict]) -> None:
    """Keep the coarse spans of the traced pass for later reading."""
    out = ROOT / ".bench_out" / f"spans-{workload}-seed{seed}.json"
    out.parent.mkdir(exist_ok=True)
    spans = [{"job": k, "spans": r.get("trace", {}).get("spans", [])} for k, r in enumerate(traced)]
    out.write_text(json.dumps({"workload": workload, "seed": seed,
                               "fields": ["name", "start_s", "end_s", "parent"], "jobs": spans}))
    print(f"spans {sum(len(j['spans']) for j in spans)} written to {out.relative_to(ROOT)}")


def _setup_seconds(workload: str, seed: int) -> float:
    """Import the package and build the inputs in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH), workload, str(seed)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout.split()[-1])


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    return done.stdout.strip() if done.returncode == 0 else "unavailable"


def _src_digest() -> str:
    """Identifies the measured code where no git metadata is available."""
    h = hashlib.sha256()
    for path in sorted((SRC / "braidcover").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


if __name__ == "__main__":
    sys.exit(main())
