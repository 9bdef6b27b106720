#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, collected into one JSON record.

    python3 scripts/bench_pairs.py --parent ../parent --change ../change \\
        --first-seed 801 --out BENCH_8.json

`--parent` and `--change` are two source checkouts.  Both checkouts'
`src/` are compiled once with `compileall` before the first pair, so every
run on either side reads cached bytecode: `setup_s` times a cold import,
and a checkout without a bytecode cache would read slower than one with
it.  For every workload
in the change's BENCHMARK.json and each of the PAIRS pairs k (ten, the
fewest that can carry a claim), both checkouts run
`bench/run.py --workload W --seed first_seed + k --seconds S --trace 0`,
with S the benchmark's `run_seconds` and the same seed on both sides;
the parent runs first in even pairs and the change in odd ones.  The
record holds, per workload and end-to-end metric, each side's median
with [q1, q3] and the pairs the change won (ties count for neither), the
failed share of ops, each side's environment (Python version, git SHA,
source digest and nproc, which must not change during the runs) and
every run's raw metrics.  Directions of improvement are also read from
the change's BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10


def warm_bytecode(root: Path) -> None:
    """Write the bytecode cache of the checkout's `src/` with this interpreter."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(root / "src")],
                   check=True, capture_output=True)


def run_bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run; its environment line, metrics and failure counts."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=False,
    )
    lines = done.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"no result from {root} {workload} seed {seed}:\n{done.stderr}")
    result = json.loads(lines[-1])
    env = dict(item.split("=", 1) for item in lines[0].split()[1:])
    return {
        "seed": seed,
        "env": {key: env[key] for key in ("python", "git", "src_sha256", "nproc")},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def compare(runs: dict, better: dict) -> dict:
    """Per metric: each side's median [q1, q3] and the pairs the change won."""
    out = {}
    for name, direction in better.items():
        pairs = list(zip(*(
            [run["metrics"][name] for run in runs[side]] for side in SIDES
        )))
        wins = sum((c < p) if direction == "lower" else (c > p) for p, c in pairs)
        out[name] = {
            "better": direction,
            **{side: summary([pair[k] for pair in pairs]) for k, side in enumerate(SIDES)},
            "change_won": f"{wins}/{len(pairs)}",
        }
    for side in SIDES:
        failed = sum(run["failed"] for run in runs[side])
        attempted = sum(run["attempted"] for run in runs[side])
        out.setdefault("fail_ratio", {})[side] = failed / max(attempted, 1)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    declared = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in declared["end_to_end"]}
    seconds = declared["run_seconds"]
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = {"pairs": PAIRS, "seconds": seconds,
              "seeds": [args.first_seed + k for k in range(PAIRS)], "env": {}, "workloads": {}}
    for root in roots.values():
        warm_bytecode(root)
    orders = [SIDES if k % 2 == 0 else SIDES[::-1] for k in range(PAIRS)]
    for workload in (w["name"] for w in declared["workloads"]):
        runs = {side: [] for side in SIDES}
        for seed, order in zip(record["seeds"], orders):
            for side in order:
                runs[side].append(run_bench(roots[side], workload, seed, seconds))
                m = runs[side][-1]["metrics"]
                print(f"{workload} seed={seed} {side:6} run_ref={m['run_ref']:.4g} "
                      f"peak_rss_mb={m['peak_rss_mb']:.1f}", flush=True)
        for side in SIDES:
            envs = [run.pop("env") for run in runs[side]]
            expected = record["env"].setdefault(side, envs[0])
            if any(env != expected for env in envs):
                raise RuntimeError(f"the {side} environment changed during the runs: {envs}")
        record["workloads"][workload] = {
            "first": [order[0] for order in orders],
            "summary": compare(runs, better),
            "runs": runs,
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
