"""The repository's scripts, loaded by path: the benchmark pair record."""

import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pair_record_counts_wins_by_direction_and_ties_for_neither():
    pairs = _load("bench_pairs")

    def runs(values, failed=0):
        return [{"metrics": {"t": t, "w": w}, "attempted": 10, "failed": failed}
                for t, w in values]

    record = pairs.compare(
        {"parent": runs([(4.0, 1.0), (2.0, 3.0), (3.0, 2.0), (5.0, 5.0)]),
         "change": runs([(3.0, 2.0), (2.0, 3.0), (4.0, 1.0), (1.0, 6.0)], failed=1)},
        {"t": "lower", "w": "higher"},
    )
    assert record["t"]["change_won"] == "2/4"  # the tie in the second pair counts for neither
    assert record["w"]["change_won"] == "2/4"
    assert record["t"]["parent"] == {"median": 3.5, "q1": 2.75, "q3": 4.25}
    assert record["fail_ratio"] == {"parent": 0.0, "change": 0.1}


def test_pair_runs_read_bytecode_compiled_before_the_first_pair(tmp_path, monkeypatch):
    pairs = _load("bench_pairs")
    roots = {}
    for side in pairs.SIDES:
        package = tmp_path / side / "src" / "pkg"
        package.mkdir(parents=True)
        (package / "mod.py").write_text("VALUE = 1\n")
        roots[side] = tmp_path / side
    (roots["change"] / "BENCHMARK.json").write_text(json.dumps({
        "run_seconds": 1, "workloads": [{"name": "w"}],
        "end_to_end": [{"name": "run_ref", "better": "lower"}],
    }))
    cached = [importlib.util.cache_from_source(str(root / "src" / "pkg" / "mod.py"))
              for root in roots.values()]

    def run_bench(root, workload, seed, seconds):
        # every run, the first included, finds both checkouts compiled
        assert all(Path(pyc).is_file() for pyc in cached)
        return {"seed": seed, "env": {}, "attempted": 1, "failed": 0,
                "metrics": {"run_ref": 1.0, "peak_rss_mb": 1.0}}

    monkeypatch.setattr(pairs, "run_bench", run_bench)
    out = tmp_path / "record.json"
    assert pairs.main(["--parent", str(roots["parent"]), "--change", str(roots["change"]),
                       "--first-seed", "1", "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["workloads"]["w"]["runs"]["change"]) == pairs.PAIRS
