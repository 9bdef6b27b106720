"""The repository's scripts, loaded by path: the benchmark pair record."""

import importlib.util
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
