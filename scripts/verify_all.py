#!/usr/bin/env python3
"""Run every verification sweep at desk scale and print a summary.

This is the batch counterpart of `braidcover verify`: it runs each suite
over its grid in `braid.DESK_GRIDS` (the grids the acceptance suite walks),
times each suite, and exits nonzero if anything fails.
"""

import sys
import time

from braidcover.braid import DESK_GRIDS, run_suite
from braidcover.surface import format_table, table


def main() -> int:
    print("surface invariants, four- and five-sheet covers, n = 1..8\n")
    for d in (4, 5):
        print(f"d = {d}")
        print(format_table(table(d, 8)))
        print()

    failures = []
    for suite, grid in DESK_GRIDS:
        start = time.perf_counter()
        total = 0
        for d, n in grid:
            report = run_suite(d, n, suite)
            total += len(report)
            failures.extend(
                f"d={d} n={n} {check.name}: {check.detail}"
                for check in report
                if not check.passed
            )
        elapsed = time.perf_counter() - start
        print(f"{suite}: {total} checks over {len(grid)} parameter pairs "
              f"in {elapsed:.2f}s")

    if failures:
        print(f"\n{len(failures)} FAILED CHECKS")
        for line in failures:
            print(" ", line)
        return 1
    print("\nall checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
