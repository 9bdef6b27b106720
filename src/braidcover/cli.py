"""Command-line front end for batch verification and exploration.

Every printed line is deterministic: generators are ordered by (i, j),
edges by (level, sheet), checks by generator index.  Exit status is 0 on
success (all checks passed), 1 on a verification failure or resource
exhaustion, 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from . import braid, groupoid
from .errors import BudgetExceededError
from .surface import SurfaceData, format_table
from .surface import surface as surface_data
from .surface import table as surface_table


def _surface_record(row: SurfaceData) -> str:
    return f"d={row.d} n={row.n} b={row.boundary} g={row.genus} rank={row.rank}"


def _print_surface(row: SurfaceData, mode: str) -> None:
    if mode == "structured":
        print(_surface_record(row))
    else:
        print(f"b={row.boundary} g={row.genus} rank={row.rank}")


def _print_tables(rows, mode: str) -> None:
    if mode == "structured":
        for row in rows:
            print(_surface_record(row))
    else:
        print(format_table(rows))


def _print_map(f, key: str, mode: str) -> None:
    """One line per table row of an automorphism or functor; row c - 1 is
    named by the one-code row (c,), which spells generator or edge c."""
    for code, row in enumerate(f.table, start=1):
        name, text = f._view((code,)), f._view(row)
        if mode == "structured":
            print(f"{key}={name} image={text}")
        else:
            print(f"{name} -> {text}")


def _print_matrix(matrix, mode: str) -> None:
    if mode == "structured":
        for r, row in enumerate(matrix):
            print(f"row={r} entries={','.join(str(x) for x in row)}")
        return
    width = max((len(str(x)) for row in matrix for x in row), default=1)
    for row in matrix:
        print(" ".join(str(x).rjust(width) for x in row))


def _print_report(report: braid.Report, mode: str) -> None:
    for check in report.checks:
        if mode == "structured":
            # names and details hold spaces and '=', so they print as JSON
            # string literals: each line splits with shlex into key=value
            line = f"check={json.dumps(check.name)} status={'pass' if check.passed else 'fail'}"
            if check.detail:
                line += f" detail={json.dumps(check.detail)}"
            print(line)
        elif check.passed:
            print(f"PASS {check.name}")
        else:
            print(f"FAIL {check.name}: {check.detail}")
    failed = sum(1 for c in report.checks if not c.passed)
    if mode != "structured":
        if failed:
            print(f"FAIL: {failed} of {len(report)} checks failed")
        else:
            print(f"ok: {len(report)} checks passed")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="braidcover",
        description="Braid group actions on free groups from branched covers of a disk.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, *, d=True, n=True, i=False, j=False,
            word=False, n_max=False, suite=False):
        cmd = sub.add_parser(name, help=help_text)
        if d:
            cmd.add_argument("--d", type=int, required=True, help="sheet count, d >= 2")
        if n:
            cmd.add_argument("--n", type=int, required=True, help="branch points, n >= 2")
        if n_max:
            cmd.add_argument("--n-max", type=int, required=True, dest="n_max",
                             help="largest branch-point count to tabulate")
        if i:
            cmd.add_argument("--i", type=int, required=True, help="generator index, 1 <= i <= n-1")
        if j:
            cmd.add_argument("--j", type=int, required=True, help="sheet index of the twist loop")
        if word:
            cmd.add_argument("--word", type=str, required=True,
                             help="braid word as signed indices, e.g. '1 2 -1'")
        if suite:
            cmd.add_argument("--suite", choices=(*braid.SUITES, "all"),
                             default="all", help="which verification suite to run")
        cmd.add_argument("--output-mode", choices=("text", "structured"), default="text",
                         help="human text or one machine-readable record per object")
        return cmd

    add("surface", "genus, boundary count and rank of one cover")
    add("tables", "invariant table for n = 1..n-max", n=False, n_max=True)
    add("lift", "edge images of the lifted half twist", i=True)
    add("dehn", "edge images of the twist along the loop with indices (i, j)", i=True, j=True)
    add("aut", "generator images of the braid generator action", i=True)
    add("eval", "generator images of an evaluated braid word", word=True)
    add("matrix", "abelianized integer matrix of an evaluated braid word", word=True)
    add("verify", "run machine verification suites; exit 0 iff all pass", suite=True)
    return parser


def run(args: argparse.Namespace) -> int:
    mode = args.output_mode
    if args.command == "surface":
        _print_surface(surface_data(args.d, args.n), mode)
    elif args.command == "tables":
        _print_tables(surface_table(args.d, args.n_max), mode)
    elif args.command == "lift":
        _print_map(groupoid.lifted_half_twist(args.d, args.n, args.i), "edge", mode)
    elif args.command == "dehn":
        _print_map(groupoid.dehn_twist(args.d, args.n, args.i, args.j), "edge", mode)
    elif args.command == "aut":
        _print_map(braid.half_twist_action(args.d, args.n, args.i), "generator", mode)
    elif args.command == "eval":
        w = braid.parse_braid(args.d, args.n, args.word)
        _print_map(braid.evaluate(w), "generator", mode)
    elif args.command == "matrix":
        w = braid.parse_braid(args.d, args.n, args.word)
        _print_matrix(braid.braid_matrix(w), mode)
    elif args.command == "verify":
        report = braid.run_suite(args.d, args.n, args.suite)
        _print_report(report, mode)
        return 0 if report.all_passed else 1
    else:
        raise AssertionError(f"unhandled command {args.command}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return run(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
