"""Command-line front end for batch verification and exploration.

Every printed line is deterministic: generators are ordered by (i, j),
edges by (level, sheet), checks by generator index.  Exit status is 0 on
success (all checks passed), 1 on a verification failure or resource
exhaustion, 2 on a usage error.  Each subcommand is declared once, in
`_COMMANDS`, and each option's `add_argument` keywords once, in `_OPTIONS`;
one helper (`_add_options`) gives a command's parser its options.  `main`
reads an argv that names a command with that command's parser alone, and
any other argv, or one with arguments left over, with the parser of every
subcommand (`_build_parser`), then runs the chosen subcommand's action.
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
    named by the one-code row (c,), which spells generator or edge c.  The
    image goes to `print` as its own argument, so a long image is not
    copied into a second string."""
    for code, row in enumerate(f.table, start=1):
        name, text = f._view((code,)), f._view(row)
        if mode == "structured":
            print(f"{key}={name} image=", text, sep="")
        else:
            print(name, "->", text)


def _print_matrix(matrix, mode: str) -> None:
    if mode == "structured":
        for r, row in enumerate(matrix):
            print(f"row={r} entries={','.join(str(x) for x in row)}")
        return
    width = max((len(str(x)) for row in matrix for x in row), default=1)
    for row in matrix:
        print(" ".join(str(x).rjust(width) for x in row))


def _print_report(report: braid.Report, mode: str) -> int:
    """Print every check and return the exit status: 0 iff all passed."""
    for check in report:
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
    failed = sum(1 for c in report if not c.passed)
    if mode != "structured":
        if failed:
            print(f"FAIL: {failed} of {len(report)} checks failed")
        else:
            print(f"ok: {len(report)} checks passed")
    return 1 if failed else 0


# option -> add_argument keywords; every subcommand also takes --output-mode
_OPTIONS = {
    "d": dict(type=int, required=True, help="sheet count, d >= 2"),
    "n": dict(type=int, required=True, help="branch points, n >= 2"),
    "n-max": dict(type=int, required=True, help="largest branch-point count to tabulate"),
    "i": dict(type=int, required=True, help="generator index, 1 <= i <= n-1"),
    "j": dict(type=int, required=True, help="sheet index of the twist loop"),
    "word": dict(required=True, help="braid word as signed indices, e.g. '1 2 -1'"),
    "suite": dict(choices=(*braid.SUITES, "all"), default="all",
                  help="which verification suite to run"),
    "output-mode": dict(choices=("text", "structured"), default="text",
                        help="human text or one machine-readable record per object"),
}

# (name, help, options, action); each action looks its callee up when it runs,
# prints the result in output mode m and may return a nonzero exit status
_COMMANDS = (
    ("surface", "genus, boundary count and rank of one cover", "d n",
     lambda a, m: _print_surface(surface_data(a.d, a.n), m)),
    ("tables", "invariant table for n = 1..n-max", "d n-max",
     lambda a, m: _print_tables(surface_table(a.d, a.n_max), m)),
    ("lift", "edge images of the lifted half twist", "d n i",
     lambda a, m: _print_map(groupoid.lifted_half_twist(a.d, a.n, a.i), "edge", m)),
    ("dehn", "edge images of the twist along the loop with indices (i, j)", "d n i j",
     lambda a, m: _print_map(groupoid.dehn_twist(a.d, a.n, a.i, a.j), "edge", m)),
    ("aut", "generator images of the braid generator action", "d n i",
     lambda a, m: _print_map(braid.half_twist_action(a.d, a.n, a.i), "generator", m)),
    ("eval", "generator images of an evaluated braid word", "d n word",
     lambda a, m: _print_map(braid.evaluate(braid.parse_braid(a.d, a.n, a.word)), "generator", m)),
    ("matrix", "abelianized integer matrix of an evaluated braid word", "d n word",
     lambda a, m: _print_matrix(braid.braid_matrix(braid.parse_braid(a.d, a.n, a.word)), m)),
    ("verify", "run machine verification suites; exit 0 iff all pass", "d n suite",
     lambda a, m: _print_report(braid.run_suite(a.d, a.n, a.suite), m)),
)


def _add_options(parser: argparse.ArgumentParser, options: str, action) -> None:
    """Give one command's parser its options from `_OPTIONS` and its action."""
    for option in (*options.split(), "output-mode"):
        parser.add_argument(f"--{option}", **_OPTIONS[option])
    parser.set_defaults(action=action)


def _build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, each with its options from `_OPTIONS`."""
    parser = argparse.ArgumentParser(
        prog="braidcover",
        description="Braid group actions on free groups from branched covers of a disk.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text, options, action in _COMMANDS:
        _add_options(sub.add_parser(name, help=help_text), options, action)
    return parser


def _command_parser(name: str, options: str, action) -> argparse.ArgumentParser:
    """The parser of one command alone, built as `_build_parser` builds that
    command's subparser: the same prog, options and action."""
    parser = argparse.ArgumentParser(prog=f"braidcover {name}")
    _add_options(parser, options, action)
    return parser


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """argv read by the parser of the command it names alone.

    That parser (`_command_parser`) reads as the full parser's subparser of
    the command: its help, usage and errors are the same, and the other
    commands' parsers are never built.  An argv that names no command, or
    leaves arguments over, is read again by the full parser, which prints
    its top-level help or error.
    """
    for name, _, options, action in _COMMANDS:
        if argv and argv[0] == name:
            args, rest = _command_parser(name, options, action).parse_known_args(argv[1:])
            if not rest:
                return args
            break
    return _build_parser().parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return args.action(args, args.output_mode) or 0
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
