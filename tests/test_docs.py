"""The README names only what exists: every backticked Python name resolves."""

import argparse
import functools
import re
import types
from pathlib import Path

import braidcover
from braidcover import braid, cli, errors, groupoid, pi1, surface, words

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = {"braidcover": braidcover, "words": words, "groupoid": groupoid, "pi1": pi1,
           "braid": braid, "surface": surface, "cli": cli, "errors": errors}
# backticked names that are no attribute of the package: a library function,
# the text output mode, the keys of a structured verify record and the token
# prefixes of words and paths
ALLOWED = {"shlex.split", "text", "check", "detail", "x", "e"}
NAME = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _readme_names():
    """Backticked spans that spell a dotted name, a call's `(...)` dropped."""
    for span in re.findall(r"`([^`\n]+)`", README.read_text()):
        name = re.sub(r"\(.*\)$", "", span)
        if NAME.fullmatch(name):
            yield name


def _owners():
    """The package's modules and the public classes defined in them."""
    owners = list(MODULES.values())
    for module in MODULES.values():
        owners += [value for key, value in vars(module).items()
                   if isinstance(value, type) and not key.startswith("_")
                   and value.__module__.startswith("braidcover")]
    return owners


def _subcommands():
    (action,) = (a for a in cli._build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction))
    return set(action.choices)


def _resolves(name, owners):
    head, *rest = name.split(".")
    starts = [MODULES[head]] if head in MODULES else []
    starts += [getattr(owner, head) for owner in owners if hasattr(owner, head)]
    for start in starts:
        try:
            functools.reduce(getattr, rest, start)
        except AttributeError:
            continue
        return True
    return False


def test_every_backticked_python_name_in_the_readme_resolves():
    owners, commands = _owners(), _subcommands()
    names = set(_readme_names())
    assert {"evaluate", "braidcover.words.LETTER_BUDGET", "verify", "images"} <= names
    missing = sorted(name for name in names - ALLOWED - commands
                     if not _resolves(name, owners))
    assert missing == []


def test_the_second_letter_spelling_and_the_aliases_are_gone():
    owners = _owners()
    for name in ("Letter", "GeneratorSymbol", "words.symbols", "Word.letters", "words.word",
                 "braid.braid_word", "groupoid.edge_path", "SelfCheckError", "words.equal",
                 "words.generator", "words.empty_word", "words.matrix_determinant",
                 "pi1.word_to_loop", "SurfaceData.euler_characteristic", "BraidWord.inverse"):
        assert not _resolves(name, owners), name
    # the package re-exports nothing: its only public attributes are its submodules
    public = {key: value for key, value in vars(braidcover).items() if not key.startswith("_")}
    assert all(isinstance(value, types.ModuleType) for value in public.values()), sorted(public)
    assert _resolves("words.SCAN_FROM", owners)
