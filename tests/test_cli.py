"""Exit-status contract and byte-deterministic output of the command line."""

import argparse
import functools
import hashlib
import os
import shlex
import subprocess
import sys

import pytest

from braidcover import braid, cli, groupoid, words
from braidcover.braid import CheckResult, Report, run_suite
from braidcover.errors import BudgetExceededError


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_surface_text_output(capsys):
    code, out, err = run_cli(capsys, "surface", "--d", "4", "--n", "3")
    assert code == 0
    assert out == "b=1 g=3 rank=6\n"
    assert err == ""


def test_surface_structured_output(capsys):
    code, out, _ = run_cli(capsys, "surface", "--d", "4", "--n", "3",
                           "--output-mode", "structured")
    assert code == 0
    assert out == "d=4 n=3 b=1 g=3 rank=6\n"


def test_tables_match_the_published_rows(capsys):
    code, out, _ = run_cli(capsys, "tables", "--d", "4", "--n-max", "8",
                           "--output-mode", "structured")
    assert code == 0
    b_row = [line.split()[2] for line in out.splitlines()]
    g_row = [line.split()[3] for line in out.splitlines()]
    assert b_row == ["b=1", "b=2", "b=1", "b=4", "b=1", "b=2", "b=1", "b=4"]
    assert g_row == ["g=0", "g=1", "g=3", "g=3", "g=6", "g=7", "g=9", "g=9"]


def test_lift_prints_edge_images_in_order(capsys):
    code, out, _ = run_cli(capsys, "lift", "--d", "3", "--n", "2", "--i", "1")
    assert code == 0
    assert out.splitlines() == [
        "e[0,1] -> e[0,1]*e[1,2]",
        "e[0,2] -> e[0,2]*e[1,3]",
        "e[0,3] -> e[0,3]*e[1,1]",
        "e[1,1] -> e[1,2]^-1",
        "e[1,2] -> e[1,3]^-1",
        "e[1,3] -> e[1,1]^-1",
        "e[2,1] -> e[1,1]*e[2,1]",
        "e[2,2] -> e[1,2]*e[2,2]",
        "e[2,3] -> e[1,3]*e[2,3]",
    ]


def test_dehn_prints_the_twist_table(capsys):
    code, out, _ = run_cli(capsys, "dehn", "--d", "3", "--n", "2", "--i", "1",
                           "--j", "2", "--output-mode", "structured")
    assert code == 0
    assert "edge=e[1,1] image=e[1,2]^-1*e[1,1]*e[1,2]^-1" in out.splitlines()


def test_aut_prints_generator_images(capsys):
    code, out, _ = run_cli(capsys, "aut", "--d", "3", "--n", "2", "--i", "1")
    assert code == 0
    assert out.splitlines() == ["x[1,1] -> x[1,2]^-1", "x[1,2] -> x[1,2]*x[1,1]"]


def test_eval_of_a_cancelling_word_prints_the_identity(capsys):
    code, out, _ = run_cli(capsys, "eval", "--d", "3", "--n", "2", "--word", "1 -1")
    assert code == 0
    assert out.splitlines() == ["x[1,1] -> x[1,1]", "x[1,2] -> x[1,2]"]


def test_matrix_output(capsys):
    code, out, _ = run_cli(capsys, "matrix", "--d", "3", "--n", "2", "--word", "1")
    assert code == 0
    assert [line.split() for line in out.splitlines()] == [["0", "-1"], ["1", "1"]]


def test_verify_all_passes_with_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--d", "3", "--n", "4", "--suite", "all")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith("PASS") for line in lines[:-1])
    assert lines[-1].endswith("checks passed")


def _records(out):
    # every structured line must split into key=value fields with shlex
    return [dict(field.split("=", 1) for field in shlex.split(line))
            for line in out.splitlines()]


def test_verify_structured_records(capsys):
    code, out, _ = run_cli(capsys, "verify", "--d", "2", "--n", "3",
                           "--suite", "relations", "--output-mode", "structured")
    assert code == 0
    records = _records(out)
    assert [r["check"] for r in records] == [c.name for c in run_suite(2, 3, "relations")]
    assert all(set(r) == {"check", "status"} and r["status"] == "pass" for r in records)


def test_structured_failure_detail_round_trips(capsys):
    detail = 'x[1,1]: x[1,2]^-1 != x[1,2] "quoted" = \\'
    report = Report((CheckResult("cross_validation i=1 closed/groupoid", False, detail),))
    cli._print_report(report, "structured")
    (record,) = _records(capsys.readouterr().out)
    assert record == {
        "check": "cross_validation i=1 closed/groupoid", "status": "fail", "detail": detail,
    }


def test_output_is_byte_identical_across_runs(capsys):
    first = run_cli(capsys, "verify", "--d", "4", "--n", "3", "--suite", "all")
    second = run_cli(capsys, "verify", "--d", "4", "--n", "3", "--suite", "all")
    assert first == second


def test_range_violation_names_the_parameter(capsys):
    code, out, err = run_cli(capsys, "aut", "--d", "3", "--n", "3", "--i", "7")
    assert code == 2
    assert out == ""
    assert "i" in err and "7" in err


def test_bad_braid_word_is_a_usage_error(capsys):
    code, _, err = run_cli(capsys, "eval", "--d", "3", "--n", "3", "--word", "1 spam")
    assert code == 2
    assert "error:" in err


def test_missing_flags_exit_with_usage_status(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["surface", "--d", "4"])
    assert exc.value.code == 2


def test_unknown_command_exits_with_usage_status(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["spectacle"])
    assert exc.value.code == 2


def test_budget_exhaustion_is_a_runtime_failure(capsys, monkeypatch):
    monkeypatch.setattr(words, "LETTER_BUDGET", 4)
    code, _, err = run_cli(capsys, "eval", "--d", "5", "--n", "5",
                           "--word", "1 2 3 4 1 2 3 4")
    assert code == 1
    assert "budget" in err


def test_a_suite_out_of_reach_exits_one_at_once(capsys):
    code, out, err = run_cli(capsys, "verify", "--d", "2", "--n", "100000", "--suite", "relations")
    assert (code, out) == (1, "")
    assert err == ("error: the relations suite at d=2, n=100000 runs 9999700002 checks, more "
                   "than the letter budget of 1000000\n")


def test_a_refusal_inside_a_suite_names_the_suite(capsys, monkeypatch):
    # the tables are built first, at the full budget, so a budget of 7 (the
    # suite's 6 checks pass the count) is first met by a product's row
    assert run_cli(capsys, "verify", "--d", "3", "--n", "4", "--suite", "relations")[0] == 0
    monkeypatch.setattr(words, "LETTER_BUDGET", 7)
    assert run_cli(capsys, "verify", "--d", "3", "--n", "4", "--suite", "relations") == (
        1, "", "error: running the relations suite at d=3, n=4: "
               "result reached 8 letters, more than the letter budget of 7\n")
    monkeypatch.setattr(words, "LETTER_BUDGET", 8)
    assert run_cli(capsys, "verify", "--d", "3", "--n", "4", "--suite", "relations")[0] == 0


def test_a_refusal_inside_a_suite_names_d_and_n_once(capsys):
    # the dehn tables at d = 1500 pass the letter budget while their rows
    # are built, and that refusal already names (d, n)
    assert run_cli(capsys, "verify", "--d", "1500", "--n", "2", "--suite", "dehn") == (
        1, "", "error: running the dehn suite: the images for d=1500, n=2 reached 1002001 "
               "letters, more than the letter budget of 1000000\n")


def test_word_growth_past_the_budget_exits_one(capsys, monkeypatch):
    # every table at d = n = 3 holds at most (n+1)d = 12 images, so only the
    # growing words can exceed a budget of 12
    monkeypatch.setattr(words, "LETTER_BUDGET", 12)
    code, out, err = run_cli(capsys, "eval", "--d", "3", "--n", "3", "--word", "1 -2 " * 10)
    assert (code, out) == (1, "")
    assert err == ("error: evaluating a braid word of 20 letters at d=3, n=3: "
                   "result reached 15 letters, more than the letter budget of 12\n")
    # rank 4 at d = n = 3: a budget of 16 lets the 16-entry matrix through
    monkeypatch.setattr(words, "LETTER_BUDGET", 16)
    code, out, err = run_cli(capsys, "matrix", "--d", "3", "--n", "3", "--word", "1 -2 " * 10)
    assert (code, out) == (1, "")
    assert err == ("error: evaluating a braid word of 20 letters at d=3, n=3: "
                   "result reached 19 letters, more than the letter budget of 16\n")


def test_refusal_near_the_budget_follows_the_suffix_products(capsys, monkeypatch):
    # Both words are X X^-1, the identity braid, and neither is a proper
    # power.  `evaluate` folds such a word from the right, so the products
    # it builds on the way are the word's suffixes, and whether a word near
    # the budget is refused depends on them; a left fold builds the prefix
    # products and decides each word the other way.
    def left_fold(w):
        actions = (braid.generator_action(w.d, w.n, letter) for letter in w.letters)
        return functools.reduce(words.compose, actions, words.identity_automorphism(w.d, w.n))

    for word, budget, code in (("1 -2 1 -2 2 -1 2 -1", 20, 1),
                               ("1 1 1 -2 -2 -2 2 2 2 -1 -1 -1", 30, 0)):
        monkeypatch.setattr(words, "LETTER_BUDGET", budget)
        got, _, err = run_cli(capsys, "eval", "--d", "3", "--n", "3", "--word", word)
        assert got == code, word
        w = braid.BraidWord(3, 3, tuple(int(t) for t in word.split()))
        if code:
            assert err == (f"error: evaluating a braid word of {len(w)} letters at d=3, n=3: "
                           f"result reached 25 letters, more than the letter budget of {budget}\n")
            left_fold(w)
        else:
            assert err == ""
            with pytest.raises(BudgetExceededError):
                left_fold(w)


def test_refusal_near_the_budget_follows_the_squarings(capsys, monkeypatch):
    # Each word is a proper power (1 2)^k.  `evaluate` folds the root once
    # and halves, so the products it builds on the way are powers of (1 2),
    # and whether a power near the budget is refused depends on them;
    # folding every letter from the right builds the word's suffix products
    # and decides each word the other way.  (1 2)^5 at 13 tells halving,
    # which builds R(5) from R(2) and R(3), from square-and-multiply, which
    # builds it from R(4) and refuses it.
    def suffix_fold(w):
        product = words.identity_automorphism(w.d, w.n)
        for letter in reversed(w.letters):
            product = words.compose(braid.generator_action(w.d, w.n, letter), product)
        return product

    for k, budget, code in ((3, 10, 0), (4, 13, 1), (5, 13, 0)):
        monkeypatch.setattr(words, "LETTER_BUDGET", budget)
        word = " ".join(["1 2"] * k)
        got, _, err = run_cli(capsys, "eval", "--d", "3", "--n", "3", "--word", word)
        assert got == code, word
        w = braid.BraidWord(3, 3, (1, 2) * k)
        if code:
            assert err == (f"error: evaluating a braid word of {2 * k} letters at d=3, n=3: "
                           f"result reached 15 letters, more than the letter budget of {budget}\n")
            suffix_fold(w)
        else:
            assert err == ""
            with pytest.raises(BudgetExceededError):
                suffix_fold(w)


def test_oversized_tables_exit_one_before_allocation(capsys, monkeypatch):
    # at d = 7, n = 9 the edge table holds (n+1)d = 70 images and the
    # generator table (d-1)(n-1) = 48; no other test builds either
    monkeypatch.setattr(words, "LETTER_BUDGET", 47)
    for argv in (
        ("lift", "--i", "1"),
        ("dehn", "--i", "1", "--j", "2"),
        ("aut", "--i", "1"),
        ("eval", "--word", "1 -1"),
        ("verify",),
    ):
        code, out, err = run_cli(capsys, argv[0], "--d", "7", "--n", "9", *argv[1:])
        assert (code, out) == (1, ""), argv
        assert "budget" in err and "d=7, n=9" in err, argv
    monkeypatch.setattr(words, "LETTER_BUDGET", 48)
    # the 48 generator images pass the row count, but hold 109 letters
    code, out, err = run_cli(capsys, "aut", "--d", "7", "--n", "9", "--i", "1")
    assert (code, out) == (1, "")
    assert err == ("error: the images for d=7, n=9 reached 51 letters, more than the letter "
                   "budget of 48\n")
    assert run_cli(capsys, "lift", "--d", "7", "--n", "9", "--i", "1")[0] == 1
    monkeypatch.setattr(words, "LETTER_BUDGET", 70)
    assert run_cli(capsys, "lift", "--d", "7", "--n", "9", "--i", "1")[0] == 0
    monkeypatch.setattr(words, "LETTER_BUDGET", 109)
    assert run_cli(capsys, "aut", "--d", "7", "--n", "9", "--i", "1")[0] == 0


def test_a_wrong_conjugate_table_fails_its_check_and_the_others_still_run(capsys, monkeypatch):
    monkeypatch.setattr(braid, "conjugate_twist_action",
                        lambda d, n, i: words.identity_automorphism(d, n))
    code, out, err = run_cli(capsys, "verify", "--d", "3", "--n", "3", "--suite", "cross")
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[0].startswith("FAIL cross_validation i=1 closed/conjugate: x[1,1]: ")
    assert "PASS cross_validation i=1 closed/groupoid" in lines
    assert lines[-1] == "FAIL: 2 of 4 checks failed"


def test_rows_are_named_without_the_identity_map(capsys, monkeypatch):
    lift, other = groupoid.lifted_half_twist(3, 2, 1), groupoid.dehn_twist(3, 2, 1, 2)
    f, g = braid.half_twist_action(3, 2, 1), braid.evaluate(braid.parse_braid(3, 2, "1 1"))

    def refuse(*args):
        raise AssertionError("identity map built to name a row")

    monkeypatch.setattr(words, "identity_automorphism", refuse)
    monkeypatch.setattr(groupoid, "identity_functor", refuse)
    assert braid._compare("probe", lift, other).detail == (
        "e[0,3]: e[0,3]*e[1,1] != e[0,3]*e[1,2]")
    assert braid._compare("probe", f, g).detail == "x[1,1]: x[1,2]^-1 != x[1,1]^-1*x[1,2]^-1"
    assert run_cli(capsys, "lift", "--d", "3", "--n", "2", "--i", "1")[1].splitlines()[:2] == [
        "e[0,1] -> e[0,1]*e[1,2]", "e[0,2] -> e[0,2]*e[1,3]"]
    assert run_cli(capsys, "aut", "--d", "3", "--n", "2", "--i", "1",
                   "--output-mode", "structured") == (
        0, "generator=x[1,1] image=x[1,2]^-1\ngenerator=x[1,2] image=x[1,2]*x[1,1]\n", "")


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "braidcover.cli", "surface", "--d", "5", "--n", "5"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "b=5 g=6 rank=16\n"


def test_a_cold_import_loads_no_dataclasses_typing_or_json():
    # -S, since a site hook may import typing itself; json waits for a
    # structured verify report
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import braidcover.cli; "
             "print(*sorted({'dataclasses', 'inspect', 'typing', 'json'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", probe, src],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "\n", "")


def test_oversized_matrix_exits_one_before_allocation(capsys, monkeypatch):
    # rank 4 at d = n = 3, so the matrix holds 16 entries
    monkeypatch.setattr(words, "LETTER_BUDGET", 15)
    code, out, err = run_cli(capsys, "matrix", "--d", "3", "--n", "3", "--word", "1")
    assert (code, out) == (1, "")
    assert err == "error: a table of 16 entries for d=3, n=3 exceeds the letter budget of 15\n"
    monkeypatch.setattr(words, "LETTER_BUDGET", 16)
    assert run_cli(capsys, "matrix", "--d", "3", "--n", "3", "--word", "1")[0] == 0


def test_oversized_invariant_table_exits_one_before_allocation(capsys, monkeypatch):
    monkeypatch.setattr(words, "LETTER_BUDGET", 8)
    code, out, err = run_cli(capsys, "tables", "--d", "4", "--n-max", "9")
    assert (code, out) == (1, "")
    assert "a table of 9 entries for d=4, n=9" in err
    monkeypatch.setattr(words, "LETTER_BUDGET", 9)
    code, out, _ = run_cli(capsys, "tables", "--d", "4", "--n-max", "9")
    assert code == 0 and len(out.splitlines()) == 10


def test_index_errors_read_the_same_at_both_levels(capsys):
    for argv in (("aut", "--i", "3"), ("lift", "--i", "3"), ("dehn", "--i", "3", "--j", "1")):
        code, out, err = run_cli(capsys, argv[0], "--d", "3", "--n", "3", *argv[1:])
        assert (code, out, err) == (2, "", "error: index i must be in 1..2, got i=3\n"), argv


@pytest.mark.parametrize("argv", [
    ("surface", "--d", "4", "--n", "3"),
    ("tables", "--d", "5", "--n-max", "8", "--output-mode", "structured"),
    ("lift", "--d", "3", "--n", "3", "--i", "1"),
    ("dehn", "--d", "3", "--n", "3", "--i", "1", "--j", "2"),
    ("aut", "--d", "3", "--n", "4", "--i", "2"),
    ("matrix", "--d", "3", "--n", "4", "--word", "1 -2 3"),
    ("verify", "--d", "3", "--n", "3", "--suite", "lift"),
    # another subcommand's name as an option value
    ("eval", "--d", "3", "--n", "3", "--word", "verify"),
])
def test_the_parser_of_an_argv_reads_it_as_the_parser_with_every_option(argv):
    # the parser of every subcommand reads every argv: the subcommand it
    # names gets each of its own options, and no other subcommand's; the
    # parser of that command alone reads it to the same namespace, which
    # names no command since only the full parser chooses one
    args = vars(cli._build_parser().parse_args(argv))
    assert args.pop("command") == argv[0]
    assert vars(cli._parse(argv)) == args
    assert callable(args.pop("action"))
    (options,) = (options for name, _, options, _ in cli._COMMANDS if name == argv[0])
    given = dict(zip(argv[1::2], argv[2::2]))
    assert args == {
        option.replace("-", "_"): cli._OPTIONS[option].get("type", str)(given[f"--{option}"])
        if f"--{option}" in given else cli._OPTIONS[option]["default"]
        for option in (*options.split(), "output-mode")
    }


@pytest.mark.parametrize("command", cli._COMMANDS, ids=[c[0] for c in cli._COMMANDS])
def test_the_parser_of_one_command_reads_as_its_subparser(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    name, _, options, action = command
    (sub,) = (a for a in cli._build_parser()._actions
              if isinstance(a, argparse._SubParsersAction))
    alone, full = cli._command_parser(name, options, action), sub.choices[name]
    assert alone.format_help() == full.format_help()
    assert alone.format_usage() == full.format_usage()


def test_suite_choices_come_from_the_suite_registry(capsys):
    for suite in (*braid.SUITES, "all"):
        assert run_cli(capsys, "verify", "--d", "2", "--n", "3", "--suite", suite)[0] == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--d", "2", "--n", "3", "--suite", "everything"])
    assert exc.value.code == 2


# sha1 of stdout, pinned before tables were stored as code rows only; a
# change to how maps are stored must not change one printed byte
GOLDEN_STDOUT = [
    (("lift", "--d", "5", "--n", "6", "--i", "3"),
     "32a53242dd96a990d1384c5a15eb7f4ce46f9ad3", "e7847634f2152a83b1ca0eedde9989d317307c37"),
    (("dehn", "--d", "4", "--n", "5", "--i", "2", "--j", "3"),
     "b73814f915a8dde911183cc34b4411d4f25c7609", "241619749456b6bd9b582ab775012f1294b61649"),
    (("aut", "--d", "5", "--n", "4", "--i", "2"),
     "2812c0d3ff972f96461f3c7a768974d35b0cddc5", "c89fc6fe6166be3b6b6d3e2604a339b5e627650d"),
    (("eval", "--d", "3", "--n", "3", "--word", "1 -2 1 -2 1 -2"),
     "508df9ea000e05c0e8dc497883f4c247131ec713", "4fdd7e89f4cba1165a6150abc752963f26897123"),
    (("verify", "--d", "4", "--n", "5", "--suite", "all"),
     "ab6395c63111e100178d77ad761758524b2ae4b1", "ad99c6bb6ef26171a05cfb90702871469a226c67"),
    # rows of 967 and 1,565 letters: seams past words.SCAN_FROM, both signs
    (("eval", "--d", "3", "--n", "3", "--word", " ".join(["1 -2"] * 6)),
     "b23910808be9948671f893cd3c5c09e28f166ee5", "79701f3d97c5e0205b8fa6b116e610d738777c39"),
    (("eval", "--d", "3", "--n", "3", "--word", " ".join(["-1 2"] * 6)),
     "9a1cc4c07d2b4ee569987d8fbea653d387537bee", "53a0122276382b8dd08f611bff9fbc21abf89695"),
    # proper powers with 3-letter roots and odd exponents, pinned before
    # powers were evaluated by squaring: (1 2 3)^4 is the full twist at n = 4
    (("eval", "--d", "4", "--n", "4", "--word", " ".join(["1 2 3"] * 4)),
     "8f0b41703bd29b7a3b1315dcf16481db47560550", "e1065c4a8a76ebb9d03d869660a58c00effade87"),
    (("eval", "--d", "3", "--n", "5", "--word", " ".join(["-3 2 -1"] * 5)),
     "bb1d6ec1af6c1794dd45740c7928ccab4aa96f1c", "cdd5a00373a973831789f9388fc2f44340b084aa"),
    # the inverse lift translated at d = 200: hundreds of long seams, pinned
    # before they were cancelled by slice equality against the inverse image
    (("eval", "--d", "200", "--n", "3", "--word", "-1 2"),
     "08a238e4164297844a1427f2b809bd8b6b30464c", "e73b5790cf8761f4a9a7c8c248fd0e54b8c17356"),
]


def _golden_ids(cases):
    """The command name; a command seen before also gets its position, so
    the first case of each keeps its id."""
    names = [argv[0] for argv, _, _ in cases]
    return [name if names.index(name) == k else f"{name}-{k}" for k, name in enumerate(names)]


@pytest.mark.parametrize("argv,text_sha1,structured_sha1", GOLDEN_STDOUT,
                         ids=_golden_ids(GOLDEN_STDOUT))
def test_stdout_matches_the_golden_digest(capsys, argv, text_sha1, structured_sha1):
    for mode, want in (("text", text_sha1), ("structured", structured_sha1)):
        code, out, err = run_cli(capsys, *argv, "--output-mode", mode)
        assert (code, err) == (0, ""), (argv, mode)
        assert hashlib.sha1(out.encode()).hexdigest() == want, (argv, mode)


# sha1 of repr((exit status, stdout, stderr)) of the help texts and of the
# usage errors argparse refuses, at 80 columns; a change to how the
# subcommands are declared must not change one printed byte.  A usage error
# that lists argparse's choices pins one digest per wording of its "invalid
# choice" message: each choice quoted ('a', 'b', as the argparse of Python
# 3.10, 3.11, 3.12.1 and 3.13.0 prints it) or not (a, b, as 3.13.13 does).
GOLDEN_USAGE = [
    ("help", ("--help",), "dd4efdf017803731481f401c43a25a7789ef6c71"),
    ("surface-help", ("surface", "--help"), "d07c8f48f5d4eb9ae4ea1502f373a9d421e4aeb3"),
    ("tables-help", ("tables", "--help"), "a819d94d13b5ad75b9ce29627012c8ff8a0c7269"),
    ("lift-help", ("lift", "--help"), "ea2c2c167dc91dab856c666163aa3bc609e4363f"),
    ("dehn-help", ("dehn", "--help"), "54de5f1d05a060c93d8d89d5dfc7f3b258599c5b"),
    ("aut-help", ("aut", "--help"), "9b31309a5c8db056104f9fb746a98c69080c728f"),
    ("eval-help", ("eval", "--help"), "784bc06538b300c632bbc1dae5d192552374f1a9"),
    ("matrix-help", ("matrix", "--help"), "ecf401b2a80853439e2dc339ba11cb4009aa206a"),
    ("verify-help", ("verify", "--help"), "642c21f1403347fd045a3bcdefc8bb68e8c91fc8"),
    ("no-command", (), "05396a028b4828f671595ac7d613c1ebba200fa5"),
    ("missing-option", ("surface", "--d", "4"), "47f66c15612048939f56dcea2fb892cbdac83764"),
    ("bad-int", ("surface", "--d", "abc", "--n", "3"), "1cf3e3608b7ec211621b4a39bcbb2ad320b7c0bc"),
    ("bad-suite", ("verify", "--d", "3", "--n", "3", "--suite", "bogus"),
     ("509462aa64cc409575c444a14504f2e9d2b6be07", "60dec9fde0ed502361a838f943cadb0aa5292edd")),
    ("bad-output-mode", ("surface", "--d", "4", "--n", "3", "--output-mode", "json"),
     ("55ad1fcd3ac34459eb5a7f5fb6a1f333a477eec8", "6fb87ea9734ea9aaf42f55231cca40f262abc0cd")),
    ("unknown-command", ("spectacle",),
     ("3b6818db110d1f5754869dcb3be32c42f0ce1ab3", "6e586039f8d4d26a71cedb4b8b69fb7722a5576b")),
    # pinned while one parser read every argv: arguments left over by the
    # named command's parser, and help before any command, read as then
    ("extra-argument", ("eval", "--d", "3", "--n", "3", "--word", "1", "extra"),
     "6bc9a51e27bb59329ced7f90a68e4e237800f501"),
    ("unknown-option", ("surface", "--d", "4", "--n", "3", "--bogus", "1"),
     "05a52b783c81ddd8b2fe0bb2a3ed1f7fa2bef10f"),
    ("help-then-command", ("--help", "eval"), "dd4efdf017803731481f401c43a25a7789ef6c71"),
]


def _quotes_choices() -> bool:
    """Whether this argparse quotes each choice in its "invalid choice"
    message, probed on a throwaway parser rather than read off the version."""
    class Probe(argparse.ArgumentParser):
        def error(self, message):
            raise ValueError(message)

    parser = Probe()
    parser.add_argument("x", choices=["a"])
    with pytest.raises(ValueError) as exc:
        parser.parse_args(["b"])
    return "(choose from 'a')" in str(exc.value)


def _golden_usage_sha1(sha1) -> str:
    """The pinned digest; a (quoted, unquoted) pair is read by this argparse."""
    return sha1 if isinstance(sha1, str) else sha1[0 if _quotes_choices() else 1]


def _usage_sha1(capsys, monkeypatch, argv) -> tuple[str, tuple]:
    """sha1 of repr((exit status, stdout, stderr)) of one run at 80 columns,
    and that triple."""
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return hashlib.sha1(repr((code, out, err)).encode()).hexdigest(), (code, out, err)


@pytest.mark.parametrize("argv,sha1", [case[1:] for case in GOLDEN_USAGE],
                         ids=[case[0] for case in GOLDEN_USAGE])
def test_help_and_usage_errors_match_the_golden_digest(capsys, monkeypatch, argv, sha1):
    got, printed = _usage_sha1(capsys, monkeypatch, argv)
    assert got == _golden_usage_sha1(sha1), printed


def _unquoted_check_value(self, action, value):
    """argparse's choice check as Python 3.13.13 words it: the value quoted,
    the choices not."""
    if action.choices is not None and value not in action.choices:
        choices = ", ".join(map(str, action.choices))
        raise argparse.ArgumentError(
            action, f"invalid choice: {str(value)!r} (choose from {choices})")


def test_the_unquoted_choice_wording_selects_and_matches_its_own_digest(capsys, monkeypatch):
    monkeypatch.setattr(argparse.ArgumentParser, "_check_value", _unquoted_check_value)
    assert not _quotes_choices()
    pairs = [(argv, sha1) for _, argv, sha1 in GOLDEN_USAGE if not isinstance(sha1, str)]
    assert len(pairs) == 3
    for argv, (quoted, unquoted) in pairs:
        assert _golden_usage_sha1((quoted, unquoted)) == unquoted != quoted
        got, printed = _usage_sha1(capsys, monkeypatch, argv)
        assert got == unquoted, printed
        assert "(choose from " in printed[2] and "'" not in printed[2].split("(choose from ")[1]
