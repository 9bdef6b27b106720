"""Acceptance gate: the eight exit criteria, each printed as one line.

Every identity is symbolic and checked with zero tolerance (exact equality
of reduced words, paths, or integer matrices).  Randomized criteria use a
fixed seed, so the whole gate is deterministic.  Stated wall-clock budgets
are asserted alongside the mathematical content.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import random
import time

from braidcover import braid, cli, groupoid, pi1, words
from braidcover.braid import (
    BraidWord,
    check_braid_relations,
    check_cross_validation,
    check_dehn_factorization,
    dehn_twist_product,
    evaluate,
    half_twist_action,
)
from braidcover.surface import surface, table
from braidcover.words import compose, identity_automorphism, matrix_multiply

import reference

SEED = 0x5EED
GRIDS = dict(braid.DESK_GRIDS)  # suite -> (d, n) pairs of the desk sweep


def _report(number: int, passed: bool, text: str, elapsed: float) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {number}: {text} ({elapsed:.2f}s)")
    assert passed, f"criterion {number} failed: {text}"


def test_criterion_1_published_tables(capsys):
    expected = {
        4: [(1, 0), (2, 1), (1, 3), (4, 3), (1, 6), (2, 7), (1, 9), (4, 9)],
        5: [(1, 0), (1, 2), (1, 4), (1, 6), (5, 6), (1, 10), (1, 12), (1, 14)],
    }
    start = time.perf_counter()
    ok = True
    for d, rows in expected.items():
        ok = ok and [(s.boundary, s.genus) for s in table(d, 8)] == rows
        code = cli.main(["tables", "--d", str(d), "--n-max", "8",
                         "--output-mode", "structured"])
        out = capsys.readouterr().out
        printed = [
            (int(line.split()[2][2:]), int(line.split()[3][2:]))
            for line in out.splitlines()
        ]
        ok = ok and code == 0 and printed == rows
    elapsed = time.perf_counter() - start
    with capsys.disabled():
        _report(1, ok and elapsed < 1.0,
                "tables for d=4,5 and n=1..8 reproduce all 16 (b,g) pairs", elapsed)


def test_criterion_2_braid_relations():
    start = time.perf_counter()
    ok = True
    for d, n in GRIDS["relations"]:
        report = check_braid_relations(d, n)  # functor and automorphism level
        ok = ok and report.all_passed
    elapsed = time.perf_counter() - start
    _report(2, ok and elapsed < 30.0,
            "braid relations and far commutations hold exactly for d=2..6, n=3..7",
            elapsed)


def test_criterion_3_dehn_factorization():
    start = time.perf_counter()
    ok = True
    for d, n in GRIDS["dehn"]:
        ok = ok and check_dehn_factorization(d, n).all_passed
    # the d=2 row is the single-full-twist degeneration
    for n in (m for d, m in GRIDS["dehn"] if d == 2):
        for i in range(1, n):
            single = pi1.functor_to_automorphism(groupoid.dehn_twist(2, n, i, 2))
            ok = ok and single == half_twist_action(2, n, i)
            ok = ok and single == dehn_twist_product(2, n, i)
    elapsed = time.perf_counter() - start
    _report(3, ok and elapsed < 30.0,
            "twist products along x[i,2..d] equal the generator action for d=2..5, n=2..5",
            elapsed)


def test_criterion_4_triple_cross_validation():
    start = time.perf_counter()
    ok = all(check_cross_validation(d, n).all_passed for d, n in GRIDS["cross"])
    elapsed = time.perf_counter() - start
    _report(4, ok and elapsed < 30.0,
            "closed form, conjugate form and groupoid route agree for d=2..6, n=2..6",
            elapsed)


def test_criterion_5_covering_commutativity():
    start = time.perf_counter()
    ok = all(groupoid.verify_lift(d, n, i) for d, n in GRIDS["lift"] for i in range(1, n))
    elapsed = time.perf_counter() - start
    _report(5, ok and elapsed < 5.0,
            "sheet collapse intertwines lifted and base half twists for d=2..6, n=2..7",
            elapsed)


def _schedule_reduce(rng, codes):
    codes = list(codes)
    while True:
        spots = [k for k in range(len(codes) - 1) if codes[k] == -codes[k + 1]]
        if not spots:
            return tuple(codes)
        k = rng.choice(spots)
        del codes[k : k + 2]


def _random_reduced_word(rng, d, n, max_len):
    r = words.rank(d, n)
    codes: list[int] = []
    for _ in range(rng.randint(0, max_len)):
        while True:
            c = rng.choice((1, -1)) * rng.randint(1, r)
            if not codes or codes[-1] != -c:
                break
        codes.append(c)
    return words.Word(d, n, tuple(codes))


def test_criterion_6_randomized_algebraic_laws():
    start = time.perf_counter()
    rng = random.Random(SEED)
    failures = 0

    # free-reduction confluence: random schedules agree with the stack reducer
    for _ in range(500):
        d, n = rng.randint(2, 5), rng.randint(2, 5)
        letters = [
            (rng.randint(1, n - 1), rng.randint(1, d - 1), rng.choice((1, -1)))
            for _ in range(rng.randint(0, 48))
        ]
        raw = words._encode(d, n, letters)
        if _schedule_reduce(rng, raw) != words.reduce(d, n, letters).codes:
            failures += 1

    # inverse round trips through braid evaluation
    for _ in range(500):
        d, n = rng.randint(2, 5), rng.randint(2, 5)
        letters = tuple(
            rng.choice((1, -1)) * rng.randint(1, n - 1)
            for _ in range(rng.randint(0, 20))
        )
        bw = BraidWord(d, n, letters)
        inverse = BraidWord(d, n, tuple(-s for s in reversed(letters)))
        if compose(evaluate(bw), evaluate(inverse)) != identity_automorphism(d, n):
            failures += 1

    # loop/word round trips
    for _ in range(500):
        d, n = rng.randint(2, 5), rng.randint(2, 5)
        u = _random_reduced_word(rng, d, n, 32)
        if pi1.loop_to_word(reference.word_to_loop(u)) != u:
            failures += 1

    elapsed = time.perf_counter() - start
    _report(6, failures == 0,
            "500 randomized cases each: reduction confluence, braid inverses, loop round trips",
            elapsed)


def test_criterion_7_rank_identity():
    start = time.perf_counter()
    ok = True
    for d in range(2, 31):
        for n in range(1, 31):
            s = surface(d, n)
            ok = ok and 2 * s.genus + s.boundary - 1 == (d - 1) * (n - 1)
            ok = ok and s.genus >= 0 and isinstance(s.genus, int)
    elapsed = time.perf_counter() - start
    _report(7, ok, "2g + b - 1 = (d-1)(n-1) with integral genus for d<=30, n<=30",
            elapsed)


def test_criterion_8_matrix_layer():
    start = time.perf_counter()
    rng = random.Random(SEED)
    ok = True
    for d in range(2, 6):
        for n in range(2, 6):
            for i in range(1, n - 1):
                lhs = braid.braid_matrix(BraidWord(d, n, (i, i + 1, i)))
                rhs = braid.braid_matrix(BraidWord(d, n, (i + 1, i, i + 1)))
                ok = ok and lhs == rhs
            for i in range(1, n - 1):
                for k in range(i + 2, n):
                    lhs = braid.braid_matrix(BraidWord(d, n, (i, k)))
                    rhs = braid.braid_matrix(BraidWord(d, n, (k, i)))
                    ok = ok and lhs == rhs
    for _ in range(100):
        d, n = rng.randint(2, 5), rng.randint(2, 5)
        letters = tuple(
            rng.choice((1, -1)) * rng.randint(1, n - 1)
            for _ in range(rng.randint(0, 20))
        )
        half = len(letters) // 2
        whole = braid.braid_matrix(BraidWord(d, n, letters))
        split = matrix_multiply(
            braid.braid_matrix(BraidWord(d, n, letters[:half])),
            braid.braid_matrix(BraidWord(d, n, letters[half:])),
        )
        ok = ok and whole == split and reference.matrix_determinant(whole) in (1, -1)
    elapsed = time.perf_counter() - start
    _report(8, ok,
            "abelianized matrices satisfy the relations and are unimodular", elapsed)
