"""Free-group arithmetic: reduction, group axioms, automorphisms, abelianization."""

import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidcover import braid, groupoid, pi1, words
from braidcover.errors import BudgetExceededError, ParameterMismatchError
from braidcover.words import (
    FreeAutomorphism,
    Word,
    abelianize,
    apply,
    compose,
    conjugate,
    format_word,
    identity_automorphism,
    identity_matrix,
    invert,
    matrix_multiply,
    multiply,
    parse_word,
    rank,
    reduce,
)

import strategies
import reference
from reference import matrix_determinant


def w(d, n, text):
    return parse_word(d, n, text)


def _letters(u):
    # (i, j, sign) triples of a word, read back from its text, not its codes
    return words._parse_tokens(format_word(u), "x") if u else []


# -- reduce -------------------------------------------------------------------

def test_reduce_cancels_adjacent_inverse_pair():
    assert reduce(3, 2, [(1, 1, 1), (1, 1, -1)]) == reduce(3, 2, ())


def test_reduce_cancels_inner_pair():
    got = reduce(3, 2, [(1, 1, 1), (1, 2, 1), (1, 2, -1), (1, 1, 1)])
    assert got == w(3, 2, "x[1,1]*x[1,1]")


@given(strategies.words_with_params())
def test_reduce_is_idempotent(data):
    d, n, u = data
    assert reduce(d, n, _letters(u)) == u


def _schedule_reduce(rng, codes):
    # reference reducer: cancel one adjacent inverse pair at a time, chosen
    # at random, until none remain
    codes = list(codes)
    while True:
        spots = [k for k in range(len(codes) - 1) if codes[k] == -codes[k + 1]]
        if not spots:
            return tuple(codes)
        k = rng.choice(spots)
        del codes[k : k + 2]


@given(strategies.params(), st.data(), st.integers(0, 2**32 - 1))
def test_reduce_is_confluent(dn, data, seed):
    d, n = dn
    letters = data.draw(strategies.letter_triples(d, n, max_size=32, max_sheet=d))
    u = reduce(d, n, letters)
    raw = words._encode(d, n, letters)
    assert _schedule_reduce(random.Random(seed), raw) == u.codes


def test_sheet_index_d_expands_on_construction():
    # x[1,3] with d=3 is the dependent symbol (x[1,1]*x[1,2])^-1
    assert reduce(3, 2, [(1, 3, 1)]) == w(3, 2, "x[1,2]^-1*x[1,1]^-1")
    assert reduce(3, 2, [(1, 3, -1)]) == w(3, 2, "x[1,1]*x[1,2]")
    # the sheet index wraps mod d
    assert reduce(3, 2, [(1, 4, 1)]) == reduce(3, 2, [(1, 1, 1)])


# -- multiply / invert / conjugate ---------------------------------------------

def test_multiply_examples():
    assert multiply(w(3, 2, "x[1,1]"), w(3, 2, "x[1,1]^-1")) == reduce(3, 2, ())
    u = w(3, 2, "x[1,1]*x[1,2]")
    assert multiply(reduce(3, 2, ()), u) == u
    got = multiply(w(3, 3, "x[1,1]*x[1,2]"), w(3, 3, "x[1,2]^-1*x[2,1]"))
    assert got == w(3, 3, "x[1,1]*x[2,1]")


def test_multiply_rejects_mixed_parameters():
    with pytest.raises(ParameterMismatchError):
        multiply(w(3, 2, "x[1,1]"), w(3, 3, "x[1,1]"))


@given(strategies.words_with_params(count=3, max_size=64))
def test_group_axioms(data):
    d, n, u, v, t = data
    assert multiply(multiply(u, v), t) == multiply(u, multiply(v, t))
    e = reduce(d, n, ())
    assert multiply(u, e) == u and multiply(e, u) == u
    assert multiply(u, invert(u)) == e
    assert invert(multiply(u, v)) == multiply(invert(v), invert(u))


def test_invert_examples():
    assert invert(w(3, 2, "x[1,1]*x[1,2]")) == w(3, 2, "x[1,2]^-1*x[1,1]^-1")
    assert invert(reduce(3, 2, ())) == reduce(3, 2, ())


@given(strategies.words_with_params())
def test_invert_is_an_involution(data):
    _, _, u = data
    assert invert(invert(u)) == u


def test_conjugate_examples():
    assert conjugate(w(3, 2, "x[1,1]"), reduce(3, 2, ())) == w(3, 2, "x[1,1]")
    assert conjugate(reduce(3, 2, ()), w(3, 2, "x[1,2]")) == reduce(3, 2, ())
    got = conjugate(w(3, 3, "x[2,1]"), w(3, 3, "x[1,1]"))
    assert got == w(3, 3, "x[1,1]^-1*x[2,1]*x[1,1]")


# -- apply / compose -----------------------------------------------------------

def test_apply_identity_fixes_words():
    u = w(4, 3, "x[1,2]*x[2,3]^-1*x[1,1]")
    assert apply(identity_automorphism(4, 3), u) == u


def test_apply_substitutes_and_reduces():
    f = braid.half_twist_action(3, 2, 1)  # sends x[1,1] to x[1,2]^-1
    assert apply(f, w(3, 2, "x[1,1]*x[1,1]")) == w(3, 2, "x[1,2]^-1*x[1,2]^-1")
    assert apply(f, reduce(3, 2, ())) == reduce(3, 2, ())


@given(strategies.words_with_params(count=2, max_size=24), st.integers(1, 10**6))
def test_apply_is_a_homomorphism(data, pick):
    d, n, u, v = data
    f = braid.generator_action(d, n, pick % (n - 1) + 1)
    assert apply(f, multiply(u, v)) == multiply(apply(f, u), apply(f, v))
    assert apply(f, invert(u)) == invert(apply(f, u))


def _substitute_letter_by_letter(table, codes, budget):
    """Reference for `words._substitute`: every image letter goes through
    the stack on its own."""
    out = []
    for c in codes:
        img = table[abs(c) - 1]
        for t in img if c > 0 else [-t for t in reversed(img)]:
            if out and out[-1] == -t:
                out.pop()
            else:
                out.append(t)
        if len(out) > budget:
            raise BudgetExceededError(
                f"result reached {len(out)} letters, more than the letter budget of {budget}")
    return tuple(out)


def _inverse(codes):
    return tuple(-c for c in reversed(codes))


@st.composite
def substitutions(draw, long_rows=st.booleans()):
    """A table of reduced rows and the codes to push through it.

    Rows are tuples over a small alphabet, so that an image often cancels
    past whole earlier images, one-signed ranges as in `pi1._edge_words`,
    or empty.  Long rows, past `words.SCAN_FROM` letters, reach the scan
    regime of `_substitute`: long ranges, and pieces of one base word (its
    prefixes, suffixes and middles between shared cuts) or their inverses,
    so that long runs cancel where they meet."""
    alphabet = draw(st.integers(1, 3))
    letter = st.integers(1, alphabet).flatmap(lambda c: st.sampled_from((c, -c)))
    tuple_row = st.lists(letter, max_size=5).map(lambda cs: words._reduce_onto([], cs))
    range_row = st.builds(
        lambda a, size, sign: range(a, a + size) if sign > 0 else range(1 - a - size, 1 - a),
        st.integers(1, alphabet),
        st.one_of(st.integers(0, 4), st.integers(words.SCAN_FROM - 1, words.SCAN_FROM + 2)),
        st.sampled_from((1, -1)),
    )
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    size = draw(st.integers(2 * words.SCAN_FROM + 1, 3 * words.SCAN_FROM))
    base = []
    while len(base) < size:
        c = rng.choice((1, -1)) * rng.randint(1, alphabet)
        if not base or base[-1] != -c:
            base.append(c)
    # pieces B[a:b] of the base B between shared cuts, maybe inverted: one
    # that ends where another's inverse starts cancels a long run against
    # it, which stops mid-image, eats the whole image or eats all of `out`
    cuts = sorted({0, size, *draw(st.lists(st.integers(0, size), max_size=2))})
    pieces = [tuple(base[a:b]) for a, b in itertools.combinations(cuts, 2)]
    long_row = st.builds(
        lambda piece, inverted: _inverse(piece) if inverted else piece,
        st.sampled_from(pieces), st.booleans(),
    )
    row = st.one_of(tuple_row, range_row, st.just(()))
    if draw(long_rows):
        row = st.one_of(long_row, long_row, row)
    table = draw(st.lists(row, min_size=1, max_size=4))
    code = st.integers(1, len(table)).flatmap(lambda c: st.sampled_from((c, -c)))
    return tuple(table), draw(st.lists(code, max_size=12))


@given(substitutions(), st.integers(0, 12))
def test_substitute_matches_the_letter_by_letter_reference(case, budget):
    table, codes = case
    expected = _substitute_letter_by_letter(table, codes, words.LETTER_BUDGET)
    assert words._substitute(table, codes, {}) == expected
    # under a small budget both refuse exactly the same inputs
    with mock.patch.object(words, "LETTER_BUDGET", budget):
        try:
            _substitute_letter_by_letter(table, codes, budget)
        except BudgetExceededError as exc:
            with pytest.raises(BudgetExceededError, match=f"^{exc}$"):
                words._substitute(table, codes, {})
        else:
            assert words._substitute(table, codes, {}) == expected


@settings(max_examples=300)
@given(substitutions(long_rows=st.just(True)))
def test_substitute_matches_the_reference_across_long_seams(case):
    table, codes = case
    assert words._substitute(table, codes, {}) == _substitute_letter_by_letter(
        table, codes, words.LETTER_BUDGET)


@st.composite
def composites(draw):
    """A table and the rows of one composite through it.  A few negative
    codes come back within a row and across rows, so their images, short
    and long, are inverted once and used many times; and one pair of codes
    comes back after different left contexts, so a seam's run, kept the
    first time, is read again where the output before it differs."""
    table, codes = draw(substitutions(long_rows=st.sampled_from((False, True, True))))
    repeated = draw(st.lists(st.integers(1, len(table)), min_size=1, max_size=2))
    code = st.one_of(
        st.sampled_from([-c for c in repeated]),
        st.integers(1, len(table)).flatmap(lambda c: st.sampled_from((c, -c))),
    )
    pair = draw(st.tuples(code, code))
    piece = st.one_of(code.map(lambda c: (c,)), st.just(pair))
    row = st.lists(piece, max_size=6).map(lambda pieces: list(itertools.chain(*pieces)))
    rows = draw(st.lists(row, min_size=1, max_size=6))
    return table, [codes, *rows]


def _square_maps(table, rows):
    """(f, g): the maps whose rows are `rows` and `table`, as automorphisms
    at d = 2 (rank n - 1), each padded with identity rows to one square
    size that covers every code, with every row of f reduced."""
    rows = [words._reduce_onto([], row) for row in rows]
    size = max(len(table), len(rows), *(abs(c) for row in table for c in row))

    def padded(given):
        return tuple(given) + tuple((c,) for c in range(len(given) + 1, size + 1))

    return FreeAutomorphism(2, size + 1, padded(rows)), FreeAutomorphism(2, size + 1, padded(table))


@settings(max_examples=300)
@given(composites())
def test_compose_rows_matches_the_reference_when_inverted_rows_repeat(case):
    # square tables of reduced rows: g's range rows become tuples, f's rows
    # are reduced, which keeps their images, and both are padded with
    # identity rows
    f, g = _square_maps(*case)
    expected = tuple(_substitute_letter_by_letter(g.table, row, words.LETTER_BUDGET)
                     for row in f.table)
    assert words._compose_rows(f, g).table == expected


def test_compose_rows_inverts_each_row_once(monkeypatch):
    # code -1 appears five times in the composite; its three-letter image is
    # negated once, and a second composite starts afresh; codes 4 to 7 pad
    # both tables square, and both maps' moved rows are read before `neg`
    # is counted, so only inverted rows count
    f = FreeAutomorphism(2, 8, ((-1,), (2, -1), (-1, 3, -1), (-2, -1, -3), (5,), (6,), (7,)))
    g = FreeAutomorphism(2, 8, ((1, 2, 3), (4, 7), (5, 6), (4,), (5,), (6,), (7,)))
    words._moved(f), words._moved(g)
    negated = []
    monkeypatch.setattr(words, "neg", lambda c: negated.append(c) or -c)
    expected = ((-3, -2, -1), (4, 7, -3, -2, -1), (-3, -2, -1, 5, 6, -3, -2, -1),
                (-7, -4, -3, -2, -1, -6, -5), (5,), (6,), (7,))
    assert words._compose_rows(f, g).table == expected
    assert sorted(negated) == [1, 2, 3, 4, 5, 6, 7]
    assert words._compose_rows(f, g).table == expected
    assert len(negated) == 14


def _inverse_row(row):
    """The inverse of a table row, a range if the row is one."""
    return range(1 - row.stop, 1 - row.start) if isinstance(row, range) else _inverse(row)


def _memo_seams():
    """(id, table, codes, pairs) with long seams in each situation of the
    previous code's image: `pairs` are the (prev, c) keys `_substitute`
    keeps, the seams whose image(prev) still ends the output with two
    letters or more.  Each case comes with all its codes negative, over
    the inverted rows, which gives the same word."""
    base, earlier = tuple(range(1, 201)), tuple(range(1001, 1051))
    cut = earlier + (7, 8)  # its last two letters cancel against `head`
    head = (-8, -7) + base
    cases = [
        # the run stops inside image(prev), twice: the second reads the memo
        ("tuple-stops-inside-prev", (base, _inverse(base)[:150] + (999,)), (1, 2, 1, 2),
         {(1, 2)}),
        # the run eats image(prev) and goes on into the output before it
        ("tuple-eats-prev-then-earlier", (earlier, base, _inverse(earlier[-20:] + base) + (999,)),
         (1, 2, 3), {(2, 3)}),
        # image(prev) was cut by its own seam, and the run stops inside the
        # rest of it
        ("tuple-prev-cut-stops-inside", (cut, head, _inverse(base)[:150] + (999,)), (1, 2, 3),
         {(1, 2), (2, 3)}),
        # image(prev) was cut by its own seam; on their own image(prev) and
        # image(c) cancel further than the output, which lost the cut letters
        ("tuple-prev-cut-goes-past", (cut, head, _inverse(head) + (999,)), (1, 2, 3),
         {(1, 2), (2, 3)}),
        # image(prev) was eaten whole by its own seam
        ("tuple-prev-eaten-whole", (cut, (-8, -7), _inverse(earlier) + tuple(range(2001, 2101))),
         (1, 2, 3), set()),
        # an empty image between two long ones, and one just after a cut
        ("tuple-empty-between", (base, (), _inverse(base)[:150] + (999,)), (1, 2, 3), set()),
        ("tuple-empty-after-cut", (cut, head, (), _inverse(base)[:150] + (999,)), (1, 2, 3, 4),
         {(1, 2)}),
        # a short range image between two long ones
        ("range-between-tuples",
         (base, range(3001, 3004), tuple(range(-3003, -3000)) + _inverse(base)[:150] + (999,)),
         (1, 2, 3), {(2, 3)}),
        ("range-stops-inside-prev", (range(1, 201), range(-200, -50)), (1, 2, 1, 2), {(1, 2)}),
        ("range-eats-prev-then-earlier", (range(1, 101), range(101, 201), range(-200, -20)),
         (1, 2, 3), {(2, 3)}),
        ("range-prev-cut-stops-inside",
         ((5,), range(481, 501), range(-500, -30), range(31, 231)), (1, 2, 3, 4),
         {(2, 3), (3, 4)}),
        ("range-prev-cut-goes-past",
         ((5,), range(81, 101), range(-100, -30), range(31, 200)), (1, 2, 3, 4), {(3, 4)}),
        ("range-empty-between", (range(1, 201), range(0), range(-200, -50)), (1, 2, 3), set()),
    ]
    for name, table, codes, pairs in cases:
        yield name + "-positive", table, codes, pairs
        yield (name + "-negative", tuple(map(_inverse_row, table)), tuple(-c for c in codes),
               {(-a, -b) for a, b in pairs})


@pytest.mark.parametrize("table,codes,pairs",
                         [case[1:] for case in _memo_seams()],
                         ids=[case[0] for case in _memo_seams()])
def test_substitute_keeps_each_long_seam_run_and_matches_the_reference(table, codes, pairs):
    expected = _substitute_letter_by_letter(table, codes, words.LETTER_BUDGET)
    memo = {}
    assert words._substitute(table, codes, memo) == expected
    assert {key for key in memo if isinstance(key, tuple)} == pairs
    # a second call through the same memo finds every pair's run there
    assert words._substitute(table, codes, memo) == expected


@pytest.mark.parametrize("kind", [list, tuple, range])
def test_common_suffix_matches_a_letter_by_letter_scan(kind):
    # runs that end inside, at and just past each block of the comparison,
    # from starts inside the run, over every row type `_substitute` passes,
    # and with the left row a list, as the output is; `right` is the
    # inverse of the image whose cancelled run against `left` is sought
    rng = random.Random(7)
    for run in (0, 1, 31, 32, 33, 95, 96, 97, 224, 225, 1000):
        for extra in (0, 1, 50):
            if kind is range:
                a = rng.randint(1, 50)
                left, right = range(-a - run - extra, -a), range(-a - run - extra, -a)
                left = range(left.start + 1, left.stop) if extra else left  # shorter
            else:
                common = [rng.choice((1, -1)) * rng.randint(1, 9) for _ in range(run)]
                left = kind([5] * extra + common)
                right = kind([-5] * extra + common)
            image = _inverse(right)
            expected = next((i for i in range(min(len(left), len(image)))
                             if left[-1 - i] + image[i] != 0), min(len(left), len(image)))
            assert expected == next((i for i in range(min(len(left), len(right)))
                                     if left[-1 - i] != right[-1 - i]),
                                    min(len(left), len(right)))
            assert expected == (run + extra - 1 if kind is range and extra else run)
            for start in {0, min(1, expected), expected // 2, expected}:
                assert words._common_suffix(left, right, start) == expected
                assert words._common_suffix(list(left), right, start) == expected


def test_a_composite_joins_its_factors_moved_rows_on_first_use():
    # building a composite takes no union, since the last product of a fold
    # (each side of a verify check) is never read; the first read joins the
    # factors' sets and keeps the union, and a square keeps its factor's set
    f = FreeAutomorphism(2, 8, ((-1,), (2, -1), (3,), (4,), (5,), (6,), (7,)))
    g = FreeAutomorphism(2, 8, ((1,), (2,), (3,), (4,), (5, 6, -5), (6,), (7,)))
    h = words._compose_rows(f, g)
    assert h._moves == (words._moved(f), words._moved(g))
    assert words._moved(h) == {1, -1, 2, -2, 5, -5}
    assert words._moved(h) is h._moves
    assert words._moved(words._compose_rows(f, f)) is words._moved(f)


def test_compose_rows_scans_each_long_seam_pair_once(monkeypatch):
    # the pair (1, 2) meets at a long seam in three rows, after different
    # left contexts; its run of 150 letters stops inside image(1), so only
    # the first meeting scans, and a second composite starts afresh; both
    # tables are padded square with identity rows up to code 1050
    image = tuple(range(1, 201))
    f, g = _square_maps((image, _inverse(image)[:150] + tuple(range(1001, 1051))),
                        ((1, 2), (2, 1, 2), (-2, 1, 2)))
    scanned = []
    scan = words._common_suffix
    monkeypatch.setattr(words, "_common_suffix", lambda *args: scanned.append(1) or scan(*args))
    expected = tuple(_substitute_letter_by_letter(g.table, row, words.LETTER_BUDGET)
                     for row in f.table)
    assert words._compose_rows(f, g).table == expected
    assert len(scanned) == 1
    assert words._compose_rows(f, g).table == expected
    assert len(scanned) == 2


def test_the_inverse_of_a_positive_long_image_is_built_once_and_kept(monkeypatch):
    # image(2) cancels 150 letters of image(1) and 141 of image(3): both
    # pairs are scanned against the inverse of image(2), built at the first
    # seam and kept as the image of -2, which a later call pushes; the
    # seams of -2 and -1 there scan their pair and the output against
    # rows 2 and 1 themselves
    image = tuple(range(1, 201))
    table = (image, _inverse(image)[:150] + tuple(range(1001, 1051)),
             (7,) + tuple(range(60, 201)))
    rights = []
    scan = words._common_suffix
    monkeypatch.setattr(words, "_common_suffix",
                        lambda left, right, start: rights.append(right) or scan(left, right, start))
    memo = {}
    for codes in ((1, 2, 1, 3, 2), (3, 2, -2, -1)):
        expected = _substitute_letter_by_letter(table, codes, words.LETTER_BUDGET)
        assert words._substitute(table, codes, memo) == expected
    assert memo[-2] == _inverse(table[1])
    named = {id(memo[-2]): "inverse 2", id(table[1]): "row 2", id(table[0]): "row 1"}
    assert [named.get(id(right)) for right in rights] == [
        "inverse 2", "inverse 2", "row 2", "row 2", "row 1", "row 1"]


@pytest.mark.parametrize("table,codes,expected", [
    # the third image cancels the first two whole, then goes on
    (((1,), (2,), (-2, -1, 3)), (1, 2, 3), (3,)),
    # an inverted image cancels the first two whole, then goes on
    (((1,), (2,), (3, 1, 2)), (1, 2, -3), (-3,)),
    # a range image cancels past an empty image and a whole range image
    ((range(-2, 0), (), (1, 2, 4)), (1, 2, 3), (4,)),
    ((range(3, 4), range(4, 5), range(2, 5)), (1, 2, -3), (-2,)),
])
def test_substitute_cancels_past_whole_images(table, codes, expected):
    assert words._substitute(table, codes, {}) == expected
    assert _substitute_letter_by_letter(table, codes, words.LETTER_BUDGET) == expected


def _long_seams():
    """(table, codes, expected) with a long run cancelled at the seam of the
    last code, an image of exactly SCAN_FROM letters (the letter loop) or
    one more (the scan), pushed as a positive and as a negative code."""
    out, short = tuple(range(1, 301)), tuple(range(1, 41))
    cases = []
    for size in (words.SCAN_FROM, words.SCAN_FROM + 1):
        for name, first, image, expected in (
            # the run stops before the image's last letter
            ("mid-image", out, _inverse(out)[:size - 1] + (999,), out[:301 - size] + (999,)),
            # the run eats the whole image
            ("whole-image", out, _inverse(out)[:size], out[:300 - size]),
            # the run eats all of the output so far
            ("all-of-out", short, _inverse(short) + tuple(range(500, 460 + size)),
             tuple(range(500, 460 + size))),
        ):
            cases.append((f"tuple-{name}-{size}-positive", (first, image), (1, 2), expected))
            cases.append((f"tuple-{name}-{size}-negative", (first, _inverse(image)), (1, -2),
                          expected))
        # the same three runs over range rows; a range cannot change sign,
        # so the mid-image stop is at a letter pushed before the range, and
        # the run that eats all of `out` also eats the whole image
        for name, table, head, expected in (
            ("mid-image", ((5,), range(101, 201), range(-200, size - 200)), (1, 2),
             (5,) + tuple(range(-100, size - 200))),
            ("whole-image", (range(1, 301), range(-300, size - 300)), (1,),
             tuple(range(1, 301 - size))),
            ("all-of-out", (range(1, size + 1), range(-size, 0)), (1,), ()),
        ):
            last = table[-1]
            negative = table[:-1] + (range(1 - last.stop, 1 - last.start),)
            cases.append((f"range-{name}-{size}-positive", table, head + (len(table),), expected))
            cases.append((f"range-{name}-{size}-negative", negative, head + (-len(table),),
                          expected))
    return cases


@pytest.mark.parametrize("table,codes,expected",
                         [case[1:] for case in _long_seams()],
                         ids=[case[0] for case in _long_seams()])
def test_substitute_cancels_long_runs_by_either_regime(table, codes, expected):
    assert words._substitute(table, codes, {}) == expected
    assert _substitute_letter_by_letter(table, codes, words.LETTER_BUDGET) == expected


# -- runs of consecutive codes as pieces ----------------------------------------

@st.composite
def run_substitutions(draw):
    """A table of RUN_FROM + 1 to 3 * RUN_FROM reduced rows and the codes
    to push through it, made of runs of at least RUN_FROM consecutive
    codes, of either sign, some next to their own inverse, between single
    codes.  Rows are short words over a small alphabet, telescoping words
    w[c-1]^-1 * w[c], whose runs cancel down to the two ends, or words
    longer than SCAN_FROM, so a piece meets its neighbours at short and
    long seams."""
    size = draw(st.integers(words.RUN_FROM + 1, 3 * words.RUN_FROM))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    alphabet = draw(st.integers(1, 3))

    def word(length):
        out = []
        while len(out) < length:
            c = rng.choice((1, -1)) * rng.randint(1, alphabet)
            if not out or out[-1] != -c:
                out.append(c)
        return out

    kinds = draw(st.lists(st.sampled_from(("short", "telescoping", "long")), min_size=1,
                          max_size=3))
    ends = [word(rng.randint(0, 6)) for _ in range(size + 1)]
    table = []
    for c in range(1, size + 1):
        kind = rng.choice(kinds)
        if kind == "short":
            row = word(rng.randint(0, 5))
        elif kind == "telescoping":
            row = [-t for t in reversed(ends[c - 1])] + ends[c]
        else:
            row = word(rng.randint(words.SCAN_FROM + 1, words.SCAN_FROM + 20))
        table.append(words._reduce_onto([], row))
    run = st.tuples(st.integers(1, size - words.RUN_FROM + 1), st.integers(0, size),
                    st.sampled_from((1, -1)), st.booleans())
    single = st.integers(1, size).flatmap(lambda c: st.sampled_from(((c,), (-c,))))
    codes = []
    for piece in draw(st.lists(st.one_of(run, single), min_size=1, max_size=4)):
        if len(piece) == 1:
            codes.extend(piece)
            continue
        low, extra, sign, twice = piece
        codes_of_run = list(range(low, min(low + words.RUN_FROM + extra, size + 1)))
        if sign < 0:
            codes_of_run = [-c for c in reversed(codes_of_run)]
        codes.extend(codes_of_run)
        if twice:  # the same run again, inverted, right after it
            codes.extend(-c for c in reversed(codes_of_run))
    return tuple(table), codes


@settings(max_examples=300)
@given(run_substitutions(), st.integers(0, 400))
def test_substitute_takes_runs_as_pieces_like_the_letter_by_letter_reference(case, budget):
    table, codes = case
    expected = _substitute_letter_by_letter(table, codes, words.LETTER_BUDGET)
    memo = {}
    assert words._substitute(table, codes, memo, words._runs(codes)) == expected
    # a second call through the same memo reads the kept pieces
    assert words._substitute(table, codes, memo, words._runs(codes)) == expected
    # under a small budget both refuse exactly the same inputs
    with mock.patch.object(words, "LETTER_BUDGET", budget):
        try:
            _substitute_letter_by_letter(table, codes, budget)
        except BudgetExceededError as exc:
            # the same message, naming the size the plain loop reached
            with pytest.raises(BudgetExceededError, match=f"^{exc}$"):
                words._substitute(table, codes, {}, words._runs(codes))
        else:
            assert words._substitute(table, codes, {}, words._runs(codes)) == expected


class _Reads(tuple):
    """A table that records how many images each slice of it reads."""

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.reads.append(len(range(*key.indices(len(self)))))
        return super().__getitem__(key)


def test_prefix_images_are_built_once_per_table_from_the_one_before():
    # the runs from code 1 grow one image at a time over the rows of one
    # composite, and an inverse run reads the prefix image of its length:
    # 8 images build the first prefix image and one more each longer one
    rng = random.Random(3)
    rows = [tuple(rng.choice((1, 2, 3)) for _ in range(4)) for _ in range(24)]
    table = _Reads(words._reduce_onto([], row) for row in rows)
    table.reads = []
    memo = {}
    pushed = [tuple(range(1, 9)), (20,) + tuple(range(1, 10)), tuple(range(-9, 0)) + (5,),
              tuple(range(-10, 0)), tuple(range(1, 11)) + tuple(range(-8, 0))]
    for codes in pushed:
        assert words._substitute(table, codes, memo, words._runs(codes)) == (
            _substitute_letter_by_letter(table, codes, words.LETTER_BUDGET))
    assert table.reads == [8, 1, 1]
    assert [length for length, image in enumerate(memo[1]) if image is not None] == [0, 8, 9, 10]


def test_a_run_past_the_lowered_budget_is_pushed_code_by_code_and_refused_as_without_pieces(
        monkeypatch):
    # image(c) and image(c+1) are a word of 60 letters and its inverse, so
    # the run 1..8 cancels to nothing, but pushed code by code the output
    # holds 61 letters after code 1: a budget of 60 is refused, though the
    # piece's own image is empty, and 61 is not
    word = tuple(range(101, 161))
    table = tuple(word if c % 2 else _inverse(word) for c in range(1, 11)) + ((7,),)
    codes = (11,) + tuple(range(1, 9)) + (11,)
    monkeypatch.setattr(words, "LETTER_BUDGET", 60)
    with pytest.raises(BudgetExceededError):
        _substitute_letter_by_letter(table, codes, 60)
    with pytest.raises(BudgetExceededError,
                       match="^result reached 61 letters, more than the letter budget of 60$"):
        words._substitute(table, codes, {}, words._runs(codes))
    monkeypatch.setattr(words, "LETTER_BUDGET", 61)
    assert words._substitute(table, codes, {}, words._runs(codes)) == (7, 7)


def test_a_run_whose_images_do_not_telescope_is_refused_with_the_same_message(monkeypatch):
    # ten letters per image and nothing cancels: the run 1..8 holds 80
    # letters, so a budget of 79 refuses the row and 80 takes it
    table = tuple(tuple(range(10 * c + 1, 10 * c + 11)) for c in range(1, 13))
    codes = tuple(range(1, 9))
    for budget, refused in ((79, True), (80, False)):
        monkeypatch.setattr(words, "LETTER_BUDGET", budget)
        if refused:
            with pytest.raises(BudgetExceededError, match=f"^result reached 80 letters, more "
                                                          f"than the letter budget of {budget}$"):
                words._substitute(table, codes, {}, words._runs(codes))
        else:
            assert words._substitute(table, codes, {}, words._runs(codes)) == tuple(range(11, 91))


def test_the_memo_stops_keeping_piece_images_at_the_letter_budget(monkeypatch):
    # 40 rows of 12 letters that never cancel.  The runs of 8 and 11 codes
    # from each start keep prefix images of 96 and 132 letters, 228 letters
    # a start, so after 13 starts (2,964 letters) the 14th keeps its first
    # image (3,060) and no other is built: the later runs are pushed code
    # by code, each still the reference's image
    budget = 3000
    monkeypatch.setattr(words, "LETTER_BUDGET", budget)
    table = tuple(tuple(range(100 * c + 1, 100 * c + 13)) for c in range(1, 41))
    memo = {}
    for low in range(1, 30):
        for length in (8, 11):
            codes = tuple(range(low, low + length))
            assert words._substitute(table, codes, memo, words._runs(codes)) == (
                _substitute_letter_by_letter(table, codes, budget))
    kept = {low: [length for length, image in enumerate(memo[low]) if image]
            for low in memo if isinstance(low, int) and low > 0}
    assert kept == {**{low: [8, 11] for low in range(1, 14)}, 14: [8]}
    assert memo[0] == [13 * 228 + 96, 132]
    assert sum(1 for key in memo if isinstance(key, int) and key < -len(table)) == 13 * 2 + 1


@pytest.mark.parametrize("d,n,rows", [
    # a run that crosses from row 1 to row 2 of the basis, both signs
    (9, 4, {1: tuple(range(3, 15)), 9: tuple(range(-20, -7))}),
    # a run, another letter, then the same run inverted; a run of every code
    (9, 4, {2: tuple(range(1, 10)) + (12,) + tuple(range(-9, 0)), 5: tuple(range(1, 25))}),
    # runs from one start that grow over the rows of one composite
    (12, 3, {c: tuple(range(1, c + 2)) for c in range(7, 20)}),
])
def test_compose_takes_runs_as_pieces_like_the_fold_that_pushes_every_row(d, n, rows):
    table = list(identity_automorphism(d, n).table)
    for c, row in rows.items():
        table[c - 1] = row
    f = FreeAutomorphism(d, n, table)
    for g in (braid.half_twist_action(d, n, 1), braid.generator_action(d, n, -(n - 1)),
              compose(braid.half_twist_action(d, n, n - 1), braid.generator_action(d, n, -1))):
        assert compose(f, g).table == reference.compose_every_row(f.table, g.table)


@pytest.mark.parametrize("d", [9, 12, 20])
def test_relation_composites_take_runs_as_pieces_like_the_fold_that_pushes_every_row(
        monkeypatch, d):
    # both sides of every relation at n = 5, each composite checked against
    # the reference, and pieces taken on the way
    n, taken = 5, []
    pieces = words._pieces
    monkeypatch.setattr(words, "_pieces",
                        lambda table, codes, *rest: taken.append(1) or pieces(table, codes, *rest))

    def step(f, g):
        h = compose(f, g)
        assert h.table == reference.compose_every_row(f.table, g.table)
        return h

    for _, lhs, rhs in braid._relations(n):
        left, right = (braid._product(step, [braid.half_twist_action(d, n, i) for i in side])
                       for side in (lhs, rhs))
        assert left == right
    assert taken or d - 1 < words.RUN_FROM


def test_compose_identity_is_neutral():
    f = braid.half_twist_action(3, 3, 1)
    assert compose(f, identity_automorphism(3, 3)) == f
    assert compose(identity_automorphism(3, 3), f) == f


@pytest.mark.parametrize("d,n", [(2, 3), (3, 3), (4, 4), (5, 3), (20, 20), (30, 10)])
def test_compose_generator_with_inverse_is_identity(d, n):
    for i in range(1, n):
        f = braid.generator_action(d, n, i)
        g = braid.generator_action(d, n, -i)
        assert compose(f, g) == identity_automorphism(d, n)
        assert compose(g, f) == identity_automorphism(d, n)


def test_compose_satisfies_the_braid_relation():
    f1 = braid.half_twist_action(3, 3, 1)
    f2 = braid.half_twist_action(3, 3, 2)
    assert compose(compose(f1, f2), f1) == compose(compose(f2, f1), f2)


@given(strategies.braid_letters_with_params(max_size=6))
def test_compose_is_associative(data):
    d, n, letters = data
    auts = [braid.generator_action(d, n, s) for s in letters[:3]]
    if len(auts) < 3:
        return
    f, g, h = auts
    assert compose(compose(f, g), h) == compose(f, compose(g, h))


# -- abelianize -----------------------------------------------------------------

def _exponent_matrix(f: FreeAutomorphism):
    # independent oracle: tally signed generator occurrences per image
    r = rank(f.d, f.n)
    rows = []
    for img in f.images:
        counts = [0] * r
        for i, j, sign in _letters(img):
            counts[(i - 1) * (f.d - 1) + j - 1] += sign
        rows.append(tuple(counts))
    return tuple(rows)


def test_abelianize_identity():
    assert abelianize(identity_automorphism(3, 3)) == identity_matrix(4)


def test_abelianize_generator_action():
    f = braid.half_twist_action(3, 2, 1)
    got = abelianize(f)
    assert got == _exponent_matrix(f)
    assert got == ((0, -1), (1, 1))
    assert matrix_determinant(got) == 1


@given(strategies.braid_letters_with_params(max_size=10))
def test_abelianize_of_braid_words_is_unimodular(data):
    d, n, letters = data
    m = abelianize(braid.evaluate(braid.BraidWord(d, n, letters)))
    assert matrix_determinant(m) in (1, -1)


@given(strategies.braid_letters_with_params(max_size=8))
def test_abelianize_is_a_monoid_homomorphism(data):
    d, n, letters = data
    half = len(letters) // 2
    f = braid.evaluate(braid.BraidWord(d, n, letters[:half]))
    g = braid.evaluate(braid.BraidWord(d, n, letters[half:]))
    assert abelianize(compose(f, g)) == matrix_multiply(abelianize(f), abelianize(g))


# -- grammar, guards ------------------------------------------------------------

def test_format_word_round_trip():
    u = w(4, 3, "x[1,1]*x[2,3]^-1*x[1,2]")
    assert parse_word(4, 3, format_word(u)) == u
    assert format_word(reduce(4, 3, ())) == "1"
    assert parse_word(4, 3, "1") == reduce(4, 3, ())


@given(strategies.words_with_params())
def test_any_word_round_trips_through_text(data):
    d, n, u = data
    assert parse_word(d, n, format_word(u)) == u


@pytest.mark.parametrize("bad", ["x[1]", "y[1,1]", "x[1,1]^2", "x[a,1]", "x[1,1]*",
                                 "x[0_1,1]", "x[1,1_0]", "x[\u0661,1]", "x[1,\u0662]"])
def test_parse_word_rejects_bad_tokens(bad):
    with pytest.raises(ValueError):
        parse_word(3, 3, bad)


def test_token_indices_keep_a_sign_and_blanks():
    assert parse_word(3, 3, "x[1,-1]") == parse_word(3, 3, "x[1,2]")
    assert parse_word(3, 3, "x[ +1 , 2 ]*x[2,1]^-1") == parse_word(3, 3, "x[1,2]*x[2,1]^-1")


def test_out_of_range_symbol_rejected():
    with pytest.raises(ValueError):
        reduce(3, 3, [(3, 1, 1)])  # i must be <= n-1
    with pytest.raises(ValueError):
        reduce(3, 3, [(0, 1, 1)])


def test_a_bounded_table_adds_a_range_of_identity_rows_in_one_step(monkeypatch):
    # a range of codes stands for the identity automorphism's rows, the
    # same objects, and its letters, one a row, pass the budget at once
    d, n = 4, 5
    identity = identity_automorphism(d, n).table
    table = words.bounded_table(d, n, iter([range(1, 4), (5, -4, 6), (4,), range(5, 10)]))
    assert table == identity[:3] + ((5, -4, 6), (4,)) + identity[4:9]
    assert all(a is b for a, b in zip(table[:3] + table[5:], identity[:3] + identity[4:9]))

    def rows():
        yield (1,)
        yield range(2, 10)
        raise AssertionError("a row was built after the refusal")

    monkeypatch.setattr(words, "LETTER_BUDGET", 8)
    with pytest.raises(BudgetExceededError, match="^the images for d=4, n=5 reached 9 letters, "
                                                  "more than the letter budget of 8$"):
        words.bounded_table(d, n, rows())


def test_letter_budget_guard(monkeypatch):
    monkeypatch.setattr(words, "LETTER_BUDGET", 8)
    with pytest.raises(BudgetExceededError,
                       match="^result reached 9 letters, more than the letter budget of 8$"):
        reduce(3, 2, [(1, 1, 1)] * 9)
    f = braid.half_twist_action(3, 2, 1)
    with pytest.raises(BudgetExceededError):
        apply(f, Word(3, 2, (2,) * 8))


def test_apply_names_the_words_length_and_d_and_n_in_its_refusal(monkeypatch):
    # x[1,2] -> x[1,2]*x[1,1], so eight letters x[1,2] have 16 letters of image,
    # and the fifth of them takes the result past 8
    monkeypatch.setattr(words, "LETTER_BUDGET", 8)
    f = braid.half_twist_action(3, 2, 1)
    with pytest.raises(BudgetExceededError, match=r"^applying an automorphism to a word of 8 "
                                                  r"letters at d=3, n=2: result reached 10 "
                                                  r"letters, more than the letter budget of "
                                                  r"8$"):
        apply(f, Word(3, 2, (2,) * 8))
    monkeypatch.setattr(words, "LETTER_BUDGET", 16)
    assert len(apply(f, Word(3, 2, (2,) * 8))) == 16


def test_image_lookup_rejects_out_of_basis_symbols():
    f = identity_automorphism(3, 3)
    with pytest.raises(ValueError):
        f.image(1, 3)
    with pytest.raises(ValueError):
        f.image(3, 1)


@pytest.mark.parametrize("code", [0, 3, -3])
def test_constructor_rejects_codes_outside_the_basis(code):
    # rank 2 at d = 3, n = 2, so every code lies in +-1..2; code 0 would read
    # the last row and code 3 past the end
    with pytest.raises(ValueError, match=rf"^no basis generator has code {abs(code)} for d=3, n=2$"):
        FreeAutomorphism(3, 2, ((code,), (1, -2)))
    assert FreeAutomorphism(3, 2, ((-2,), (1, -2))).table == ((-2,), (1, -2))


@pytest.mark.parametrize(
    "d,n,table,match",
    [
        # x[1,1] -> x[1,1]*x[1,1]^-1*x[1,1] is the identity map, but `==`
        # compares rows literally, so an unreduced row must not get in
        (3, 2, ((1, -1, 1), (2,)), r"^image of generator code 1 is not freely reduced$"),
        (3, 2, ((1,), (1, 2, -2)), r"^image of generator code 2 is not freely reduced$"),
        (1, 3, (), r"^parameter d must be >= 2, got d=1$"),  # rank 0: no ambient group
    ],
)
def test_constructor_rejects_unreduced_rows_and_bad_parameters(d, n, table, match):
    with pytest.raises(ValueError, match=match):
        FreeAutomorphism(d, n, table)


def test_constructor_stores_tuple_rows_that_composites_share():
    # `compose` shares the rows of its second argument, so list rows given
    # to the constructor must not reach a composite as lists
    f = FreeAutomorphism(3, 2, ([1], [2]))
    assert f.table == ((1,), (2,))
    g = compose(identity_automorphism(3, 2), f)
    assert all(type(row) is tuple for row in g.table)
    assert g == identity_automorphism(3, 2)
    assert hash(g) == hash(identity_automorphism(3, 2))


def test_derived_automorphisms_skip_the_code_check(monkeypatch):
    f = braid.half_twist_action(3, 3, 1)
    F = groupoid.lifted_half_twist(3, 3, 2)
    checked = []
    monkeypatch.setattr(FreeAutomorphism, "__post_init__", lambda self: checked.append(self))
    compose(f, f)
    identity_automorphism.__wrapped__(3, 3)
    braid.half_twist_action.__wrapped__(3, 3, 2)
    pi1.functor_to_automorphism(F)
    assert checked == []
    FreeAutomorphism(3, 3, f.table)
    assert len(checked) == 1


def test_word_dataclass_is_hashable_and_immutable():
    u = w(3, 2, "x[1,1]")
    assert hash(u) == hash(w(3, 2, "x[1,1]"))
    with pytest.raises(AttributeError):
        u.codes = ()


def test_format_word_spells_two_digit_indices():
    # code 121 at d = 12 is row (121-1) // 11 + 1 = 11, sheet 120 % 11 + 1 = 11
    assert format_word(words.Word(12, 12, (-121,))) == "x[11,11]^-1"
    assert format_word(words.Word(12, 12, (-121, 1, 11, 1))) == "x[11,11]^-1*x[1,1]*x[1,11]*x[1,1]"
    assert parse_word(12, 12, "x[11,11]^-1") == words.Word(12, 12, (-121,))


def _reduced_codes(rng, size, length):
    codes = []
    while len(codes) < length:
        c = rng.choice((1, -1)) * rng.randint(1, size)
        if not codes or codes[-1] != -c:
            codes.append(c)
    return codes


@pytest.mark.parametrize("d,n", [(2, 2), (4, 3), (12, 12), (3, 40)])
def test_format_word_matches_the_letter_by_letter_reference(d, n):
    # a word longer than the rank is gathered from the token table, a
    # shorter one spelled token by token: both sides of the split, at
    # one- and two-digit indices, and long mixed-sign words
    size = rank(d, n)
    rng = random.Random(d * 1000 + n)
    codes = _reduced_codes(rng, size, 4 * size + 3000)
    for length in (0, 1, size - 1, size, size + 1, size + 2, 2 * size + 1, len(codes)):
        u = Word(d, n, codes[:length])
        assert format_word(u) == reference.spell_word(u)
        assert parse_word(d, n, format_word(u)) == u


def test_format_word_builds_the_token_table_only_past_the_rank():
    # at d = 12, n = 12 the rank is 121: a word of 121 letters spells its
    # own tokens, one of 122 builds the 243-token table once and reuses it
    size = rank(12, 12)
    codes = _reduced_codes(random.Random(12), size, size + 1)
    words._tokens.cache_clear()
    try:
        format_word(Word(12, 12, codes[:size]))
        assert words._tokens.cache_info().misses == 0
        format_word(Word(12, 12, codes))
        format_word(Word(12, 12, codes[::-1]))
        info = words._tokens.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert len(words._tokens("x", 11, 1, size)) == 2 * size + 1
    finally:
        words._tokens.cache_clear()


@pytest.mark.parametrize("length", [1, 5, 6, 7, 40])
def test_a_word_never_holds_a_code_outside_the_basis(length):
    # at d = 4, n = 3 the rank is 6; a word of 7 or more letters is spelled
    # from the 13-token table, where code 7 would index the inverse of
    # code 6 and code -7 the token of code 6, so no word holds such a code
    size = rank(4, 3)
    prefix = ([1, 2] * length)[:length - 1]
    for bad in (0, size + 1, -(size + 1), 2 * size, -2 * size, 2 * size + 1, 10**6):
        with pytest.raises(ValueError, match=f"no basis generator has code {abs(bad)} "
                                             f"for d=4, n=3"):
            Word(4, 3, prefix + [bad])
    u = Word(4, 3, prefix + [size])
    assert len(u) == length and format_word(u) == reference.spell_word(u)


def test_the_word_constructor_checks_the_parameters_and_reduction():
    with pytest.raises(ValueError, match="parameter d must be >= 2"):
        Word(1, 3, ())
    with pytest.raises(ValueError, match="^word is not freely reduced$"):
        Word(3, 3, (1, 2, -2))
    assert Word(3, 3, [1, 2]).codes == (1, 2)
    assert Word(3, 3, [1, 2]) == w(3, 3, "x[1,1]*x[1,2]")


def test_check_index_is_shared_by_both_levels():
    with pytest.raises(ValueError, match=r"^index i must be in 1\.\.2, got i=3$"):
        words.check_index(3, 3, 3, 4)
    for build in (
        lambda: braid.half_twist_action(3, 3, 3),
        lambda: braid.conjugate_twist_action(3, 3, 0),
        lambda: braid.dehn_twist_product(3, 3, 3),
        lambda: groupoid.lifted_half_twist(3, 3, 0),
        lambda: groupoid.lifted_half_twist_inverse(3, 3, 3),
        lambda: groupoid.dehn_twist(3, 3, 3, 1),
        lambda: groupoid.base_half_twist(3, 3),
    ):
        with pytest.raises(ValueError, match=r"^index i must be in 1\.\.2, got i=[03]$"):
            build()
