"""Free-group arithmetic: reduction, group axioms, automorphisms, abelianization."""

import random

import pytest
from hypothesis import given
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
    empty_word,
    equal,
    format_word,
    generator,
    identity_automorphism,
    identity_matrix,
    invert,
    matrix_determinant,
    matrix_multiply,
    multiply,
    parse_word,
    rank,
    word,
)

import strategies


def w(d, n, text):
    return parse_word(d, n, text)


# -- reduce -------------------------------------------------------------------

def test_reduce_cancels_adjacent_inverse_pair():
    assert word(3, 2, [(1, 1, 1), (1, 1, -1)]) == empty_word(3, 2)


def test_reduce_cancels_inner_pair():
    got = word(3, 2, [(1, 1, 1), (1, 2, 1), (1, 2, -1), (1, 1, 1)])
    assert got == w(3, 2, "x[1,1]*x[1,1]")


@given(strategies.words_with_params())
def test_reduce_is_idempotent(data):
    d, n, u = data
    assert word(d, n, [(s.i, s.j, sign) for (s, sign) in u.letters]) == u


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
    u = word(d, n, letters)
    raw = words._encode(d, n, letters)
    assert _schedule_reduce(random.Random(seed), raw) == u.codes


def test_sheet_index_d_expands_on_construction():
    # x[1,3] with d=3 is the dependent symbol (x[1,1]*x[1,2])^-1
    assert generator(3, 2, 1, 3) == w(3, 2, "x[1,2]^-1*x[1,1]^-1")
    assert generator(3, 2, 1, 3, -1) == w(3, 2, "x[1,1]*x[1,2]")
    # the sheet index wraps mod d
    assert generator(3, 2, 1, 4) == generator(3, 2, 1, 1)


# -- multiply / invert / conjugate ---------------------------------------------

def test_multiply_examples():
    assert multiply(w(3, 2, "x[1,1]"), w(3, 2, "x[1,1]^-1")) == empty_word(3, 2)
    u = w(3, 2, "x[1,1]*x[1,2]")
    assert multiply(empty_word(3, 2), u) == u
    got = multiply(w(3, 3, "x[1,1]*x[1,2]"), w(3, 3, "x[1,2]^-1*x[2,1]"))
    assert got == w(3, 3, "x[1,1]*x[2,1]")


def test_multiply_rejects_mixed_parameters():
    with pytest.raises(ParameterMismatchError):
        multiply(w(3, 2, "x[1,1]"), w(3, 3, "x[1,1]"))


@given(strategies.words_with_params(count=3, max_size=64))
def test_group_axioms(data):
    d, n, u, v, t = data
    assert multiply(multiply(u, v), t) == multiply(u, multiply(v, t))
    e = empty_word(d, n)
    assert multiply(u, e) == u and multiply(e, u) == u
    assert multiply(u, invert(u)) == e
    assert invert(multiply(u, v)) == multiply(invert(v), invert(u))


def test_invert_examples():
    assert invert(w(3, 2, "x[1,1]*x[1,2]")) == w(3, 2, "x[1,2]^-1*x[1,1]^-1")
    assert invert(empty_word(3, 2)) == empty_word(3, 2)


@given(strategies.words_with_params())
def test_invert_is_an_involution(data):
    _, _, u = data
    assert invert(invert(u)) == u


def test_conjugate_examples():
    assert conjugate(w(3, 2, "x[1,1]"), empty_word(3, 2)) == w(3, 2, "x[1,1]")
    assert conjugate(empty_word(3, 2), w(3, 2, "x[1,2]")) == empty_word(3, 2)
    got = conjugate(w(3, 3, "x[2,1]"), w(3, 3, "x[1,1]"))
    assert got == w(3, 3, "x[1,1]^-1*x[2,1]*x[1,1]")


# -- apply / compose / equal ---------------------------------------------------

def test_apply_identity_fixes_words():
    u = w(4, 3, "x[1,2]*x[2,3]^-1*x[1,1]")
    assert apply(identity_automorphism(4, 3), u) == u


def test_apply_substitutes_and_reduces():
    f = braid.half_twist_action(3, 2, 1)  # sends x[1,1] to x[1,2]^-1
    assert apply(f, w(3, 2, "x[1,1]*x[1,1]")) == w(3, 2, "x[1,2]^-1*x[1,2]^-1")
    assert apply(f, empty_word(3, 2)) == empty_word(3, 2)


@given(strategies.words_with_params(count=2, max_size=24), st.integers(1, 10**6))
def test_apply_is_a_homomorphism(data, pick):
    d, n, u, v = data
    f = braid.generator_action(d, n, pick % (n - 1) + 1)
    assert apply(f, multiply(u, v)) == multiply(apply(f, u), apply(f, v))
    assert apply(f, invert(u)) == invert(apply(f, u))


def test_compose_identity_is_neutral():
    f = braid.half_twist_action(3, 3, 1)
    assert compose(f, identity_automorphism(3, 3)) == f
    assert compose(identity_automorphism(3, 3), f) == f


@pytest.mark.parametrize("d,n", [(2, 3), (3, 3), (4, 4), (5, 3)])
def test_compose_generator_with_inverse_is_identity(d, n):
    for i in range(1, n):
        f = braid.generator_action(d, n, i)
        g = braid.generator_action(d, n, -i)
        assert equal(compose(f, g), identity_automorphism(d, n))
        assert equal(compose(g, f), identity_automorphism(d, n))


def test_compose_satisfies_the_braid_relation():
    f1 = braid.half_twist_action(3, 3, 1)
    f2 = braid.half_twist_action(3, 3, 2)
    assert equal(compose(compose(f1, f2), f1), compose(compose(f2, f1), f2))


@given(strategies.braid_letters_with_params(max_size=6))
def test_compose_is_associative(data):
    d, n, letters = data
    auts = [braid.generator_action(d, n, s) for s in letters[:3]]
    if len(auts) < 3:
        return
    f, g, h = auts
    assert equal(compose(compose(f, g), h), compose(f, compose(g, h)))


def test_equal_examples():
    assert equal(identity_automorphism(3, 2), identity_automorphism(3, 2))
    assert not equal(braid.half_twist_action(3, 2, 1), identity_automorphism(3, 2))


@given(strategies.braid_letters_with_params(max_size=5))
def test_equal_is_reflexive_and_symmetric(data):
    d, n, letters = data
    f = braid.evaluate(braid.BraidWord(d, n, letters))
    g = braid.evaluate(braid.BraidWord(d, n, letters[::-1]))
    assert equal(f, f)
    assert equal(f, g) == equal(g, f)


# -- abelianize -----------------------------------------------------------------

def _exponent_matrix(f: FreeAutomorphism):
    # independent oracle: tally signed generator occurrences per image
    r = rank(f.d, f.n)
    rows = []
    for img in f.images:
        counts = [0] * r
        for letter in img.letters:
            idx = (letter.symbol.i - 1) * (f.d - 1) + letter.symbol.j - 1
            counts[idx] += letter.sign
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
    assert format_word(empty_word(4, 3)) == "1"
    assert parse_word(4, 3, "1") == empty_word(4, 3)


@given(strategies.words_with_params())
def test_any_word_round_trips_through_text(data):
    d, n, u = data
    assert parse_word(d, n, format_word(u)) == u


@pytest.mark.parametrize("bad", ["x[1]", "y[1,1]", "x[1,1]^2", "x[a,1]", "x[1,1]*"])
def test_parse_word_rejects_bad_tokens(bad):
    with pytest.raises(ValueError):
        parse_word(3, 3, bad)


def test_out_of_range_symbol_rejected():
    with pytest.raises(ValueError):
        generator(3, 3, 3, 1)  # i must be <= n-1
    with pytest.raises(ValueError):
        word(3, 3, [(0, 1, 1)])


def test_letter_budget_guard(monkeypatch):
    monkeypatch.setattr(words, "LETTER_BUDGET", 8)
    with pytest.raises(BudgetExceededError):
        word(3, 2, [(1, 1, 1)] * 9)
    f = braid.half_twist_action(3, 2, 1)
    with pytest.raises(BudgetExceededError):
        apply(f, Word(3, 2, (2,) * 8))


def test_reduce_accepts_letter_objects():
    from braidcover.words import GeneratorSymbol, Letter

    letters = [Letter(GeneratorSymbol(1, 1), 1), Letter(GeneratorSymbol(1, 2), -1)]
    assert words.reduce(3, 2, letters) == w(3, 2, "x[1,1]*x[1,2]^-1")


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
        # x[1,1] -> x[1,1]*x[1,1]^-1*x[1,1] is the identity map, but `equal`
        # compares rows literally, so an unreduced row must not get in
        (3, 2, ((1, -1, 1), (2,)), r"^image of generator code 1 is not freely reduced$"),
        (3, 2, ((1,), (1, 2, -2)), r"^image of generator code 2 is not freely reduced$"),
        (1, 3, (), r"^parameter d must be >= 2, got d=1$"),  # rank 0: no ambient group
    ],
)
def test_constructor_rejects_unreduced_rows_and_bad_parameters(d, n, table, match):
    with pytest.raises(ValueError, match=match):
        FreeAutomorphism(d, n, table)


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
