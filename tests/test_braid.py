"""The braid action itself: closed forms, evaluation, twist factorization."""

import functools
import importlib.util
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidcover import braid, groupoid, pi1, words
from braidcover.errors import BudgetExceededError
from braidcover.groupoid import GroupoidFunctor
from braidcover.braid import (
    BraidWord,
    CheckResult,
    Report,
    braid_matrix,
    check_braid_relations,
    check_cross_validation,
    check_dehn_factorization,
    check_lift_projection,
    conjugate_twist_action,
    dehn_twist_product,
    evaluate,
    format_braid,
    generator_action,
    half_twist_action,
    parse_braid,
    run_suite,
)
from braidcover.words import (
    compose,
    identity_automorphism,
    identity_matrix,
    matrix_multiply,
    parse_word,
)

import reference
import strategies
from reference import matrix_determinant


# -- closed-form generator action -----------------------------------------------

def test_middle_row_first_sheet():
    assert half_twist_action(3, 2, 1).image(1, 1) == parse_word(3, 2, "x[1,2]^-1")


def test_middle_row_top_sheet():
    # the j+1 = d case: the dependent symbol expands and one letter cancels;
    # the groupoid route is the independent cross-check
    f = half_twist_action(3, 2, 1)
    assert f.image(1, 2) == parse_word(3, 2, "x[1,2]*x[1,1]")
    g = pi1.functor_to_automorphism(groupoid.lifted_half_twist(3, 2, 1))
    assert f.image(1, 2) == g.image(1, 2)


def test_upper_row_first_sheet():
    assert half_twist_action(3, 3, 1).image(2, 1) == parse_word(3, 3, "x[2,1]*x[1,1]")


def test_lower_row_uses_conjugating_prefixes():
    f = half_twist_action(3, 3, 2)
    assert f.image(1, 1) == parse_word(3, 3, "x[2,2]*x[1,1]")
    assert f.image(1, 2) == parse_word(3, 3, "x[1,1]^-1*x[2,2]^-1*x[2,1]^-1*x[1,1]*x[1,2]")


def test_far_generators_are_fixed():
    f = half_twist_action(3, 4, 1)
    assert f.image(3, 1) == parse_word(3, 4, "x[3,1]")
    assert f.image(3, 2) == parse_word(3, 4, "x[3,2]")


def test_generator_index_range():
    with pytest.raises(ValueError):
        half_twist_action(3, 3, 0)
    with pytest.raises(ValueError):
        half_twist_action(3, 3, 3)


def test_degenerate_two_sheet_two_point_cover_acts_trivially():
    # rank one: the lift is a twist along the single core loop, which the
    # surface group cannot see
    assert half_twist_action(2, 2, 1) == identity_automorphism(2, 2)


def test_generator_actions_are_nontrivial():
    for d in range(2, 7):
        for n in range(2, 8):
            if (d, n) == (2, 2):
                continue
            for i in range(1, n):
                assert half_twist_action(d, n, i) != identity_automorphism(d, n)


# -- conjugate assembly ------------------------------------------------------------

def test_conjugate_form_first_clause_example():
    f = conjugate_twist_action(3, 3, 2)
    assert f.image(1, 1) == parse_word(3, 3, "x[2,2]*x[1,1]")


@pytest.mark.parametrize("d", range(2, 7))
@pytest.mark.parametrize("n", range(2, 7))
def test_conjugate_form_matches_closed_form(d, n):
    for i in range(1, n):
        assert conjugate_twist_action(d, n, i) == half_twist_action(d, n, i)


@pytest.mark.parametrize("d,n", [(d, n) for d in range(2, 10) for n in range(2, 10)]
                         + [(20, 20), (30, 10), (10, 30)])
def test_the_formula_tables_match_their_letter_by_letter_references(d, n):
    # every row of both formula routes, built from code runs, equals the
    # (i, j, sign) transcription reduced one letter at a time, and every row
    # outside i-1..i+1 is the identity automorphism's row object
    fixed = identity_automorphism(d, n).table
    for i in range(1, n):
        for build, by_letters in ((half_twist_action, reference.closed_form_by_letters),
                                  (conjugate_twist_action, reference.conjugate_form_by_letters)):
            table = build(d, n, i).table
            assert all(type(row) is tuple for row in table)
            assert table == by_letters(d, n, i)
            band = range((i - 2) * (d - 1), (i + 1) * (d - 1))
            assert all(row is fixed[k] for k, row in enumerate(table) if k not in band)


# -- braid words and evaluation -----------------------------------------------------

def test_braid_word_validation():
    with pytest.raises(ValueError):
        BraidWord(3, 3, (0,))
    with pytest.raises(ValueError):
        BraidWord(3, 3, (3,))
    with pytest.raises(ValueError):
        BraidWord(3, 3, (-5,))


def test_parse_and_format_braid():
    bw = parse_braid(3, 4, "1 2 -1")
    assert bw == BraidWord(3, 4, (1, 2, -1))
    assert format_braid(bw) == "1 2 -1"
    with pytest.raises(ValueError):
        parse_braid(3, 4, "1 x")


def test_parse_braid_reads_only_ascii_signed_integers():
    # `int` alone reads "1_2" as the letter 12 and the Arabic-Indic digit
    # "١" as 1, so a typo would evaluate a different braid
    assert parse_braid(3, 13, "+1 -12 2").letters == (1, -12, 2)
    for text in ("1_2", "١", "1 ٢", "1_2 3", "+-1", "１"):
        with pytest.raises(ValueError, match="^cannot parse braid word"):
            parse_braid(3, 13, text)


def test_evaluate_generator_times_inverse_is_identity():
    assert evaluate(parse_braid(3, 2, "1 -1")) == identity_automorphism(3, 2)


def test_evaluate_empty_word_is_identity():
    assert evaluate(BraidWord(4, 4, ())) == identity_automorphism(4, 4)


def test_evaluate_satisfies_the_braid_relation():
    lhs = evaluate(parse_braid(3, 3, "1 2 1"))
    rhs = evaluate(parse_braid(3, 3, "2 1 2"))
    assert lhs == rhs


def test_evaluate_far_commutation():
    lhs = evaluate(parse_braid(3, 4, "1 3"))
    rhs = evaluate(parse_braid(3, 4, "3 1"))
    assert lhs == rhs


@given(strategies.braid_letters_with_params(max_size=10))
def test_evaluate_is_multiplicative(data):
    d, n, letters = data
    half = len(letters) // 2
    u, v = letters[:half], letters[half:]
    lhs = evaluate(BraidWord(d, n, letters))
    rhs = compose(evaluate(BraidWord(d, n, u)), evaluate(BraidWord(d, n, v)))
    assert lhs == rhs


@settings(max_examples=40)
@given(strategies.braid_letters_with_params(max_size=10))
def test_evaluate_inverse_law(data):
    d, n, letters = data
    bw = BraidWord(d, n, letters)
    inverse = BraidWord(d, n, tuple(-s for s in reversed(letters)))
    assert compose(evaluate(bw), evaluate(inverse)) == identity_automorphism(d, n)


@given(strategies.braid_letters_with_params(max_size=10))
@example((3, 3, ()))
def test_evaluate_equals_the_left_fold(data):
    d, n, letters = data
    actions = (generator_action(d, n, s) for s in letters)
    left = functools.reduce(compose, actions, identity_automorphism(d, n))
    got = evaluate(BraidWord(d, n, letters))
    assert got.table == left.table
    assert all(type(row) is tuple for row in got.table)


@pytest.mark.parametrize("letters,root,k", [
    ((), (), 1),
    ((2,), (2,), 1),
    ((1, 2, 1), (1, 2, 1), 1),
    ((1, -2) * 7, (1, -2), 7),
    ((1, 2, -3) * 5, (1, 2, -3), 5),
    ((1, 2) * 3 + (1,), (1, 2) * 3 + (1,), 1),  # period 2 does not divide the length
    ((1, 1, 2) * 2 + (1, 1), (1, 1, 2) * 2 + (1, 1), 1),
    ((-1,) * 6, (-1,), 6),
], ids=["empty", "one-letter", "aperiodic", "ladder", "prime-power", "odd-period",
        "long-period", "letter-power"])
def test_power_root_is_the_shortest_root(letters, root, k):
    assert braid._power_root(letters) == (root, k)


def _right_fold(d, n, letters):
    """Product of the letters' actions, folded one letter at a time from the right."""
    product = identity_automorphism(d, n)
    for letter in reversed(letters):
        product = compose(generator_action(d, n, letter), product)
    return product


@given(strategies.braid_letters_with_params(max_size=3), st.integers(1, 6))
@example((3, 3, ()), 4)
@example((3, 3, (1, -2)), 6)
def test_evaluating_a_power_equals_the_letter_fold(data, k):
    d, n, root = data
    letters = root * k
    got = evaluate(BraidWord(d, n, letters))
    assert got.table == _right_fold(d, n, letters).table
    assert all(type(row) is tuple for row in got.table)


@pytest.mark.parametrize("root,d,n", [((1, -2), 3, 3), ((-1, 2, 3), 3, 4), ((2,), 4, 3)])
@pytest.mark.parametrize("k", range(1, 14))
def test_a_power_folds_its_root_once_then_squares(monkeypatch, root, d, n, k):
    # the root is folded with the identity appended, |u| compositions; then
    # each bit of k after the leading one takes R(m) to R(2m) or R(2m + 1):
    # a set bit first composes the root's product, passed first, with R(m)
    # into R(m + 1); then R(m), passed first, is composed with R(m) or
    # R(m + 1), so the last composition takes R(floor(k/2)) first
    calls = []

    def noted(f, g, compose=words.compose):
        calls.append((f, g, compose(f, g)))
        return calls[-1][2]

    monkeypatch.setattr(words, "compose", noted)
    got = evaluate(BraidWord(d, n, root * k))
    assert len(calls) == len(root) + k.bit_length() - 1 + bin(k).count("1") - 1
    root_product = power = calls[len(root) - 1][2]
    steps = iter(calls[len(root):])
    for bit in bin(k)[3:]:
        rest = power
        if bit == "1":
            f, g, rest = next(steps)
            assert f is root_product and g is power
        f, g, power_next = next(steps)
        assert f is power and g is rest
        power = power_next
    assert next(steps, None) is None
    assert got is power
    assert got.table == _right_fold(d, n, root * k).table


@given(strategies.braid_letters_with_params(max_n=6, max_size=6), st.integers(0, 10**6))
def test_compose_shares_the_rows_a_generator_fixes(data, pick):
    d, n, letters = data
    acc = evaluate(BraidWord(d, n, letters))
    i, sign = divmod(pick % (2 * (n - 1)), 2)
    g = generator_action(d, n, (i + 1) * (1 - 2 * sign))
    fixed = [k for k, row in enumerate(g.table) if row == (k + 1,)]
    assert len(fixed) >= words.rank(d, n) - 3 * (d - 1)
    composite = compose(g, acc)
    assert all(composite.table[k] is acc.table[k] for k in fixed)


def _checked(compose):
    """`compose`, checking each composite against the fold that pushes every
    row (`reference.compose_every_row`): equal tables, each row the first
    factor fixes is the later factor's row itself, and `words._moved` of
    the composite covers every row it moves."""
    def step(f, g):
        h = compose(f, g)
        assert h.table == reference.compose_every_row(f.table, g.table)
        assert all(h.table[c - 1] is g.table[c - 1]
                   for c, row in enumerate(f.table, 1) if row == (c,))
        moved = words._moved(h)
        assert all(c in moved and -c in moved
                   for c, row in enumerate(h.table, 1) if row != (c,))
        return h
    return step


@st.composite
def products(draw):
    """(compose, factors): 1 to 6 maps at d, n in 2..6, either the actions of
    signed generators or functors among the lifts, the inverse lifts and
    the Dehn twists at any sheet."""
    d, n = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    index = st.integers(1, n - 1)
    if draw(st.booleans()):
        letter = index.flatmap(lambda i: st.sampled_from((i, -i)))
        factor = letter.map(functools.partial(generator_action, d, n))
        return words.compose, draw(st.lists(factor, min_size=1, max_size=6))
    factor = st.one_of(
        index.map(functools.partial(groupoid.lifted_half_twist, d, n)),
        index.map(functools.partial(groupoid.lifted_half_twist_inverse, d, n)),
        st.builds(functools.partial(groupoid.dehn_twist, d, n), index, st.integers(-1, 2 * d + 1)),
    )
    return groupoid.compose_functors, draw(st.lists(factor, min_size=1, max_size=6))


@settings(max_examples=200)
@given(products())
def test_composites_match_the_fold_that_pushes_every_row(case):
    # folded from the right, as `braid` folds, the first factor is a single
    # map; folded from the left, it is a composite, whose moved set is the
    # union of its factors' and may name rows it fixes
    compose, factors = case
    right = braid._product(_checked(compose), factors)
    assert functools.reduce(_checked(compose), factors) == right


def test_a_long_power_composes_like_the_fold_that_pushes_every_row(monkeypatch):
    # eval-long's golden ladder: the root's last letter keeps its rows whole
    # against the identity, and each squaring composes a power with itself,
    # whose moved set is the join of one set with itself; R(5) composes R(2)
    # with R(3), whose moved set joins the root's with R(2)'s
    monkeypatch.setattr(words, "compose", _checked(words.compose))
    assert sum(map(len, evaluate(BraidWord(3, 3, (1, -2) * 10)).table)) == 140_618


@pytest.mark.parametrize("d,n,pushed", [(6, 9, 1036), (20, 20, 9674)])
def test_relations_push_only_rows_with_a_letter_the_later_factor_moves(monkeypatch, d, n,
                                                                       pushed):
    # pushing every row a generator moves took 2,230 and 43,504 substitutions
    half_twist_action.cache_clear()
    groupoid.lifted_half_twist.cache_clear()
    calls = []
    substitute = words._substitute
    monkeypatch.setattr(words, "_substitute", lambda *args: calls.append(1) or substitute(*args))
    assert check_braid_relations(d, n).all_passed
    assert len(calls) == pushed


@pytest.mark.parametrize("d,n", [(2, 6), (4, 7), (20, 20)])
def test_far_generators_keep_the_rows_they_move_whole(d, n):
    # at |i - k| >= 3 no row generator i moves names a row generator k
    # moves, so the composite holds generator i's rows themselves
    for act, compose_maps in ((half_twist_action, compose),
                              (groupoid.lifted_half_twist, groupoid.compose_functors)):
        for i, k in ((i, k) for i in range(1, n) for k in range(1, n) if abs(i - k) >= 3):
            f = act(d, n, i)
            composite = compose_maps(f, act(d, n, k))
            moved = [c for c, row in enumerate(f.table) if row != (c + 1,)]
            assert moved and all(composite.table[c] is f.table[c] for c in moved)


def test_inverse_generator_comes_from_the_inverse_lift():
    got = generator_action(4, 3, -2)
    via_functor = pi1.functor_to_automorphism(groupoid.lifted_half_twist_inverse(4, 3, 2))
    assert got == via_functor


@pytest.mark.parametrize("d,n", [(d, n) for d in range(2, 7) for n in range(2, 8)] + [(20, 20)])
def test_inverse_generators_cancel_the_generators(d, n):
    # no suite builds an inverse generator, so this pins the table behind
    # every negative letter: the inverse lift's translation cancels the
    # closed form in both orders (the functors themselves cancel in
    # test_groupoid.py::test_inverse_lift_cancels_the_lift, on the same grid)
    identity = identity_automorphism(d, n)
    for i in range(1, n):
        f, g = half_twist_action(d, n, i), generator_action(d, n, -i)
        assert compose(f, g) == identity and compose(g, f) == identity, i


@settings(max_examples=40)
@given(strategies.braid_letters_with_params(max_size=8))
def test_functor_route_evaluation_matches_the_closed_form(data):
    # compose the lifts on the graph, translate once at the end; must equal
    # composing the closed-form automorphisms letter by letter
    d, n, letters = data
    composite = groupoid.identity_functor(d, n)
    for s in letters:
        lift = (
            groupoid.lifted_half_twist(d, n, s)
            if s > 0
            else groupoid.lifted_half_twist_inverse(d, n, -s)
        )
        composite = groupoid.compose_functors(composite, lift)
    assert pi1.functor_to_automorphism(composite) == evaluate(BraidWord(d, n, letters))


# -- twist factorization --------------------------------------------------------------

@pytest.mark.parametrize("d,n", [(3, 2), (4, 3), (2, 4), (5, 5)])
def test_twist_product_equals_the_generator_action(d, n):
    for i in range(1, n):
        assert dehn_twist_product(d, n, i) == half_twist_action(d, n, i)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_two_sheet_cover_needs_a_single_twist(n):
    for i in range(1, n):
        single = pi1.functor_to_automorphism(groupoid.dehn_twist(2, n, i, 2))
        assert single == half_twist_action(2, n, i)
        assert single == dehn_twist_product(2, n, i)


def _translations(monkeypatch):
    """The list that each functor `pi1.functor_to_automorphism` translates
    is appended to from now on."""
    translated, translate = [], pi1.functor_to_automorphism
    monkeypatch.setattr(pi1, "functor_to_automorphism",
                        lambda F: translated.append(F) or translate(F))
    return translated


@pytest.mark.parametrize("d,n,entries", [(2, 4, 1), (5, 3, 4), (8, 3, 7)])
def test_a_twist_product_builds_no_twist_it_does_not_use(monkeypatch, d, n, entries):
    # the twist at sheet d is written out, the product starts from its deck
    # translate at sheet 2, and every other factor is a deck translate of a
    # product of twists: following the sheets each functor on the way spans,
    # none spans sheet 1, each composite joins two disjoint runs, and the
    # product spans sheets d..2 in the order they act; only the written
    # table is kept
    spans = {}

    def noted(F, sheets):
        spans[id(F)] = (F, sheets)  # F kept, so its id is not reused
        return F

    twist, shift, compose = groupoid.dehn_twist, groupoid._deck_shift, groupoid.compose_functors

    def joined(f, g):
        assert set(spans[id(f)][1]).isdisjoint(spans[id(g)][1])
        return noted(compose(f, g), spans[id(f)][1] + spans[id(g)][1])

    monkeypatch.setattr(groupoid, "dehn_twist", lambda d, n, i, j: noted(twist(d, n, i, j), [j]))
    monkeypatch.setattr(groupoid, "_deck_shift", lambda F, i, m: noted(
        shift(F, i, m), [(sheet + m - 1) % d + 1 for sheet in spans[id(F)][1]]))
    monkeypatch.setattr(groupoid, "compose_functors", joined)
    translated = _translations(monkeypatch)
    groupoid._written_dehn_twist.cache_clear()
    try:
        noted(groupoid._written_dehn_twist(d, n, 1), [d])
        dehn_twist_product(d, n, 1)
        sheets = spans[id(translated[0])][1]
        assert sheets == list(range(d, 1, -1)) and len(sheets) == entries
        assert all(1 not in sheets for _, sheets in spans.values())
        assert groupoid._written_dehn_twist.cache_info().currsize == 1
    finally:
        groupoid._written_dehn_twist.cache_clear()


@pytest.mark.parametrize("d,n", [(d, n) for d in range(2, 13) for n in range(2, 8)]
                         + [(20, 20), (30, 10)])
def test_the_doubled_twist_product_is_the_fold(monkeypatch, d, n):
    # the functor `dehn_twist_product` translates has the table of the fold
    # over all d-1 twists, each composite checked against the composition
    # that pushes every row (so the moved set a deck-shifted product shares
    # covers its rows), and the validating constructor accepts it
    translated = _translations(monkeypatch)
    monkeypatch.setattr(groupoid, "compose_functors", _checked(groupoid.compose_functors))
    for i in range(1, n):
        dehn_twist_product(d, n, i)
        table = translated.pop().table
        assert table == reference.twist_fold(d, n, i).table, i
        assert GroupoidFunctor(d, n, table).table == table


def test_a_twist_product_composes_once_per_doubling_and_set_bit(monkeypatch):
    # floor(log2(d-1)) doublings, and one more step for each set bit of d-1
    # after the leading one, against d-2 compositions of the fold
    calls = []
    compose = groupoid.compose_functors
    monkeypatch.setattr(groupoid, "compose_functors",
                        lambda f, g: calls.append(1) or compose(f, g))
    for d in range(2, 41):
        k = d - 1
        assert dehn_twist_product(d, 3, 1) == half_twist_action(d, 3, 1)
        assert len(calls) == k.bit_length() - 1 + bin(k).count("1") - 1, d
        calls.clear()


@settings(max_examples=60)
@given(strategies.braid_letters_with_params(max_d=3, max_n=4, max_size=2), st.integers(1, 12))
def test_a_power_by_doubling_is_the_fold_of_its_copies(data, k):
    d, n, letters = data
    f = braid._product(compose, [generator_action(d, n, s) for s in letters]
                       + [identity_automorphism(d, n)])
    assert braid._power(compose, f, k).table == braid._product(compose, [f] * k).table


def test_a_power_puts_the_last_translate_first():
    # runs of integers, composed by concatenation in the order they act and
    # shifted by adding: the product of the k translates of (0,) lists
    # F_{k-1} first and F_0 last, as the twist product lists D_d first, in
    # floor(log2 k) + popcount(k) - 1 compositions
    for k in range(1, 65):
        calls = []
        run = braid._power(lambda f, g: calls.append(1) or f + g, (0,), k,
                           lambda f, m: tuple(t + m for t in f))
        assert run == tuple(range(k - 1, -1, -1)), k
        assert len(calls) == k.bit_length() - 1 + bin(k).count("1") - 1, k


def test_twist_product_fixes_far_generators():
    f = dehn_twist_product(3, 4, 1)
    assert f.image(3, 1) == parse_word(3, 4, "x[3,1]")


def test_each_twist_fixes_its_own_core_loop():
    for d in range(2, 6):
        for n in range(2, 5):
            for i in range(1, n):
                for j in range(1, d + 1):
                    f = pi1.functor_to_automorphism(groupoid.dehn_twist(d, n, i, j))
                    core = words.reduce(d, n, [(i, j, 1)])
                    assert words.apply(f, core) == core


@pytest.mark.parametrize("d,expect_swap", [(2, True), (3, False), (4, True), (5, False)])
def test_twist_product_swaps_vertices_only_for_even_sheet_counts(d, expect_swap):
    # the factorization is an automorphism-level identity: the (d-1)-fold
    # product moves the two interior vertices only when d-1 is odd, while
    # the lift always swaps them
    F = groupoid.identity_functor(d, 3)
    for j in range(d, 1, -1):
        F = groupoid.compose_functors(F, groupoid.dehn_twist(d, 3, 1, j))
    swapped = F.vertex(groupoid.interior(1)) == groupoid.interior(2)
    assert swapped == expect_swap
    lift = groupoid.lifted_half_twist(d, 3, 1)
    assert lift.vertex(groupoid.interior(1)) == groupoid.interior(2)


def test_relation_sides_and_the_twist_product_fold_from_the_right(monkeypatch):
    # Folded from the right, every composition of a relation side takes one
    # cached factor first; a left fold would pass the composite of the
    # earlier factors.  The twist product doubles instead: each composition
    # takes first a deck translate of the product so far.
    factors = [f for i in range(1, 5)
               for f in (half_twist_action(4, 5, i), groupoid.lifted_half_twist(4, 5, i))]
    shifts = []
    shift = groupoid._deck_shift
    monkeypatch.setattr(groupoid, "_deck_shift",
                        lambda *args: shifts.append(shift(*args)) or shifts[-1])
    firsts = []
    for module, name in ((words, "compose"), (groupoid, "compose_functors")):
        def first_noted(f, g, compose=getattr(module, name)):
            firsts.append(f)
            return compose(f, g)
        monkeypatch.setattr(module, name, first_noted)
    assert check_braid_relations(4, 5).all_passed
    assert dehn_twist_product(5, 3, 1) == half_twist_action(5, 3, 1)
    # 3 braid relations of two compositions a side and 3 far commutations
    # of one, at two levels; then 2 doublings of the sheet-2 twist to the
    # 4 Dehn twists, after the shift that derives that twist
    assert len(firsts) == 2 * 2 * (3 * 2 + 3 * 1) + 2
    assert all(any(f is factor for factor in factors) for f in firsts[:-2])
    assert len(shifts) == 3 and all(f is g for f, g in zip(firsts[-2:], shifts[1:]))


# -- abelianized layer -------------------------------------------------------------------

def test_matrix_of_the_empty_braid():
    assert braid_matrix(BraidWord(3, 3, ())) == identity_matrix(4)


def test_matrix_of_one_generator():
    assert braid_matrix(parse_braid(3, 2, "1")) == ((0, -1), (1, 1))


def test_matrix_braid_relation():
    lhs = braid_matrix(parse_braid(3, 3, "1 2 1"))
    rhs = braid_matrix(parse_braid(3, 3, "2 1 2"))
    assert lhs == rhs


@given(strategies.braid_letters_with_params(max_size=12))
def test_matrix_is_multiplicative_and_unimodular(data):
    d, n, letters = data
    half = len(letters) // 2
    whole = braid_matrix(BraidWord(d, n, letters))
    left = braid_matrix(BraidWord(d, n, letters[:half]))
    right = braid_matrix(BraidWord(d, n, letters[half:]))
    assert whole == matrix_multiply(left, right)
    assert matrix_determinant(whole) in (1, -1)


# -- verification reports ------------------------------------------------------------------

def test_relation_report_passes_and_is_ordered():
    report = check_braid_relations(3, 4)
    assert report.all_passed
    assert [c.name for c in report] == [
        "braid_relation i=1 functor",
        "braid_relation i=1 automorphism",
        "braid_relation i=2 functor",
        "braid_relation i=2 automorphism",
        "far_commutation i=1 k=3 functor",
        "far_commutation i=1 k=3 automorphism",
    ]


def test_dehn_and_lift_and_cross_reports_pass():
    assert check_dehn_factorization(4, 3).all_passed
    assert check_lift_projection(3, 4).all_passed
    assert check_cross_validation(5, 3).all_passed


def test_run_suite_all_concatenates_in_order():
    report = run_suite(3, 3, "all")
    assert report.all_passed
    names = [c.name for c in report]
    assert names[0].startswith("braid_relation")
    assert names[-1].startswith("cross_validation")
    assert len(report) == len(run_suite(3, 3, "relations")) + len(
        run_suite(3, 3, "dehn")
    ) + len(run_suite(3, 3, "lift")) + len(run_suite(3, 3, "cross"))


def test_desk_grids_match_the_benchmark_copy():
    # bench/ imports only the standard library, so it keeps its own copy of
    # the grids; load it read-only by path and pin the two together
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_bench_workloads", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    assert tuple((suite, tuple(grid)) for suite, grid in bench.DESK_GRIDS) == braid.DESK_GRIDS
    assert [suite for suite, _ in braid.DESK_GRIDS] == list(braid.SUITES)
    assert sum(len(run_suite(d, n, suite)) for suite, grid in braid.DESK_GRIDS
               for d, n in grid) == 645


def test_run_suite_rejects_unknown_names():
    with pytest.raises(ValueError):
        run_suite(3, 3, "everything")


def test_the_check_counts_are_the_suites_own():
    for d, n in ((2, 2), (3, 3), (2, 6), (4, 5)):
        for suite in braid.SUITES:
            assert braid._check_count(n, suite) == len(run_suite(d, n, suite))


@pytest.mark.parametrize("suite,n,checks", [
    ("relations", 7, 30), ("dehn", 32, 31), ("lift", 32, 31), ("cross", 17, 32), ("all", 5, 28),
])
def test_a_suite_of_more_checks_than_the_budget_is_refused_before_any_table(monkeypatch, suite,
                                                                            n, checks):
    # one check fewer than the budget runs; one more is refused naming the
    # suite, (d, n) and the count, and no generator, lift or twist is built
    def never(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(words, "LETTER_BUDGET", checks - 1)
    for module, name in ((braid, "half_twist_action"), (braid, "conjugate_twist_action"),
                         (groupoid, "lifted_half_twist"), (groupoid, "dehn_twist"),
                         (groupoid, "verify_lift")):
        monkeypatch.setattr(module, name, never)
    with pytest.raises(BudgetExceededError, match=(
            f"^the {suite} suite at d=3, n={n} runs {checks} checks, more than the letter "
            f"budget of {checks - 1}$")):
        run_suite(3, n, suite)
    monkeypatch.setattr(words, "LETTER_BUDGET", checks)
    ran = []
    for name, checker in braid.SUITES.items():
        monkeypatch.setattr(braid, checker.__name__,
                            lambda d, n, name=name: ran.append(name) or Report(()))
    run_suite(3, n, suite)
    assert ran == (list(braid.SUITES) if suite == "all" else [suite])


def test_the_check_count_is_refused_after_the_parameters_are_checked():
    with pytest.raises(ValueError, match="^parameter d must be >= 2, got d=1$"):
        run_suite(1, 100_000, "relations")
    with pytest.raises(BudgetExceededError, match="runs 9999700002 checks"):
        run_suite(2, 100_000, "relations")


def test_failing_comparison_names_the_first_differing_generator():
    result = braid._compare(
        "probe", half_twist_action(3, 2, 1), identity_automorphism(3, 2)
    )
    assert not result.passed
    assert result.detail.startswith("x[1,1]:")
    report = Report((result, CheckResult("fine", True)))
    assert not report.all_passed


def test_failing_functor_comparison_names_the_first_differing_edge():
    lift = groupoid.lifted_half_twist(3, 2, 1)
    result = braid._compare("probe", lift, groupoid.dehn_twist(3, 2, 1, 2))
    assert not result.passed
    assert result.detail == "e[0,3]: e[0,3]*e[1,1] != e[0,3]*e[1,2]"
    result = braid._compare("probe", lift, groupoid.identity_functor(3, 2))
    assert (result.passed, result.detail) == (False, "e[0,1]: e[0,1]*e[1,2] != e[0,1]")


def test_failing_automorphism_comparison_spells_the_full_detail():
    result = braid._compare(
        "probe", half_twist_action(3, 2, 1), identity_automorphism(3, 2)
    )
    assert result.detail == "x[1,1]: x[1,2]^-1 != x[1,1]"


def test_passing_comparisons_build_no_row_names(monkeypatch):
    def refuse(*args):
        raise AssertionError("row names built for a passing check")

    lift, f = groupoid.lifted_half_twist(3, 3, 1), half_twist_action(3, 3, 1)
    for module, name in ((words, "identity_automorphism"), (groupoid, "identity_functor"),
                         (words, "format_word"), (groupoid, "format_path")):
        monkeypatch.setattr(module, name, refuse)
    assert braid._compare("same", lift, lift) == CheckResult("same", True)
    assert braid._compare("same", f, f) == CheckResult("same", True)


def test_relation_list_names_sides_in_check_order():
    assert list(braid._relations(4)) == [
        ("braid_relation i=1", (1, 2, 1), (2, 1, 2)),
        ("braid_relation i=2", (2, 3, 2), (3, 2, 3)),
        ("far_commutation i=1 k=3", (1, 3), (3, 1)),
    ]
    names = [c.name for c in check_braid_relations(3, 5)]
    assert names == [
        "braid_relation i=1 functor", "braid_relation i=1 automorphism",
        "braid_relation i=2 functor", "braid_relation i=2 automorphism",
        "braid_relation i=3 functor", "braid_relation i=3 automorphism",
        "far_commutation i=1 k=3 functor", "far_commutation i=1 k=3 automorphism",
        "far_commutation i=1 k=4 functor", "far_commutation i=1 k=4 automorphism",
        "far_commutation i=2 k=4 functor", "far_commutation i=2 k=4 automorphism",
    ]


def test_run_suite_calls_the_checkers_through_the_module(monkeypatch):
    # a wrapper installed on the module attribute (a tracer, a test double)
    # sees every call that run_suite makes
    calls = []
    original = braid.check_lift_projection

    def spy(d, n):
        calls.append((d, n))
        return original(d, n)

    monkeypatch.setattr(braid, "check_lift_projection", spy)
    assert list(braid.SUITES) == ["relations", "dehn", "lift", "cross"]
    assert len(run_suite(3, 3, "lift")) == 2
    assert run_suite(3, 3).all_passed
    assert calls == [(3, 3), (3, 3)]


@pytest.mark.parametrize("build", [
    half_twist_action,
    conjugate_twist_action,
    lambda d, n, i: pi1.functor_to_automorphism(groupoid.lifted_half_twist(d, n, i)),
], ids=["closed", "conjugate", "groupoid"])
def test_generator_tables_are_bounded_by_their_letters(monkeypatch, build):
    # at d = 6, n = 4, i = 2 the 15 generator images hold 85 letters; the row
    # count (15), the edge count (30) and the longest row (14) are far below
    # either budget
    caches = (half_twist_action,)
    for cached in caches:
        cached.cache_clear()
    try:
        monkeypatch.setattr(words, "LETTER_BUDGET", 84)
        with pytest.raises(BudgetExceededError, match="^the images for d=6, n=4 reached 85 "
                                                       "letters, more than the letter budget "
                                                       "of 84$"):
            build(6, 4, 2)
        monkeypatch.setattr(words, "LETTER_BUDGET", 85)
        assert sum(map(len, build(6, 4, 2).table)) == 85
    finally:
        for cached in caches:
            cached.cache_clear()


def test_the_dehn_check_refuses_an_oversized_closed_form_before_any_twist(monkeypatch):
    # at d = 30, n = 2 the closed form's 29 rows hold 841 letters; the d - 1
    # Dehn twists must not be built or composed before its guard refuses it
    def never(*args):
        raise AssertionError("dehn_twist_product was called")

    monkeypatch.setattr(braid, "dehn_twist_product", never)
    half_twist_action.cache_clear()
    try:
        monkeypatch.setattr(words, "LETTER_BUDGET", 100)
        with pytest.raises(BudgetExceededError):
            check_dehn_factorization(30, 2)
    finally:
        half_twist_action.cache_clear()


def test_an_oversized_closed_form_is_refused_after_o_budget_work(monkeypatch):
    # d = 101, n = 2: the 100 rows pass the row count at a budget of 100, and
    # row j holds 2j - 1 letters in either form, so rows 1..10 fill the
    # budget exactly and row 11 is the last one built.  Each row is built
    # from a fixed number of code runs, so rows are counted by their runs.
    runs = []
    run = braid._run
    monkeypatch.setattr(braid, "_run", lambda *args: runs.append(args) or run(*args))
    budget = words.LETTER_BUDGET
    for build in (half_twist_action.__wrapped__, conjugate_twist_action):
        runs.clear()
        build(101, 2, 1)
        per_row, rest = divmod(len(runs), 100)
        assert per_row and not rest
        runs.clear()
        monkeypatch.setattr(words, "LETTER_BUDGET", 100)
        with pytest.raises(BudgetExceededError):
            build(101, 2, 1)
        monkeypatch.setattr(words, "LETTER_BUDGET", budget)
        assert len(runs) == 11 * per_row


@pytest.mark.parametrize("build,reference", [
    (half_twist_action.__wrapped__, reference.closed_form_by_letters),
    (conjugate_twist_action, reference.conjugate_form_by_letters),
], ids=["closed", "conjugate"])
def test_the_budget_counts_the_identity_rows_outside_the_band(monkeypatch, build, reference):
    # at d = 6, n = 7, i = 3 the band (rows 2..4) holds fewer letters than
    # the table, whose rows 1, 5 and 6 are the identity's: a budget that
    # the band alone fits is still refused
    d, n, i = 6, 7, 3
    table = reference(d, n, i)
    band = table[(i - 2) * (d - 1):(i + 1) * (d - 1)]
    letters, band_letters = sum(map(len, table)), sum(map(len, band))
    assert letters - band_letters == 15
    monkeypatch.setattr(words, "LETTER_BUDGET", band_letters)
    with pytest.raises(BudgetExceededError, match=f"^the images for d=6, n=7 reached 90 letters, "
                                                  f"more than the letter budget of {band_letters}$"):
        build(d, n, i)
    monkeypatch.setattr(words, "LETTER_BUDGET", letters)
    assert build(d, n, i).table == table


@pytest.mark.parametrize("build,reference", [
    (half_twist_action.__wrapped__, reference.closed_form_by_letters),
    (conjugate_twist_action, reference.conjugate_form_by_letters),
], ids=["closed", "conjugate"])
def test_a_closed_form_at_n_2_builds_no_identity_table(build, reference):
    # at n = 2 rows i-1..i+1 cover the whole basis, so both ranges of
    # identity rows are empty and the identity automorphism is never built
    identity_automorphism.cache_clear()
    try:
        assert build(7, 2, 1).table == reference(7, 2, 1)
        assert identity_automorphism.cache_info().misses == 0
    finally:
        identity_automorphism.cache_clear()
