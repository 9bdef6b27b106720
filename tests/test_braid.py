"""The braid action itself: closed forms, evaluation, twist factorization."""

import importlib.util
from pathlib import Path

import pytest
from hypothesis import given, settings

from braidcover import braid, groupoid, pi1, words
from braidcover.errors import BudgetExceededError
from braidcover.braid import (
    BraidWord,
    CheckResult,
    Report,
    braid_matrix,
    braid_word,
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
    equal,
    identity_automorphism,
    identity_matrix,
    matrix_determinant,
    matrix_multiply,
    parse_word,
)

import strategies


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
    assert equal(half_twist_action(2, 2, 1), identity_automorphism(2, 2))


def test_generator_actions_are_nontrivial():
    for d in range(2, 7):
        for n in range(2, 8):
            if (d, n) == (2, 2):
                continue
            for i in range(1, n):
                assert not equal(half_twist_action(d, n, i), identity_automorphism(d, n))


# -- conjugate assembly ------------------------------------------------------------

def test_conjugate_form_first_clause_example():
    f = conjugate_twist_action(3, 3, 2)
    assert f.image(1, 1) == parse_word(3, 3, "x[2,2]*x[1,1]")


@pytest.mark.parametrize("d", range(2, 7))
@pytest.mark.parametrize("n", range(2, 7))
def test_conjugate_form_matches_closed_form(d, n):
    for i in range(1, n):
        assert equal(conjugate_twist_action(d, n, i), half_twist_action(d, n, i))


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
    assert bw == braid_word(3, 4, (1, 2, -1))
    assert format_braid(bw) == "1 2 -1"
    with pytest.raises(ValueError):
        parse_braid(3, 4, "1 x")


def test_evaluate_generator_times_inverse_is_identity():
    assert equal(evaluate(parse_braid(3, 2, "1 -1")), identity_automorphism(3, 2))


def test_evaluate_empty_word_is_identity():
    assert equal(evaluate(braid_word(4, 4, ())), identity_automorphism(4, 4))


def test_evaluate_satisfies_the_braid_relation():
    lhs = evaluate(parse_braid(3, 3, "1 2 1"))
    rhs = evaluate(parse_braid(3, 3, "2 1 2"))
    assert equal(lhs, rhs)


def test_evaluate_far_commutation():
    lhs = evaluate(parse_braid(3, 4, "1 3"))
    rhs = evaluate(parse_braid(3, 4, "3 1"))
    assert equal(lhs, rhs)


@given(strategies.braid_letters_with_params(max_size=10))
def test_evaluate_is_multiplicative(data):
    d, n, letters = data
    half = len(letters) // 2
    u, v = letters[:half], letters[half:]
    lhs = evaluate(braid_word(d, n, letters))
    rhs = compose(evaluate(braid_word(d, n, u)), evaluate(braid_word(d, n, v)))
    assert equal(lhs, rhs)


@settings(max_examples=40)
@given(strategies.braid_letters_with_params(max_size=10))
def test_evaluate_inverse_law(data):
    d, n, letters = data
    bw = braid_word(d, n, letters)
    assert equal(compose(evaluate(bw), evaluate(bw.inverse())), identity_automorphism(d, n))


def test_inverse_generator_comes_from_the_inverse_lift():
    got = generator_action(4, 3, -2)
    via_functor = pi1.functor_to_automorphism(groupoid.lifted_half_twist_inverse(4, 3, 2))
    assert equal(got, via_functor)


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
    assert equal(
        pi1.functor_to_automorphism(composite),
        evaluate(braid_word(d, n, letters)),
    )


# -- twist factorization --------------------------------------------------------------

@pytest.mark.parametrize("d,n", [(3, 2), (4, 3), (2, 4), (5, 5)])
def test_twist_product_equals_the_generator_action(d, n):
    for i in range(1, n):
        assert equal(dehn_twist_product(d, n, i), half_twist_action(d, n, i))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_two_sheet_cover_needs_a_single_twist(n):
    for i in range(1, n):
        single = pi1.functor_to_automorphism(groupoid.dehn_twist(2, n, i, 2))
        assert equal(single, half_twist_action(2, n, i))
        assert equal(single, dehn_twist_product(2, n, i))


def test_twist_product_fixes_far_generators():
    f = dehn_twist_product(3, 4, 1)
    assert f.image(3, 1) == parse_word(3, 4, "x[3,1]")


def test_each_twist_fixes_its_own_core_loop():
    for d in range(2, 6):
        for n in range(2, 5):
            for i in range(1, n):
                for j in range(1, d + 1):
                    f = pi1.functor_to_automorphism(groupoid.dehn_twist(d, n, i, j))
                    core = words.generator(d, n, i, j)
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


# -- abelianized layer -------------------------------------------------------------------

def test_matrix_of_the_empty_braid():
    assert braid_matrix(braid_word(3, 3, ())) == identity_matrix(4)


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
    whole = braid_matrix(braid_word(d, n, letters))
    left = braid_matrix(braid_word(d, n, letters[:half]))
    right = braid_matrix(braid_word(d, n, letters[half:]))
    assert whole == matrix_multiply(left, right)
    assert matrix_determinant(whole) in (1, -1)


# -- verification reports ------------------------------------------------------------------

def test_relation_report_passes_and_is_ordered():
    report = check_braid_relations(3, 4)
    assert report.all_passed
    assert [c.name for c in report.checks] == [
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
    names = [c.name for c in report.checks]
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


def test_failing_comparison_names_the_first_differing_generator():
    result = braid._compare_automorphisms(
        "probe", half_twist_action(3, 2, 1), identity_automorphism(3, 2)
    )
    assert not result.passed
    assert result.detail.startswith("x[1,1]:")
    report = Report((result, CheckResult("fine", True)))
    assert not report.all_passed


def test_failing_functor_comparison_names_the_first_differing_edge():
    lift = groupoid.lifted_half_twist(3, 2, 1)
    result = braid._compare_functors("probe", lift, groupoid.dehn_twist(3, 2, 1, 2))
    assert not result.passed
    assert result.detail == "e[0,3]: e[0,3]*e[1,1] != e[0,3]*e[1,2]"
    result = braid._compare_functors("probe", lift, groupoid.identity_functor(3, 2))
    assert (result.passed, result.detail) == (False, "e[0,1]: e[0,1]*e[1,2] != e[0,1]")


def test_failing_automorphism_comparison_spells_the_full_detail():
    result = braid._compare_automorphisms(
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
    assert braid._compare_functors("same", lift, lift) == CheckResult("same", True)
    assert braid._compare_automorphisms("same", f, f) == CheckResult("same", True)


def test_relation_list_names_sides_in_check_order():
    assert list(braid._relations(4)) == [
        ("braid_relation i=1", (1, 2, 1), (2, 1, 2)),
        ("braid_relation i=2", (2, 3, 2), (3, 2, 3)),
        ("far_commutation i=1 k=3", (1, 3), (3, 1)),
    ]
    names = [c.name for c in check_braid_relations(3, 5).checks]
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
    caches = (half_twist_action, conjugate_twist_action)
    for cached in caches:
        cached.cache_clear()
    try:
        monkeypatch.setattr(words, "LETTER_BUDGET", 84)
        with pytest.raises(BudgetExceededError, match="the images for d=6, n=4 hold more "
                                                       "letters than the letter budget of 84"):
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
    # row j holds 2j - 1 letters, so rows 1..10 fill the budget exactly and
    # row 11 is the last one built
    built = []
    encode = words._encode
    monkeypatch.setattr(words, "_encode", lambda d, n, letters: built.append(1) or encode(d, n, letters))
    monkeypatch.setattr(words, "LETTER_BUDGET", 100)
    with pytest.raises(BudgetExceededError):
        half_twist_action(101, 2, 1)
    assert len(built) == 11
