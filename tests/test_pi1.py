"""Loop/word translation through the fixed spanning tree."""

import functools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidcover import braid, groupoid, pi1, words
from braidcover.errors import BudgetExceededError
from braidcover.groupoid import (
    EdgePath,
    apply_functor,
    compose_functors,
    dehn_twist,
    empty_path,
    identity_functor,
    interior,
    lifted_half_twist,
    lifted_half_twist_inverse,
    parse_path,
    path,
    path_compose,
    path_invert,
)
from braidcover.pi1 import _edge_words, basepoint, functor_to_automorphism, loop_to_word
from braidcover.words import Word, identity_automorphism, multiply, parse_word

import strategies
from reference import _x_loops, word_to_loop


def _tree_path(i):
    """Steps of the tree path p_i = e[0,1]*...*e[i-1,1] to interior vertex i."""
    return [(level, 1, 1) for level in range(i)]


def _geometric_loop(d, n, i, a, b):
    """The basepoint loop p_i * e[i,a] * e[i,b]^-1 * p_i^-1, built step by
    step through `groupoid.path`, independently of the package's tables."""
    tree = _tree_path(i)
    steps = tree + [(i, a, 1), (i, b, -1)] + [(level, 1, -1) for level, _, _ in reversed(tree)]
    return groupoid.path(d, n, steps, start=basepoint(d, n))


def _x_loop(d, n, i, j):
    return word_to_loop(words.reduce(d, n, [(i, j, 1)]))


# -- spanning tree ---------------------------------------------------------------

@pytest.mark.parametrize("d,n", [(2, 2), (3, 4), (5, 3), (6, 7)])
def test_spanning_tree_spans_without_cycles(d, n):
    # the tree edges are the codes whose retraction is the empty word
    tree = [code for code, word in enumerate(_edge_words(d, n), start=1) if not word]
    verts = set(groupoid.vertices(d, n))
    assert len(tree) == len(verts) - 1
    # grow components; a spanning tree with |V|-1 edges has none to spare
    parent = {v: v for v in verts}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for code in tree:
        a, b = map(find, groupoid._ends(d, n)[code - 1])
        assert a != b, "tree edge closes a cycle"
        parent[a] = b
    assert len({find(v) for v in verts}) == 1


@pytest.mark.parametrize("d,n", [(2, 2), (3, 4), (5, 3), (6, 7)])
def test_non_tree_edges_match_the_rank(d, n):
    non_tree = [code for code, word in enumerate(_edge_words(d, n), start=1) if word]
    assert len(non_tree) == words.rank(d, n)
    assert non_tree == [
        groupoid._edge_code(d, n, i, j) for i in range(1, n) for j in range(2, d + 1)
    ]


def test_edge_words_hold_the_inverse_prefixes():
    # a middle edge e[i,j] retracts to x[i,j-1]^-1*...*x[i,1]^-1
    d, n = 4, 3
    for code, word in enumerate(_edge_words(d, n), start=1):
        level, below = divmod(code - 1, d)
        letters = [(level, t, -1) for t in range(below, 0, -1)] if 0 < level < n else []
        assert tuple(word) == words.reduce(d, n, letters).codes


# -- defining paths and loops -------------------------------------------------------

def test_base_path_examples():
    # the x-loops run out along the base paths p_1 = e[0,1], p_2 = e[0,1]*e[1,1]
    assert _x_loop(3, 3, 1, 2) == parse_path(3, 3, "e[0,1]*e[1,2]*e[1,3]^-1*e[0,1]^-1")
    assert _x_loop(3, 3, 2, 1) == parse_path(
        3, 3, "e[0,1]*e[1,1]*e[2,1]*e[2,2]^-1*e[1,1]^-1*e[0,1]^-1"
    )


@pytest.mark.parametrize("d,n", [(3, 4), (4, 3)])
def test_base_path_ends_at_its_interior_vertex(d, n):
    for i in range(1, n):
        tree = groupoid.path(d, n, _tree_path(i))
        assert tree.start == basepoint(d, n)
        assert tree.end == interior(i)
        assert len(tree) == i
        for j in range(1, d):
            assert _x_loops(d, n)[(i - 1) * (d - 1) + j - 1][:i] == tree.steps


def test_base_path_range():
    # the x-loops use the base paths p_1..p_{n-1} and no other
    d, n = 4, 5
    used = {row[:(len(row) - 2) // 2] for row in _x_loops(d, n)}
    assert used == {groupoid.path(d, n, _tree_path(i)).steps for i in range(1, n)}


def test_loop_x_example():
    assert _x_loop(3, 2, 1, 1) == parse_path(3, 2, "e[0,1]*e[1,1]*e[1,2]^-1*e[0,1]^-1")
    assert _x_loop(3, 2, 1, 1) == _geometric_loop(3, 2, 1, 1, 2)


def test_loop_y_at_sheet_one_is_empty():
    for i in (1, 2):
        assert _geometric_loop(3, 3, i, 1, 1) == empty_path(3, 3, basepoint(3, 3))


@pytest.mark.parametrize("d,n", [(2, 3), (3, 2), (4, 3), (5, 4)])
def test_loop_x_at_sheet_d_is_the_inverse_product(d, n):
    for i in range(1, n):
        product = empty_path(d, n, basepoint(d, n))
        for j in range(1, d):
            product = path_compose(product, _x_loop(d, n, i, j))
        # x[i,d] = p_i * e[i,d] * e[i,1]^-1 * p_i^-1, the sheet d+1 wrapping to 1
        assert _geometric_loop(d, n, i, d, d + 1) == path_invert(product)
        assert _x_loop(d, n, i, d) == path_invert(product)


@pytest.mark.parametrize("d,n", [(2, 2), (3, 3), (5, 4)])
def test_loops_are_closed_and_reduced(d, n):
    base = basepoint(d, n)
    for steps in _x_loops(d, n):
        assert EdgePath(d, n, base, steps).end == base
    for i in range(1, n):
        for j in range(1, d + 1):
            loop = _x_loop(d, n, i, j)
            assert loop.start == loop.end == base
            assert EdgePath(d, n, base, loop.steps) == loop


# -- loop -> word ----------------------------------------------------------------------

def test_basis_loops_round_trip_to_single_letters():
    assert loop_to_word(_geometric_loop(3, 3, 2, 1, 2)) == parse_word(3, 3, "x[2,1]")
    base = basepoint(4, 4)
    symbols = [(i, j) for i in range(1, 4) for j in range(1, 4)]
    for (i, j), steps in zip(symbols, _x_loops(4, 4)):
        assert loop_to_word(EdgePath(4, 4, base, steps)) == parse_word(4, 4, f"x[{i},{j}]")


@pytest.mark.parametrize("d,n", [(3, 3), (4, 2), (5, 4)])
def test_prefix_loops_rewrite_to_prefix_products(d, n):
    # y[i,j] = p_i * e[i,1] * e[i,j]^-1 * p_i^-1 = x[i,1]*...*x[i,j-1]
    for i in range(1, n):
        for j in range(1, d + 1):
            expected = words.reduce(d, n, [(i, t, 1) for t in range(1, j)])
            assert loop_to_word(_geometric_loop(d, n, i, 1, j)) == expected


def test_empty_loop_rewrites_to_the_empty_word():
    assert loop_to_word(empty_path(3, 3, basepoint(3, 3))) == words.reduce(3, 3, ())


def test_loop_to_word_rejects_open_paths():
    with pytest.raises(ValueError):
        loop_to_word(path(3, 3, [(0, 1, 1)]))


def test_loop_to_word_respects_the_letter_budget(monkeypatch):
    loop = word_to_loop(parse_word(3, 2, "*".join(["x[1,2]"] * 5)))
    monkeypatch.setattr(words, "LETTER_BUDGET", 4)
    with pytest.raises(BudgetExceededError):
        loop_to_word(loop)


def test_word_to_loop_examples():
    assert word_to_loop(parse_word(3, 2, "x[1,1]")) == _geometric_loop(3, 2, 1, 1, 2)
    assert word_to_loop(words.reduce(3, 2, ())) == empty_path(3, 2, basepoint(3, 2))


@given(strategies.words_with_params(max_size=32))
def test_words_round_trip_through_loops(data):
    d, n, u = data
    assert loop_to_word(word_to_loop(u)) == u


@given(strategies.words_with_params(count=2, max_size=16))
def test_loop_to_word_is_a_homomorphism(data):
    d, n, u, v = data
    p, q = word_to_loop(u), word_to_loop(v)
    assert loop_to_word(path_compose(p, q)) == multiply(u, v)
    assert loop_to_word(path_invert(p)) == words.invert(u)


@pytest.mark.parametrize("d,n", [(2, 2), (3, 3), (4, 5), (5, 2)])
def test_basis_loops_are_nontrivial(d, n):
    for i in range(1, n):
        for j in range(1, d + 1):
            assert len(loop_to_word(_geometric_loop(d, n, i, j, j + 1))) > 0


# -- functors to automorphisms ------------------------------------------------------------

def test_identity_functor_gives_the_identity_automorphism():
    assert functor_to_automorphism(identity_functor(4, 3)) == identity_automorphism(4, 3)


@pytest.mark.parametrize("i", [1, 2])
def test_lift_action_matches_the_closed_form(i):
    got = functor_to_automorphism(lifted_half_twist(3, 3, i))
    assert got == braid.half_twist_action(3, 3, i)


@given(
    st.tuples(st.integers(2, 4), st.integers(2, 4)),
    st.data(),
)
def test_functor_to_automorphism_is_functorial(dn, data):
    d, n = dn

    def pick(label):
        i = data.draw(st.integers(1, n - 1), label=f"{label} i")
        if data.draw(st.booleans(), label=f"{label} twist?"):
            j = data.draw(st.integers(1, d), label=f"{label} j")
            return dehn_twist(d, n, i, j)
        return lifted_half_twist(d, n, i)

    F, G = pick("first"), pick("second")
    lhs = functor_to_automorphism(compose_functors(F, G))
    rhs = words.compose(functor_to_automorphism(F), functor_to_automorphism(G))
    assert lhs == rhs


def _functors(d, n):
    """(i, F) for every lift, inverse lift and Dehn twist (sheets 1..d) F at
    index i: each moves only the edges at levels i-1..i+1."""
    for i in range(1, n):
        yield i, lifted_half_twist(d, n, i)
        yield i, lifted_half_twist_inverse(d, n, i)
        for j in range(1, d + 1):
            yield i, dehn_twist(d, n, i, j)


def _loop_route(F):
    """F's action by the loop route: each generator's x-loop pushed through
    F and read back as a word, independently of the edge-image formula."""
    d, n = F.d, F.n
    return tuple(loop_to_word(apply_functor(F, word_to_loop(Word(d, n, (code,))))).codes
                 for code in range(1, words.rank(d, n) + 1))


def test_functor_action_on_basis_loops_matches_word_images():
    # the edge-image route against the loop route; every level i with
    # |i - index| > 1 is fixed by F and has P_i = 1 (below the moved band
    # trivially, above it because F maps the tree path to the level's
    # interior vertex onto itself), so its rows are the identity's own
    for d in range(2, 7):
        for n in range(2, 8):
            fixed = identity_automorphism(d, n).table
            for index, F in _functors(d, n):
                table = functor_to_automorphism(F).table
                assert table == _loop_route(F), (d, n, index)
                for level in range(1, n):
                    if abs(level - index) > 1:
                        rows = range((level - 1) * (d - 1), level * (d - 1))
                        assert all(table[k] is fixed[k] for k in rows), (d, n, index, level)


@given(st.integers(2, 6), st.integers(2, 7), st.data())
def test_composites_translate_like_the_loop_route(d, n, data):
    pool = [F for _, F in _functors(d, n)]
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=4))
    F = functools.reduce(compose_functors, [pool[k] for k in picks])
    assert functor_to_automorphism(F).table == _loop_route(F)


@pytest.mark.parametrize("d,n", [(2, 2), (2, 5), (3, 4), (5, 6)])
def test_a_level_the_functor_fixes_behind_a_moved_tree_edge_is_conjugated(d, n):
    # F moves only e[0,1] -> e[0,1]*e[1,1]*e[1,2]^-1, a tree edge, so P_i is
    # x[1,1] at every level i: F fixes every level from 2 on, yet no level
    # keeps the identity's rows, and x -> x[1,1]*x*x[1,1]^-1 on every row
    table = list(identity_functor(d, n).table)
    table[0] = (1, d + 1, -(d + 2))
    F = groupoid.GroupoidFunctor(d, n, table)
    got = functor_to_automorphism(F).table
    assert got == tuple(words._reduce_onto([], (1, c, -1)) for c in range(1, words.rank(d, n) + 1))
    assert got == _loop_route(F)


@pytest.mark.parametrize("d,n,level", [(3, 2, 1), (4, 5, 2), (5, 6, 5)])
def test_a_level_that_moves_only_its_last_edge_is_not_skipped(d, n, level):
    # F moves only e[level,d] -> e[level,1]*e[level,2]^-1*e[level,d], so P_i
    # is empty at every level and the level differs from the identity's in
    # its last row alone
    table = list(identity_functor(d, n).table)
    table[level * d + d - 1] = (level * d + 1, -(level * d + 2), level * d + d)
    F = groupoid.GroupoidFunctor(d, n, table)
    got = functor_to_automorphism(F).table
    assert got != identity_automorphism(d, n).table
    assert got == _loop_route(F)


def test_a_long_strand_count_translates_in_linear_time():
    d, n = 2, 2000
    f = words.compose(braid.half_twist_action(d, n, 1), braid.generator_action(d, n, -1))
    assert f == identity_automorphism(d, n)


def test_an_oversized_table_is_refused_after_o_budget_work(monkeypatch):
    # d = 101, n = 2: row j of the lift's action holds 2j - 1 letters, so
    # rows 1..10 fill a budget of 100 and row 11 is the last one built; it
    # takes one edge word per row, plus W(e[0,1]) and W(e[1,1])
    F = lifted_half_twist(101, 2, 1)
    substituted = []
    substitute = pi1._substitute
    monkeypatch.setattr(pi1, "_substitute", lambda *args: substituted.append(1) or substitute(*args))
    monkeypatch.setattr(words, "LETTER_BUDGET", 100)
    with pytest.raises(BudgetExceededError):
        functor_to_automorphism(F)
    assert len(substituted) == 13


def test_a_quadratic_table_is_refused_by_the_letter_budget():
    # at n = 2 the lift's rows hold about d^2 letters, 4*10^8 at d = 20000
    try:
        with pytest.raises(BudgetExceededError):
            functor_to_automorphism(lifted_half_twist(20000, 2, 1))
    finally:
        lifted_half_twist.cache_clear()
        identity_functor.cache_clear()
