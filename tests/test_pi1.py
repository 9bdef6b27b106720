"""Loop/word translation through the fixed spanning tree."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidcover import braid, groupoid, words
from braidcover.errors import BudgetExceededError
from braidcover.groupoid import (
    Edge,
    apply_functor,
    compose_functors,
    dehn_twist,
    empty_path,
    identity_functor,
    interior,
    lifted_half_twist,
    parse_path,
    path_compose,
    path_invert,
)
from braidcover.pi1 import (
    base_path,
    basepoint,
    functor_to_automorphism,
    loop_to_word,
    loop_x,
    loop_y,
    spanning_tree,
    word_to_loop,
)
from braidcover.words import empty_word, equal, identity_automorphism, multiply, parse_word

import strategies


# -- spanning tree ---------------------------------------------------------------

@pytest.mark.parametrize("d,n", [(2, 2), (3, 4), (5, 3), (6, 7)])
def test_spanning_tree_spans_without_cycles(d, n):
    tree = spanning_tree(d, n)
    verts = set(groupoid.vertices(d, n))
    assert len(tree.edges) == len(verts) - 1
    # grow components; a spanning tree with |V|-1 edges has none to spare
    parent = {v: v for v in verts}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for edge in tree.edges:
        code = groupoid._edge_code(d, n, edge.level, edge.sheet)
        a = find(groupoid._source(d, n, code))
        b = find(groupoid._target(d, n, code))
        assert a != b, "tree edge closes a cycle"
        parent[a] = b
    assert len({find(v) for v in verts}) == 1


@pytest.mark.parametrize("d,n", [(2, 2), (3, 4), (5, 3), (6, 7)])
def test_non_tree_edges_match_the_rank(d, n):
    tree = spanning_tree(d, n)
    assert len(tree.non_tree_edges) == words.rank(d, n)
    assert tree.non_tree_edges == tuple(
        Edge(i, j) for i in range(1, n) for j in range(2, d + 1)
    )
    for edge in tree.non_tree_edges:
        assert not tree.contains(edge)


# -- defining paths and loops -------------------------------------------------------

def test_base_path_examples():
    assert base_path(3, 3, 1) == parse_path(3, 3, "e[0,1]")
    assert base_path(3, 3, 2) == parse_path(3, 3, "e[0,1]*e[1,1]")


@pytest.mark.parametrize("d,n", [(3, 4), (4, 3)])
def test_base_path_ends_at_its_interior_vertex(d, n):
    for i in range(1, n):
        q = base_path(d, n, i)
        assert q.start == basepoint(d, n)
        assert q.end == interior(i)
        assert len(q) == i


def test_base_path_range():
    with pytest.raises(ValueError):
        base_path(3, 3, 3)


@pytest.mark.parametrize("build", [base_path, lambda d, n, i: loop_x(d, n, i, 1),
                                   lambda d, n, i: loop_y(d, n, i, 2)])
@pytest.mark.parametrize("i", [0, 3])
def test_loops_share_the_index_message(build, i):
    with pytest.raises(ValueError, match=rf"^index i must be in 1\.\.2, got i={i}$"):
        build(3, 3, i)


def test_loop_x_example():
    assert loop_x(3, 2, 1, 1) == parse_path(3, 2, "e[0,1]*e[1,1]*e[1,2]^-1*e[0,1]^-1")


def test_loop_y_at_sheet_one_is_empty():
    for i in (1, 2):
        assert loop_y(3, 3, i, 1) == empty_path(3, 3, basepoint(3, 3))


@pytest.mark.parametrize("d,n", [(2, 3), (3, 2), (4, 3), (5, 4)])
def test_loop_x_at_sheet_d_is_the_inverse_product(d, n):
    for i in range(1, n):
        product = empty_path(d, n, basepoint(d, n))
        for j in range(1, d):
            product = path_compose(product, loop_x(d, n, i, j))
        assert loop_x(d, n, i, d) == path_invert(product)


@pytest.mark.parametrize("d,n", [(2, 2), (3, 3), (5, 4)])
def test_loops_are_closed_and_reduced(d, n):
    for i in range(1, n):
        for j in range(1, d + 1):
            loop = loop_x(d, n, i, j)
            assert loop.start == loop.end == basepoint(d, n)


# -- loop -> word ----------------------------------------------------------------------

def test_basis_loops_round_trip_to_single_letters():
    assert loop_to_word(loop_x(3, 3, 2, 1)) == parse_word(3, 3, "x[2,1]")
    for (i, j) in words.symbols(4, 4):
        assert loop_to_word(loop_x(4, 4, i, j)) == parse_word(4, 4, f"x[{i},{j}]")


@pytest.mark.parametrize("d,n", [(3, 3), (4, 2), (5, 4)])
def test_prefix_loops_rewrite_to_prefix_products(d, n):
    for i in range(1, n):
        for j in range(1, d + 1):
            expected = words.word(d, n, [(i, t, 1) for t in range(1, j)])
            assert loop_to_word(loop_y(d, n, i, j)) == expected


def test_empty_loop_rewrites_to_the_empty_word():
    assert loop_to_word(empty_path(3, 3, basepoint(3, 3))) == empty_word(3, 3)


def test_loop_to_word_rejects_open_paths():
    with pytest.raises(ValueError):
        loop_to_word(base_path(3, 3, 1))


def test_loop_to_word_respects_the_letter_budget(monkeypatch):
    loop = word_to_loop(parse_word(3, 2, "*".join(["x[1,2]"] * 5)))
    monkeypatch.setattr(words, "LETTER_BUDGET", 4)
    with pytest.raises(BudgetExceededError):
        loop_to_word(loop)


def test_word_to_loop_examples():
    assert word_to_loop(parse_word(3, 2, "x[1,1]")) == loop_x(3, 2, 1, 1)
    assert word_to_loop(empty_word(3, 2)) == empty_path(3, 2, basepoint(3, 2))


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
            assert len(loop_to_word(loop_x(d, n, i, j))) > 0


# -- functors to automorphisms ------------------------------------------------------------

def test_identity_functor_gives_the_identity_automorphism():
    assert equal(
        functor_to_automorphism(identity_functor(4, 3)), identity_automorphism(4, 3)
    )


@pytest.mark.parametrize("i", [1, 2])
def test_lift_action_matches_the_closed_form(i):
    got = functor_to_automorphism(lifted_half_twist(3, 3, i))
    assert equal(got, braid.half_twist_action(3, 3, i))


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
    assert equal(lhs, rhs)


def test_functor_action_on_basis_loops_matches_word_images():
    F = dehn_twist(3, 3, 1, 2)
    f = functor_to_automorphism(F)
    for (i, j) in words.symbols(3, 3):
        assert loop_to_word(apply_functor(F, loop_x(3, 3, i, j))) == f.image(i, j)
