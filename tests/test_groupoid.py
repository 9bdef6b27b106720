"""Cover-graph paths and self-functors: twists, lifts, projection."""

import functools
import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidcover import groupoid, words
from braidcover.errors import BudgetExceededError, EndpointMismatchError, ParameterMismatchError
from braidcover.groupoid import (
    Edge,
    EdgePath,
    GroupoidFunctor,
    apply_functor,
    base_half_twist,
    compose_functors,
    dehn_twist,
    empty_path,
    format_path,
    identity_functor,
    interior,
    left_boundary,
    lifted_half_twist,
    lifted_half_twist_inverse,
    parse_path,
    path,
    path_compose,
    path_invert,
    project,
    right_boundary,
    verify_lift,
    vertices,
)

import reference
import strategies


def p(d, n, text):
    return parse_path(d, n, text)


# -- path arithmetic ------------------------------------------------------------

@pytest.mark.parametrize("d,n", [(1, 2), (2, 2), (3, 4)])
def test_each_edge_runs_from_its_level_to_the_next(d, n):
    ends = [
        (left_boundary(j) if i == 0 else interior(i),
         right_boundary(n, j) if i == n else interior(i + 1))
        for i in range(n + 1) for j in range(1, d + 1)
    ]
    assert list(groupoid._ends(d, n)) == ends
    assert [groupoid._edge_code(d, n, i, j) for i in range(n + 1)
            for j in range(1, d + 1)] == list(range(1, len(ends) + 1))


def test_path_compose_chains_two_edges():
    got = path_compose(path(3, 2, [(0, 1, 1)]), path(3, 2, [(1, 1, 1)]))
    assert got == p(3, 2, "e[0,1]*e[1,1]")
    assert got.start == left_boundary(1)
    assert got.end == interior(2)


def test_path_compose_cancels_inverse_pair():
    got = path_compose(path(3, 2, [(1, 1, 1)]), path_invert(path(3, 2, [(1, 1, 1)])))
    assert got == empty_path(3, 2, interior(1))


def test_path_invert_reverses_steps():
    got = path_invert(p(3, 2, "e[0,1]*e[1,1]"))
    assert got == p(3, 2, "e[1,1]^-1*e[0,1]^-1")


def test_path_compose_rejects_endpoint_mismatch():
    with pytest.raises(EndpointMismatchError):
        path_compose(path(3, 2, [(0, 1, 1)]), path(3, 2, [(0, 1, 1)]))


def test_path_rejects_incompatible_steps():
    with pytest.raises(EndpointMismatchError):
        path(3, 2, [(0, 1, 1), (0, 1, 1)])


@pytest.mark.parametrize("direction", [2, 0, -2])
def test_path_rejects_a_step_direction_other_than_plus_or_minus_one(direction):
    with pytest.raises(ValueError, match="direction"):
        path(3, 2, [(0, 1, direction)])


def test_path_compose_respects_the_letter_budget(monkeypatch):
    first, second = p(3, 2, "e[0,1]*e[1,1]"), p(3, 2, "e[1,2]^-1*e[0,2]^-1")
    monkeypatch.setattr(words, "LETTER_BUDGET", 3)
    with pytest.raises(BudgetExceededError):
        path_compose(first, second)


def test_unreduced_path_is_rejected():
    with pytest.raises(ValueError):
        EdgePath(3, 2, left_boundary(1), (1, -1))


def _random_walk(rng, d, n, length, start=None):
    # compatible raw steps: wander the graph, allowing immediate backtracks
    at = rng.choice(vertices(d, n)) if start is None else start
    start = at
    steps = []
    for _ in range(length):
        forward = [(at.level, j, 1) for j in range(1, d + 1)] if at.level <= n else []
        backward = (
            [(at.level - 1, j, -1) for j in range(1, d + 1)] if at.level >= 1 else []
        )
        if at.sheet != 0:  # boundary vertices see a single sheet
            forward = [(at.level, at.sheet, 1)] if at.level == 0 else []
            backward = [(at.level - 1, at.sheet, -1)] if at.level == n + 1 else []
        move = rng.choice(forward + backward)
        steps.append(move)
        level, sheet, direction = move
        source, target = groupoid._ends(d, n)[groupoid._edge_code(d, n, level, sheet) - 1]
        at = target if direction > 0 else source
    return start, steps


def _schedule_reduce(rng, codes):
    codes = list(codes)
    while True:
        spots = [k for k in range(len(codes) - 1) if codes[k] == -codes[k + 1]]
        if not spots:
            return tuple(codes)
        k = rng.choice(spots)
        del codes[k : k + 2]


@given(st.tuples(st.integers(2, 5), st.integers(2, 5)), st.integers(0, 2**32 - 1))
def test_path_reduction_is_confluent(dn, seed):
    d, n = dn
    rng = random.Random(seed)
    start, steps = _random_walk(rng, d, n, rng.randint(0, 24))
    reduced = path(d, n, steps, start=start)
    raw = [
        direction * groupoid._edge_code(d, n, level, sheet)
        for (level, sheet, direction) in steps
    ]
    assert _schedule_reduce(rng, raw) == reduced.steps
    assert reduced.start == start


# -- the lifted half twist --------------------------------------------------------

def test_lifted_half_twist_middle_row():
    assert lifted_half_twist(3, 3, 1).edge(1, 1) == p(3, 3, "e[1,2]^-1")


def test_lifted_half_twist_fixes_far_edges():
    assert lifted_half_twist(3, 3, 1).edge(3, 2) == p(3, 3, "e[3,2]")


def test_lifted_half_twist_wraps_sheet_indices():
    assert lifted_half_twist(4, 2, 1).edge(0, 4) == p(4, 2, "e[0,4]*e[1,1]")


def test_lifted_half_twist_swaps_the_two_interior_vertices():
    F = lifted_half_twist(3, 3, 2)
    assert F.vertex(interior(2)) == interior(3)
    assert F.vertex(interior(3)) == interior(2)
    assert F.vertex(interior(1)) == interior(1)
    assert F.vertex(left_boundary(2)) == left_boundary(2)


def test_lifted_half_twist_rejects_bad_index():
    with pytest.raises(ValueError):
        lifted_half_twist(3, 3, 3)


# -- the twist along a surface loop ------------------------------------------------

def test_dehn_twist_swap_rows():
    F = dehn_twist(3, 2, 1, 2)
    assert F.edge(1, 2) == p(3, 2, "e[1,3]^-1")
    assert F.edge(1, 3) == p(3, 2, "e[1,2]^-1")


def test_dehn_twist_conjugates_the_remaining_middle_sheet():
    assert dehn_twist(3, 2, 1, 2).edge(1, 1) == p(3, 2, "e[1,2]^-1*e[1,1]*e[1,2]^-1")


def test_dehn_twist_upper_row():
    assert dehn_twist(3, 3, 1, 2).edge(2, 3) == p(3, 3, "e[1,3]*e[2,3]")
    assert dehn_twist(3, 3, 1, 2).edge(2, 1) == p(3, 3, "e[1,2]*e[2,1]")


def test_dehn_twist_sheet_wraps():
    assert dehn_twist(3, 2, 1, 3).edge(1, 3) == p(3, 2, "e[1,1]^-1")
    assert dehn_twist(3, 2, 1, 5) == dehn_twist(3, 2, 1, 2)


def test_every_sheet_of_a_twist_validates_one_table(monkeypatch):
    # the twist is written out at sheet d only; sheet 0 and 2d are the
    # identity shift of it, and sheets 1..d-1 proper shifts
    validated = []
    post_init = GroupoidFunctor.__post_init__
    monkeypatch.setattr(GroupoidFunctor, "__post_init__",
                        lambda self: validated.append(self) or post_init(self))
    groupoid._written_dehn_twist.cache_clear()
    twists = {j: dehn_twist(3, 3, 1, j) for j in (3, 0, 6, 1, 2)}
    assert len(validated) == 1
    assert twists[0] == twists[3] == twists[6]
    assert [twists[j] for j in (1, 2)] == [dehn_twist(3, 3, 1, j) for j in (4, 5)]
    assert len(validated) == 1


@pytest.mark.parametrize("d,n", [(2, 2), (3, 4), (5, 3), (4, 6)])
def test_relabelled_twists_share_the_moved_rows_of_the_table_they_relabel(d, n):
    # `_relabel` hands its result the moved set of the table it relabels,
    # which must move every row of the band at levels i-1..i+1 and no other
    for i in range(1, n):
        band = set(range((i - 1) * d + 1, (i + 2) * d + 1))
        for written, derived in ((lifted_half_twist(d, n, i), lifted_half_twist_inverse(d, n, i)),
                                 (groupoid._written_dehn_twist(d, n, i), dehn_twist(d, n, i, 1))):
            assert {c for c, row in enumerate(written.table, 1) if row != (c,)} == band
            assert words._moved(derived) is words._moved(written)
            assert words._moved(written) == band | {-c for c in band}


def test_a_relabelled_table_is_built_with_the_moved_rows_of_its_source():
    # deriving the inverse lift or a deck-shifted twist keeps the written
    # table's frozenset itself on the derived table as it is built
    for written, derived in ((lifted_half_twist(4, 5, 2), lifted_half_twist_inverse(4, 5, 2)),
                             (groupoid._written_dehn_twist(4, 5, 2), dehn_twist(4, 5, 2, 1))):
        assert type(derived._moves) is frozenset
        assert derived._moves is written._moves


def _hand_written_dehn_twist(d, n, i, j):
    """The twist along (i, j) written out for every sheet, through the
    validating constructor: the reference for the deck-shifted twists."""
    jj, j1 = groupoid._wrap(d, j), groupoid._wrap(d, j + 1)
    images = {}
    for k in range(1, d + 1):
        if k == jj:
            images[Edge(i - 1, k)] = [(i - 1, k, 1), (i, j1, 1)]
            images[Edge(i, k)] = [(i, j1, -1)]
        elif k == j1:
            images[Edge(i - 1, k)] = [(i - 1, k, 1), (i, jj, 1)]
            images[Edge(i, k)] = [(i, jj, -1)]
        else:
            images[Edge(i - 1, k)] = [(i - 1, k, 1), (i, jj, 1)]
            images[Edge(i, k)] = [(i, jj, -1), (i, k, 1), (i, jj, -1)]
        if k == j1:
            images[Edge(i + 1, k)] = [(i, j1, 1), (i + 1, k, 1)]
        else:
            images[Edge(i + 1, k)] = [(i, jj, 1), (i + 1, k, 1)]
    return groupoid._functor(d, n, images)


@pytest.mark.parametrize("d", range(2, 9))
def test_deck_shifted_twists_match_the_hand_written_formula(d):
    for n in range(2, 8):
        for i in range(1, n):
            for j in range(-2, d + 3):
                F = dehn_twist(d, n, i, j)
                assert F.table == _hand_written_dehn_twist(d, n, i, j).table, (d, n, i, j)
                assert GroupoidFunctor(d, n, F.table) == F


@st.composite
def band_functors(draw):
    """(F, i, d): a functor that moves no row outside the band of levels
    i-1..i+1 and whose moved set is the band, at d, n in 2..6: the written
    twist, the lift, the inverse lift, or the product of the d-1 twists
    along (i, 2), ..., (i, d)."""
    d, n = draw(st.integers(2, 6)), draw(st.integers(2, 6))
    i = draw(st.integers(1, n - 1))
    build = draw(st.sampled_from((groupoid._written_dehn_twist, lifted_half_twist,
                                  lifted_half_twist_inverse, reference.twist_fold)))
    return build(d, n, i), i, d


@given(band_functors(), st.integers(-12, 12), st.integers(-12, 12))
def test_deck_shifts_add_up_and_a_full_turn_is_the_identity(case, a, b):
    F, i, d = case
    shift = groupoid._deck_shift
    assert shift(shift(F, i, a), i, b).table == shift(F, i, a + b).table
    assert shift(F, i, d).table == shift(F, i, 0).table == F.table


# -- functor application and composition -------------------------------------------

def test_apply_identity_functor():
    q = p(3, 3, "e[0,1]*e[1,2]*e[2,3]")
    assert apply_functor(identity_functor(3, 3), q) == q


def test_apply_functor_expands_and_reduces():
    # e[0,1] -> e[0,1]*e[1,2] and e[1,1] -> e[1,2]^-1, so the product collapses
    got = apply_functor(lifted_half_twist(3, 3, 1), p(3, 3, "e[0,1]*e[1,1]"))
    assert got == p(3, 3, "e[0,1]")


def test_apply_functor_moves_empty_paths():
    F = lifted_half_twist(3, 3, 1)
    got = apply_functor(F, empty_path(3, 3, interior(1)))
    assert got == empty_path(3, 3, interior(2))


def test_apply_functor_rejects_mixed_parameters():
    with pytest.raises(ParameterMismatchError):
        apply_functor(lifted_half_twist(3, 3, 1), path(3, 2, [(0, 1, 1)]))


def test_apply_functor_preserves_composition_and_inversion():
    F = dehn_twist(3, 3, 2, 2)
    a = p(3, 3, "e[0,1]*e[1,2]")
    b = p(3, 3, "e[1,2]^-1*e[1,3]")
    assert apply_functor(F, path_compose(a, b)) == path_compose(
        apply_functor(F, a), apply_functor(F, b)
    )
    assert apply_functor(F, path_invert(a)) == path_invert(apply_functor(F, a))


TRIPLE_CHAIN_CASES = [
    # (start edge, images after each of the three twists i, i+1, i), as reduced
    # paths, for d=3, n=4, i=1, per sheet j
    ("e[0,{j}]", ["e[0,{j}]*e[1,{j1}]", "e[0,{j}]*e[1,{j1}]*e[2,{j2}]",
                  "e[0,{j}]*e[1,{j1}]*e[2,{j2}]"]),
    ("e[1,{j}]", ["e[1,{j1}]^-1", "e[2,{j2}]^-1*e[1,{j1}]^-1", "e[2,{j2}]^-1"]),
    ("e[2,{j}]", ["e[1,{j}]*e[2,{j}]", "e[1,{j}]", "e[1,{j1}]^-1"]),
    ("e[3,{j}]", ["e[3,{j}]", "e[2,{j}]*e[3,{j}]", "e[1,{j}]*e[2,{j}]*e[3,{j}]"]),
]


@pytest.mark.parametrize("start,stages", TRIPLE_CHAIN_CASES)
@pytest.mark.parametrize("j", [1, 2, 3])
def test_triple_twist_chains(start, stages, j):
    # step the edge through twist 1, twist 2, twist 1 and check each stage
    d, n = 3, 4
    wrap = lambda s: (s - 1) % d + 1
    fmt = dict(j=wrap(j), j1=wrap(j + 1), j2=wrap(j + 2))
    current = p(d, n, start.format(**fmt))
    for functor_index, expected in zip((1, 2, 1), stages):
        current = apply_functor(lifted_half_twist(d, n, functor_index), current)
        assert current == p(d, n, expected.format(**fmt))


def test_composite_of_three_twists_matches_stepwise_chain():
    d, n, i = 3, 4, 1
    t1, t2 = lifted_half_twist(d, n, i), lifted_half_twist(d, n, i + 1)
    triple = compose_functors(compose_functors(t1, t2), t1)
    for j in (1, 2, 3):
        j2 = (j + 1) % d + 1
        assert triple.edge(i + 2, j) == p(d, n, f"e[1,{j}]*e[2,{j}]*e[3,{j}]")
        assert triple.edge(i, j) == p(d, n, f"e[2,{j2}]^-1")


@given(strategies.braid_letters_with_params(max_n=6, max_size=6), st.integers(0, 10**6))
def test_compose_functors_shares_the_edges_a_twist_fixes(data, pick):
    d, n, letters = data

    def lift(s):
        return lifted_half_twist(d, n, s) if s > 0 else lifted_half_twist_inverse(d, n, -s)

    acc = functools.reduce(compose_functors, map(lift, letters), identity_functor(d, n))
    i, sign = divmod(pick % (2 * (n - 1)), 2)
    F = lift((i + 1) * (1 - 2 * sign))
    fixed = [k for k, row in enumerate(F.table) if row == (k + 1,)]
    assert len(fixed) >= (n + 1) * d - 3 * d
    composite = compose_functors(F, acc)
    assert all(composite.table[k] is acc.table[k] for k in fixed)


def test_compose_with_identity_is_neutral():
    F = dehn_twist(4, 3, 2, 3)
    assert compose_functors(F, identity_functor(4, 3)) == F
    assert compose_functors(identity_functor(4, 3), F) == F


@pytest.mark.parametrize("d,n", [(2, 4), (3, 4), (4, 5)])
def test_functor_braid_relation(d, n):
    for i in range(1, n - 1):
        a, b = lifted_half_twist(d, n, i), lifted_half_twist(d, n, i + 1)
        lhs = compose_functors(compose_functors(a, b), a)
        rhs = compose_functors(compose_functors(b, a), b)
        assert lhs == rhs


@pytest.mark.parametrize("d,n", [(2, 5), (3, 5), (4, 6)])
def test_distant_twists_commute_exactly(d, n):
    for i in range(1, n - 1):
        for k in range(i + 2, n):
            a, b = lifted_half_twist(d, n, i), lifted_half_twist(d, n, k)
            assert compose_functors(a, b) == compose_functors(b, a)


@given(st.integers(2, 4), st.integers(3, 5), st.lists(st.integers(), max_size=10))
def test_vertex_action_realises_the_strand_permutation(d, n, raw):
    # the composite's vertex map must agree with the product of transpositions
    letters = [(abs(s) % (n - 1)) + 1 for s in raw]
    composite = identity_functor(d, n)
    perm = list(range(n + 1))  # perm[v] tracks interior vertex v
    for i in letters:
        composite = compose_functors(composite, lifted_half_twist(d, n, i))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    for v in range(1, n + 1):
        assert composite.vertex(interior(v)) == interior(perm.index(v))


# -- the inverse lift ---------------------------------------------------------------

@pytest.mark.parametrize("d,n,i", [(d, n, i) for d in range(2, 7) for n in range(2, 8)
                                   for i in range(1, n)] + [(20, 20, i) for i in range(1, 20)])
def test_inverse_lift_cancels_the_lift(d, n, i):
    forward = lifted_half_twist(d, n, i)
    backward = lifted_half_twist_inverse(d, n, i)
    assert compose_functors(forward, backward) == identity_functor(d, n)
    assert compose_functors(backward, forward) == identity_functor(d, n)


def _hand_written_inverse_lift(d, n, i):
    """The formal inverse of the lift written out, through the validating
    constructor: the reference for the reflected lift."""
    images = {}
    for j in range(1, d + 1):
        images[Edge(i - 1, j)] = [(i - 1, j, 1), (i, j, 1)]
        images[Edge(i, j)] = [(i, groupoid._wrap(d, j - 1), -1)]
        images[Edge(i + 1, j)] = [(i, groupoid._wrap(d, j - 1), 1), (i + 1, j, 1)]
    return groupoid._functor(d, n, images)


@pytest.mark.parametrize("d", range(2, 9))
def test_reflected_lift_matches_the_hand_written_inverse(d):
    for n in range(2, 8):
        for i in range(1, n):
            F = lifted_half_twist_inverse(d, n, i)
            assert F.table == _hand_written_inverse_lift(d, n, i).table, (d, n, i)
            assert GroupoidFunctor(d, n, F.table) == F


def test_inverse_lift_validates_only_the_lift_and_composes_nothing(monkeypatch):
    validated, composed = [], []
    post_init = GroupoidFunctor.__post_init__
    monkeypatch.setattr(GroupoidFunctor, "__post_init__",
                        lambda self: validated.append(self) or post_init(self))
    monkeypatch.setattr(groupoid, "compose_functors",
                        lambda F, G: composed.append((F, G)) or compose_functors(F, G))
    lifted_half_twist.cache_clear()
    inverse = lifted_half_twist_inverse(4, 3, 2)
    assert validated == [lifted_half_twist(4, 3, 2)]
    assert composed == []
    assert compose_functors(inverse, validated[0]) == identity_functor(4, 3)


def test_inverse_lift_fixes_far_edges():
    assert lifted_half_twist_inverse(3, 4, 1).edge(3, 2) == p(3, 4, "e[3,2]")


# -- base disk and projection ---------------------------------------------------------

def test_base_half_twist_reverses_the_middle_edge():
    F = base_half_twist(4, 2)
    assert F.d == 1  # the base disk is the cover graph at d = 1
    assert F.edge_images[2].steps == (-3,)  # e[2] -> e[2]^-1
    assert F.edge_images[1].steps == (2, 3)  # e[1] -> e[1]*e[2]
    assert F.edge_images[3].steps == (3, 4)  # e[3] -> e[2]*e[3]
    assert (F.vertex(interior(2)), F.vertex(interior(3))) == (interior(3), interior(2))


def test_project_collapses_sheets():
    assert project(p(3, 2, "e[1,1]*e[1,2]^-1")) == EdgePath(1, 2, interior(1), ())
    assert project(p(3, 2, "e[0,2]*e[1,3]")) == EdgePath(1, 2, left_boundary(1), (1, 2))


@pytest.mark.parametrize("d,n,i", [(3, 4, 2), (2, 2, 1), (4, 5, 4), (6, 3, 1)])
def test_projection_intertwines_lift_and_base_twist(d, n, i):
    assert verify_lift(d, n, i)


@given(st.tuples(st.integers(2, 5), st.integers(2, 5)), st.integers(0, 2**32 - 1))
def test_projection_intertwines_on_random_paths(dn, seed):
    d, n = dn
    rng = random.Random(seed)
    i = rng.randint(1, n - 1)
    start, steps = _random_walk(rng, d, n, rng.randint(0, 24))
    q = path(d, n, steps, start=start)
    lifted = apply_functor(lifted_half_twist(d, n, i), q)
    assert project(lifted) == apply_functor(base_half_twist(n, i), project(q))


# -- constructor validation -----------------------------------------------------------

def test_functor_constructor_requires_endpoint_consistency():
    good = identity_functor(3, 2)
    broken = list(good.table)
    broken[0] = path(3, 2, [(1, 1, 1)]).steps  # wrong endpoints for edge e[0,1]
    with pytest.raises(EndpointMismatchError):
        GroupoidFunctor(3, 2, tuple(broken))


@pytest.mark.parametrize(
    "row,error,match",
    [
        # each row is (edge code, image steps) and replaces that edge's image;
        # e[0,1] (code 1) must run v0[1] -> v[1]
        ((1, (1, 2)), EndpointMismatchError, "begins at"),  # e[0,2] does not start at v[1]
        ((1, (1, 4, -4)), ValueError, "not freely reduced"),  # ends at v[1], but backtracks
        ((1, (1, 10)), EndpointMismatchError, "no edge has code 10"),  # (n+1)d = 9 edges
        ((1, (0,)), EndpointMismatchError, "no edge has code 0"),
        ((1, (1, 4)), EndpointMismatchError, "ends at"),  # chains, but ends at v[2]
        # the vertex map reads where v[1] goes off the first step of the image
        # of e[1,1] (code 4), so that step must name an edge
        ((4, ()), EndpointMismatchError, "must begin with an edge"),
        ((4, (0,)), EndpointMismatchError, "must begin with an edge"),
        ((4, (10,)), EndpointMismatchError, "must begin with an edge"),
        ((4, (1,)), EndpointMismatchError, "distinct interior"),  # v[1] -> v0[1], on the boundary
        ((4, (-1,)), EndpointMismatchError, "ends at"),  # v[1] stays, but the row ends at v0[1]
        ((7, (4,)), EndpointMismatchError, "distinct interior"),  # v[2] -> v[1], where v[1] goes
        # a third entry names the functor whose row is replaced instead.  The
        # lifted half twist sends v[2] to v[1], so its row of e[2,2] (code 8)
        # cannot be the identity's; a row equal to the identity's is walked
        # only at the two levels around a moved vertex, as this one is
        ((8, (8,), lifted_half_twist(3, 2, 1)), EndpointMismatchError, "begins at"),
    ],
)
def test_functor_constructor_validates_every_row(row, error, match):
    code, steps, *functor = row
    good = functor[0] if functor else identity_functor(3, 2)
    broken = good.table[: code - 1] + (steps,) + good.table[code:]
    with pytest.raises(error, match=match):
        GroupoidFunctor(3, 2, broken)


def test_functor_constructor_stores_tuple_rows_that_composites_share():
    # `compose_functors` shares the rows of its second argument, so list rows
    # given to the constructor must not reach a composite as lists
    identity = identity_functor(3, 2)
    F = GroupoidFunctor(3, 2, [list(row) for row in identity.table])
    assert F.table == identity.table
    composite = compose_functors(identity, F)
    assert all(type(row) is tuple for row in composite.table)
    assert composite == identity
    assert hash(composite) == hash(identity)


def test_functor_constructor_requires_fixed_boundary():
    # swapping the rows of e[0,1] and e[0,2] would send v0[1] to v0[2]
    good = identity_functor(3, 2)
    swapped = (good.table[1], good.table[0]) + good.table[2:]
    with pytest.raises(EndpointMismatchError, match="begins at"):
        GroupoidFunctor(3, 2, swapped)


def test_endpoint_consistency_of_all_builtin_functors():
    # constructors validate; touching every family here makes that explicit
    for d, n in [(2, 2), (3, 4), (5, 3)]:
        for i in range(1, n):
            lifted_half_twist(d, n, i)
            lifted_half_twist_inverse(d, n, i)
            for j in range(1, d + 1):
                dehn_twist(d, n, i, j)


@pytest.mark.parametrize(
    "start,steps",
    [
        # e[2,3] ends at vN1[3]; code 0 must not read as the last edge reversed
        (interior(2), (9, 0)),
        (left_boundary(1), (0,)),
        (left_boundary(1), (10,)),
        (left_boundary(1), (-10,)),
        (left_boundary(1), (1, 100)),
    ],
)
def test_path_constructor_rejects_codes_outside_the_edge_table(start, steps):
    with pytest.raises(ValueError):
        EdgePath(3, 2, start, steps)


@pytest.mark.parametrize(
    "override",
    [
        {Edge(2, 1): [(1, 1, 1)]},  # wrong level: e[1,1] runs v[1] -> v[2]
        {Edge(0, 1): [(0, 2, 1)]},  # wrong sheet: e[0,2] starts at v0[2]
    ],
)
def test_hand_written_tables_are_validated(override):
    with pytest.raises(EndpointMismatchError):
        groupoid._functor(3, 4, override)


def _twist_product(rng, d, n, count):
    """A random product of lifted, inverse-lifted and Dehn twists, and every
    partial product on the way."""
    composite = identity_functor(d, n)
    partials = [composite]
    for _ in range(count):
        i = rng.randint(1, n - 1)
        factor = rng.choice([
            lifted_half_twist(d, n, i),
            lifted_half_twist_inverse(d, n, i),
            dehn_twist(d, n, i, rng.randint(1, d)),
        ])
        composite = compose_functors(composite, factor)
        partials.append(composite)
    return partials


def _assert_valid_path(q):
    assert EdgePath(q.d, q.n, q.start, q.steps) == q


@given(st.tuples(st.integers(2, 4), st.integers(2, 5)), st.integers(0, 2**32 - 1))
def test_derived_paths_and_functors_pass_the_public_constructors(dn, seed):
    # paths and functors derived from validated values skip validation; the
    # public constructors must accept every one of them unchanged
    d, n = dn
    rng = random.Random(seed)
    partials = _twist_product(rng, d, n, rng.randint(0, 4))
    for F in partials:
        assert GroupoidFunctor(F.d, F.n, F.table) == F
        for image in F.edge_images:
            _assert_valid_path(image)
    for F, G in zip(partials, partials[1:]):
        FG = compose_functors(F, G)
        for v in groupoid.vertices(d, n):
            assert FG.vertex(v) == G.vertex(F.vertex(v))
    F = partials[-1]
    start, steps = _random_walk(rng, d, n, rng.randint(0, 16))
    q = path(d, n, steps, start=start)
    _, more = _random_walk(rng, d, n, rng.randint(0, 16), start=q.end)
    r = path(d, n, more, start=q.end)
    for derived in (
        apply_functor(F, q),
        path_compose(q, r),
        path_compose(q, path_invert(q)),
        path_invert(q),
        project(q),
        project(apply_functor(F, q)),
    ):
        _assert_valid_path(derived)
    letters = [(rng.randint(1, n - 1), rng.randint(1, d), rng.choice((1, -1)))
               for _ in range(rng.randint(0, 12))]
    loop = reference.word_to_loop(words.reduce(d, n, letters))
    _assert_valid_path(loop)
    _assert_valid_path(apply_functor(F, loop))


def _corrupt(rng, table, donor):
    """`table` with one row replaced (by random codes or by `donor`'s row),
    extended, cut, swapped with another, given a backtrack or reversed, or
    with the table itself extended or cut."""
    rows = list(table)
    size = len(rows)
    k = rng.randrange(size)
    row = rows[k]

    def code():  # an edge code, now and then 0 or one past the last edge
        return rng.choice((1, -1)) * rng.randint(0, size + 1)

    kind = rng.randrange(8)
    if kind == 0:
        rows[k] = tuple(code() for _ in range(rng.randint(0, 3)))
    elif kind == 1:
        rows[k] = donor[k % len(donor)]
    elif kind == 2:
        rows[k] = row + (code(),)
    elif kind == 3:
        rows[k] = row[:rng.randint(0, max(len(row) - 1, 0))]
    elif kind == 4:
        j = rng.randrange(size)
        rows[k], rows[j] = rows[j], row
    elif kind == 5:
        at, step = rng.randint(0, len(row)), code()
        rows[k] = row[:at] + (step, -step) + row[at:]
    elif kind == 6:
        rows[k] = tuple(-c for c in reversed(row))
    else:
        rows = rows + [row] if rng.random() < 0.5 else rows[:-1]
    return rows


def _outcome(check, *args):
    try:
        check(*args)
    except ValueError as error:  # every refusal of a table is a ValueError
        return type(error), str(error)
    return None


def test_functor_validation_refuses_what_a_walk_of_every_row_refuses():
    # the constructor skips the identity rows between fixed vertices; a walk
    # of every row (reference.walk_every_row) must accept the same tables and
    # refuse the others with the same exception type and message
    rng = random.Random(1801)
    accepted = refused = 0
    for d in range(1, 7):
        for n in range(2, 8):
            if d == 1:
                valid = [identity_functor(1, n)]
                for _ in range(4):
                    twist = base_half_twist(n, rng.randint(1, n - 1))
                    valid.append(compose_functors(valid[-1], twist))
            else:
                valid = _twist_product(rng, d, n, 4)
            for _ in range(100):
                table = rng.choice(valid).table
                for _ in range(rng.randint(0, 2)):
                    table = _corrupt(rng, table, rng.choice(valid).table)
                outcome = _outcome(GroupoidFunctor, d, n, table)
                assert outcome == _outcome(reference.walk_every_row, d, n, table), (d, n, table)
                accepted += outcome is None
                refused += outcome is not None
    assert accepted > 500 and refused > 1500


def test_lift_check_sees_a_wrong_sheet():
    # e[2,1] -> e[2,1]^-1 instead of e[2,2]^-1: endpoint-valid, and its
    # projection agrees with the true lift's on every edge
    d, n, i = 3, 4, 2
    lift = lifted_half_twist(d, n, i)
    code = groupoid._edge_code(d, n, 2, 1)
    table = list(lift.table)
    assert lift.edge_images[code - 1] == p(d, n, "e[2,2]^-1")
    table[code - 1] = p(d, n, "e[2,1]^-1").steps
    mutant = GroupoidFunctor(d, n, tuple(table))
    assert [project(a) for a in mutant.edge_images] == [project(a) for a in lift.edge_images]
    base = base_half_twist(n, i)
    assert groupoid._is_lift(lift, base)
    assert not groupoid._is_lift(mutant, base)


def test_lift_check_sees_the_wrong_base_twist():
    # every one of these commutes with the deck shift, so only the
    # projection onto the base half twist can tell them apart
    base = base_half_twist(4, 2)
    for other in (lifted_half_twist(3, 4, 1), lifted_half_twist(3, 4, 3), identity_functor(3, 4)):
        assert not groupoid._is_lift(other, base)


def _sheet_shifted_lift(d, n, i):
    """Endpoint-valid, deck-equivariant and projecting onto the base half
    twist, yet it moves the boundary arcs of the cover."""
    images = {}
    for j in range(1, d + 1):
        images[Edge(i - 1, j)] = [(i - 1, j, 1), (i, groupoid._wrap(d, j + 2), 1)]
        images[Edge(i, j)] = [(i, groupoid._wrap(d, j + 2), -1)]
        images[Edge(i + 1, j)] = [(i, groupoid._wrap(d, j + 1), 1), (i + 1, j, 1)]
    return groupoid._functor(d, n, images)


def _upper_arc_keeping_lift(d, n, i):
    """The lift conjugated by e[l,k] -> e[l,k-(l-i+1)] at levels i-1..i+1: it
    sends the pattern e[i-1,j]*e[i,j]*e[i+1,j] of the upper arcs to the one
    of the lower arcs, which the lift fixes, so for d >= 3 it fixes every
    upper arc and moves every lower arc."""
    return groupoid._relabel(lifted_half_twist(d, n, i), i, lambda level: [
        groupoid._wrap(d, k - (level - i + 1)) for k in range(1, d + 1)])


@pytest.mark.parametrize("d,n", [(3, 3), (4, 4), (5, 3), (5, 6)])
def test_lift_check_sees_a_lift_that_moves_the_boundary(d, n):
    deck = groupoid._deck_table(d, n)
    upper = p(d, n, "*".join(f"e[{level},1]" for level in range(n + 1)))
    for i in range(1, n):
        base = base_half_twist(n, i)
        for F in (_sheet_shifted_lift(d, n, i), _upper_arc_keeping_lift(d, n, i)):
            assert [project(a) for a in F.edge_images] == [project(a) for a in base.edge_images
                                                           for _ in range(d)]
            assert all(F.table[s - 1] == words._substitute(deck, row, {})
                       for ((s,), row) in zip(deck, F.table))
            assert not groupoid._is_lift(F, base), (d, n, i)
        assert apply_functor(_upper_arc_keeping_lift(d, n, i), upper) == upper


@pytest.mark.parametrize("d", range(2, 7))
def test_every_desk_lift_and_inverse_lift_is_a_lift(d):
    # the base half twist is an involution of the base groupoid, so the
    # inverse lift covers it too
    for n in range(2, 8):
        for i in range(1, n):
            base = base_half_twist(n, i)
            assert groupoid._is_lift(lifted_half_twist(d, n, i), base)
            assert groupoid._is_lift(lifted_half_twist_inverse(d, n, i), base)


def test_oversized_graphs_are_refused_before_allocation(monkeypatch):
    # d = 7, n = 10 has (n+1)d = 77 edges; no other test uses it, so no
    # table for it is cached yet
    monkeypatch.setattr(words, "LETTER_BUDGET", 76)
    for build in (
        lambda: identity_functor(7, 10),
        lambda: lifted_half_twist(7, 10, 1),
        lambda: lifted_half_twist_inverse(7, 10, 1),
        lambda: dehn_twist(7, 10, 1, 2),
        lambda: parse_path(7, 10, "e[0,1]"),
    ):
        with pytest.raises(BudgetExceededError, match=r"d=7, n=10"):
            build()
    monkeypatch.setattr(words, "LETTER_BUDGET", 77)
    assert len(identity_functor(7, 10).edge_images) == 77


# -- grammar ----------------------------------------------------------------------------

def test_path_grammar_round_trip():
    q = p(4, 3, "e[0,2]*e[1,3]*e[2,1]")
    assert parse_path(4, 3, format_path(q)) == q
    at = empty_path(4, 3, right_boundary(3, 2))
    assert parse_path(4, 3, format_path(at)) == at
    assert format_path(empty_path(4, 3, interior(2))) == "v[2]"
    assert format_path(empty_path(4, 3, left_boundary(1))) == "v0[1]"


@pytest.mark.parametrize("bad", ["e[1]", "x[1,1]", "e[1,1]^2", "v[9]", "e[9,1]",
                                 "e[0_1,1]", "e[0,\u0662]", "v[0_1]", "v0[\u0661]",
                                 "vN1[\u0662]", "v0[a]", "e[0,1]*e[2,1]*e[2,1]^-1"])
def test_parse_path_rejects_bad_tokens(bad):
    with pytest.raises(ValueError):
        parse_path(3, 2, bad)


def test_vertex_tokens_are_refused_by_name():
    for bad in ("v0[a]", "v0[\u0661]", "v[0_1]", "vN1[1_0]"):
        with pytest.raises(ValueError, match=re.escape(f"cannot parse vertex token {bad!r}")):
            parse_path(3, 2, bad)
    # blanks and a sign inside the brackets still read
    assert parse_path(3, 2, " v0[ +2 ] ") == empty_path(3, 2, left_boundary(2))


def test_path_checks_the_steps_as_given_before_it_reduces_them():
    # e[2,1] begins at v[2], but e[0,1] ends at v[1]: the pair e[2,1]*e[2,1]^-1
    # cancels, yet the chain does not meet
    with pytest.raises(EndpointMismatchError, match="begins at"):
        path(3, 2, [(0, 1, 1), (2, 1, 1), (2, 1, -1)])
    # a chain that meets and cancels still reduces
    assert parse_path(3, 2, "e[0,1]*e[1,1]*e[1,1]^-1") == path(3, 2, [(0, 1, 1)])
    assert path(3, 2, [(1, 1, 1), (1, 1, -1)]) == empty_path(3, 2, interior(1))
    with pytest.raises(ValueError, match="no interior vertex"):
        path(3, 2, [(0, 1, 1)], start=interior(9))


def test_format_path_spells_two_digit_indices():
    # edge code i*d + j: level 11, sheet 12 at d = 12 is code 144
    q = path(12, 12, [(11, 12, 1)])
    assert q.steps == (144,)
    assert format_path(q) == "e[11,12]"
    assert format_path(path_invert(q)) == "e[11,12]^-1"
    assert parse_path(12, 12, "e[11,12]") == q


@pytest.mark.parametrize("d,n", [(2, 2), (3, 4), (11, 11)])
def test_format_path_matches_the_step_by_step_reference(d, n):
    # a path longer than the edge count (n+1)d is gathered from the token
    # table, a shorter one spelled token by token: both sides of the split,
    # at one- and two-digit indices, and long mixed-sign paths
    size = (n + 1) * d
    rng = random.Random(d * 1000 + n)
    # a walk over the edges between interior vertices that never undoes
    # its last step is reduced, and crosses edges both ways
    at, steps = 1, []
    while len(steps) < 3 * size + 2000:
        moves = [(at, j, 1) for j in range(1, d + 1) if at < n]
        moves += [(at - 1, j, -1) for j in range(1, d + 1) if at > 1]
        level, j, sign = rng.choice([m for m in moves if not steps
                                     or m != (*steps[-1][:2], -steps[-1][2])])
        steps.append((level, j, sign))
        at += sign
    q = path(d, n, steps, start=interior(1))
    assert len(q.steps) == len(steps)
    for length in (0, 1, size - 1, size, size + 1, size + 2, 2 * size + 1, len(q.steps)):
        prefix = EdgePath(d, n, q.start, q.steps[:length])
        assert format_path(prefix) == reference.spell_path(prefix)
        assert parse_path(d, n, format_path(prefix)) == prefix
    assert {c > 0 for c in q.steps} == {True, False}


def test_printing_a_wide_lift_builds_no_token_table():
    # every row of the lift at d = 20000, n = 2 is at most two steps long
    # against 60,000 edges, so no row pays for a table of 120,001 tokens
    words._tokens.cache_clear()
    try:
        F = lifted_half_twist(20000, 2, 1)
        for code, row in enumerate(F.table, start=1):
            str(F._view((code,))), str(F._view(row))
        assert words._tokens.cache_info().misses == 0
    finally:
        lifted_half_twist.cache_clear()
        words._tokens.cache_clear()


def test_projected_path_formats_over_the_base_edges():
    q = p(3, 2, "e[0,2]*e[1,3]*e[2,1]")
    assert format_path(project(q)) == "e[0,1]*e[1,1]*e[2,1]"
    assert parse_path(1, 2, "e[0,1]*e[1,1]*e[2,1]") == project(q)


@given(st.tuples(st.integers(1, 12), st.integers(2, 12)), st.integers(0, 2**32 - 1))
def test_any_path_round_trips_through_text(dn, seed):
    d, n = dn
    rng = random.Random(seed)
    start, steps = _random_walk(rng, d, n, rng.randint(0, 24))
    q = path(d, n, steps, start=start)
    assert parse_path(d, n, format_path(q)) == q
