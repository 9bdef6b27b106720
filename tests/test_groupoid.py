"""Cover-graph paths and self-functors: twists, lifts, projection."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from braidcover import groupoid, pi1, words
from braidcover.errors import BudgetExceededError, EndpointMismatchError, ParameterMismatchError
from braidcover.groupoid import (
    Edge,
    EdgePath,
    GroupoidFunctor,
    apply_functor,
    base_half_twist,
    compose_functors,
    dehn_twist,
    edge_path,
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


def p(d, n, text):
    return parse_path(d, n, text)


# -- path arithmetic ------------------------------------------------------------

def test_path_compose_chains_two_edges():
    got = path_compose(edge_path(3, 2, 0, 1), edge_path(3, 2, 1, 1))
    assert got == p(3, 2, "e[0,1]*e[1,1]")
    assert got.start == left_boundary(1)
    assert got.end == interior(2)


def test_path_compose_cancels_inverse_pair():
    got = path_compose(edge_path(3, 2, 1, 1), path_invert(edge_path(3, 2, 1, 1)))
    assert got == empty_path(3, 2, interior(1))


def test_path_invert_reverses_steps():
    got = path_invert(p(3, 2, "e[0,1]*e[1,1]"))
    assert got == p(3, 2, "e[1,1]^-1*e[0,1]^-1")


def test_path_compose_rejects_endpoint_mismatch():
    with pytest.raises(EndpointMismatchError):
        path_compose(edge_path(3, 2, 0, 1), edge_path(3, 2, 0, 1))


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
        at = (
            groupoid._target(d, n, groupoid._edge_code(d, n, level, sheet))
            if direction > 0
            else groupoid._source(d, n, groupoid._edge_code(d, n, level, sheet))
        )
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
        apply_functor(lifted_half_twist(3, 3, 1), edge_path(3, 2, 0, 1))


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

@pytest.mark.parametrize("d,n,i", [(3, 3, 1), (3, 3, 2), (4, 2, 1), (5, 4, 2)])
def test_inverse_lift_cancels_the_lift(d, n, i):
    forward = lifted_half_twist(d, n, i)
    backward = lifted_half_twist_inverse(d, n, i)
    assert compose_functors(forward, backward) == identity_functor(d, n)
    assert compose_functors(backward, forward) == identity_functor(d, n)


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
    broken[0] = edge_path(3, 2, 1, 1).steps  # wrong endpoints for edge e[0,1]
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
    ],
)
def test_functor_constructor_validates_every_row(row, error, match):
    code, steps = row
    good = identity_functor(3, 2)
    broken = good.table[: code - 1] + (steps,) + good.table[code:]
    with pytest.raises(error, match=match):
        GroupoidFunctor(3, 2, broken)


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
    loop = pi1.word_to_loop(words.word(d, n, letters))
    _assert_valid_path(loop)
    _assert_valid_path(apply_functor(F, loop))


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


@pytest.mark.parametrize("bad", ["e[1]", "x[1,1]", "e[1,1]^2", "v[9]", "e[9,1]"])
def test_parse_path_rejects_bad_tokens(bad):
    with pytest.raises(ValueError):
        parse_path(3, 2, bad)


def test_format_path_spells_two_digit_indices():
    # edge code i*d + j: level 11, sheet 12 at d = 12 is code 144
    q = edge_path(12, 12, 11, 12)
    assert q.steps == (144,)
    assert format_path(q) == "e[11,12]"
    assert format_path(path_invert(q)) == "e[11,12]^-1"
    assert parse_path(12, 12, "e[11,12]") == q


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
