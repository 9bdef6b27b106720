"""Directed-graph model of the d-sheeted branched cover of a marked disk.

The graph has interior vertices 1..n (one over each branch point), d left
boundary vertices 0_(j) and d right boundary vertices (n+1)_(j), and d
parallel edges e[i,j] (sheets j = 1..d) from level i to level i+1 for each
i = 0..n.  Sheet indices are cyclic with period d.

Internally a directed edge step is a signed integer code: the forward edge
e[i,j] has code i*d + j, a backward traversal the negated code.  A path is
thus a free-group word over edge codes that carries its endpoints, and it is
reduced and mapped by the same kernels as words (`words._reduce_onto`,
`words._substitute`).  A self-functor of the free groupoid on this graph is
stored as its substitution table alone: row c - 1 holds the step codes of
the image of edge c, a path that starts at the image of the edge's source.
Every edge joins distinct vertices, so each row is nonempty and the vertex
map is read off the rows: v[i] goes where the image of e[i,1] begins, and
boundary vertices stay fixed.  `edge_images` and `edge(i, j)` view rows as
image paths on demand (`_view`); the one-code row (c,) views as edge c.
The base disk is the same graph at d = 1, a single edge per level; `project`
collapses sheets onto it.  Paths and functors accept any d >= 1, while the
twist lifts need a genuine cover, d >= 2.  Everything is immutable and pure.

Validation happens at the boundary.  The public constructors `EdgePath(...)`
and `GroupoidFunctor(...)`, and with them `empty_path`, `parse_path` and
every hand-written twist table, walk step sequences (`_walk`) to check
endpoints and free reduction (`path` walks its steps as given, then reduces
them); a functor's vertex map must also permute the interior vertices.  A
functor walks its rows in code order and skips only a row equal to the
identity's whose two endpoints its vertex map fixes: that row is valid.
Values derived from validated ones -- images, composites, inverses,
projections and the tables `_relabel` conjugates by a level-keeping graph
automorphism (the inverse lift by a sheet reflection, Dehn twists at sheets
j != d and products of twists by a deck shift) -- are valid by
construction and built through the private `_trusted` constructors without
a second check.  A graph whose edge table would exceed
`words.LETTER_BUDGET` is refused before anything is allocated.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable
from functools import lru_cache, partial

from .errors import EndpointMismatchError
from .words import _compose_rows, _format_codes, _keep_moved, _moved, _parse_int
from .words import _Frozen, _parse_tokens, _reduce_onto, _same_params, _substitute
from .words import check_index, check_params, check_table_size


# level 0..n+1; sheet 0 for interior vertices, 1..d on the two boundary columns
Vertex = namedtuple("Vertex", "level sheet")

# level 0..n; sheet 1..d
Edge = namedtuple("Edge", "level sheet")


def interior(i: int) -> Vertex:
    return Vertex(i, 0)


def left_boundary(j: int) -> Vertex:
    return Vertex(0, j)


def right_boundary(n: int, j: int) -> Vertex:
    return Vertex(n + 1, j)


def vertices(d: int, n: int) -> tuple[Vertex, ...]:
    """All n + 2d vertices in canonical order: interior, left, right."""
    return (
        tuple(interior(i) for i in range(1, n + 1))
        + tuple(left_boundary(j) for j in range(1, d + 1))
        + tuple(right_boundary(n, j) for j in range(1, d + 1))
    )


def _check_vertex(d: int, n: int, v: Vertex) -> None:
    level, sheet = v
    if sheet == 0:
        if not 1 <= level <= n:
            raise ValueError(f"no interior vertex at level {level} for n={n}")
    elif not 1 <= sheet <= d:
        raise ValueError(f"boundary sheet must be in 1..{d}, got {sheet}")
    elif level not in (0, n + 1):
        raise ValueError(f"no boundary vertex at level {level} for n={n}")


def _wrap(d: int, j: int) -> int:
    return (j - 1) % d + 1


def _edge_code(d: int, n: int, i: int, j: int) -> int:
    if not 0 <= i <= n:
        raise ValueError(f"edge level i must be in 0..{n}, got i={i}")
    return i * d + _wrap(d, j)


@lru_cache(maxsize=None)
def _ends(d: int, n: int) -> tuple[tuple[Vertex, Vertex], ...]:
    """(source, target) of every edge, indexed by edge code - 1: e[i,j] runs
    from level i to level i+1, and an end on level 0 or n+1 is the boundary
    vertex of sheet j, any other the interior vertex.

    The vertices are the objects of `vertices(d, n)`, shared across entries.
    """
    check_table_size(d, n, (n + 1) * d)
    canonical = {v: v for v in vertices(d, n)}
    return tuple(
        (canonical[Vertex(level, sheet if level == 0 else 0)],
         canonical[Vertex(level + 1, sheet if level == n else 0)])
        for level in range(n + 1) for sheet in range(1, d + 1)
    )


def _step_ends(d: int, n: int, step: int) -> tuple[Vertex, Vertex]:
    if step > 0:
        return _ends(d, n)[step - 1]
    target, source = _ends(d, n)[-step - 1]
    return source, target


def _walk(d: int, n: int, start: Vertex, steps: tuple[int, ...]) -> Vertex:
    """End of the walk along `steps` from `start`.

    Raises unless every step is an edge code of the graph, each step begins
    where the previous one ended, and no step undoes the one before it.
    """
    ends = _ends(d, n)
    count = len(ends)
    at, prev = start, 0
    for step in steps:
        if 0 < step <= count:
            begin, end = ends[step - 1]
        elif 0 < -step <= count:
            end, begin = ends[-step - 1]
        else:
            raise EndpointMismatchError(f"no edge has code {abs(step)} for d={d}, n={n}")
        if step == -prev:
            raise ValueError("path is not freely reduced")
        if begin != at:
            raise EndpointMismatchError(
                f"step over edge code {abs(step)} begins at {begin}, expected {at}"
            )
        at = end
        prev = step
    return at


class EdgePath(_Frozen):
    """Endpoint-compatible, freely reduced sequence of signed edge steps."""

    d: int
    n: int
    start: Vertex
    steps: tuple[int, ...]

    def __post_init__(self) -> None:
        check_params(self.d, self.n, 1)
        _check_vertex(self.d, self.n, self.start)
        _walk(self.d, self.n, self.start, self.steps)

    @property
    def end(self) -> Vertex:
        if not self.steps:
            return self.start
        return _step_ends(self.d, self.n, self.steps[-1])[1]

    def __len__(self) -> int:
        return len(self.steps)

    def __str__(self) -> str:
        return format_path(self)


def path(d: int, n: int, steps: Iterable, start: Vertex | None = None) -> EdgePath:
    """Path from (level, sheet, direction) triples, freely reduced.

    `start` is only needed for the empty path; otherwise it is inferred
    from the first step.  The steps are checked as given: each one must
    begin where the one before it ends, even where two of them cancel.
    """
    check_params(d, n, 1)
    codes = []
    for (i, j, direction) in steps:
        if direction not in (1, -1):
            raise ValueError(f"step direction must be +1 or -1, got {direction}")
        codes.append(direction * _edge_code(d, n, i, j))
    if not codes:
        if start is None:
            raise ValueError("an empty path needs an explicit start vertex")
        return empty_path(d, n, start)
    at = start = _step_ends(d, n, codes[0])[0] if start is None else start
    _check_vertex(d, n, start)
    for code in codes:  # one step at a time, so a cancelling pair is walked too
        at = _walk(d, n, at, (code,))
    return EdgePath._trusted(d, n, start, _reduce_onto([], codes))


def empty_path(d: int, n: int, at: Vertex) -> EdgePath:
    return EdgePath(d, n, at, ())


def path_compose(p: EdgePath, q: EdgePath) -> EdgePath:
    """Concatenation, defined when p ends where q starts."""
    _same_params(p, q)
    if p.end != q.start:
        raise EndpointMismatchError(
            f"cannot compose: first path ends at {p.end}, second starts at {q.start}"
        )
    return EdgePath._trusted(p.d, p.n, p.start, _reduce_onto(list(p.steps), q.steps))


def path_invert(p: EdgePath) -> EdgePath:
    return EdgePath._trusted(p.d, p.n, p.end, tuple(-s for s in reversed(p.steps)))


class GroupoidFunctor(_Frozen):
    """Self-functor given by its edge substitution table alone.

    Construction checks that the vertex map read off the rows permutes the
    interior vertices, then walks the rows in code order, each from the
    image of its edge's source: it must be a reduced path ending at the image
    of the edge's target, so a boundary row begins at its vertex.  Only an
    identity row between fixed vertices is skipped.
    """

    d: int
    n: int
    table: tuple[tuple[int, ...], ...]  # indexed by edge code - 1

    def __post_init__(self) -> None:
        # tuple rows, as derived tables hold: `_compose_rows` shares them
        d, n, table = self.d, self.n, tuple(map(tuple, self.table))
        object.__setattr__(self, "table", table)
        check_params(d, n, 1)
        ends = _ends(d, n)
        if len(table) != len(ends):
            raise ValueError("edge map must cover every edge")
        for code in range(d + 1, len(ends) + 1, d):  # e[i,1]; its first step fixes F(v[i])
            if not table[code - 1] or not 0 < abs(table[code - 1][0]) <= len(ends):
                raise EndpointMismatchError(f"image of edge code {code} must begin with an edge")
        verts = vertices(d, n)
        moved = [self.vertex(v) for v in verts[:n]]
        if sorted(moved) != list(verts[:n]):
            raise EndpointMismatchError("e[i,1] images must begin at distinct interior vertices")
        image_of = dict(zip(verts[:n], moved))
        rows = zip(ends, table, identity_functor(d, n).table)
        for code, ((source, target), row, fixed) in enumerate(rows, 1):
            start, stop = image_of.get(source, source), image_of.get(target, target)
            if row == fixed and start == source and stop == target:
                continue  # an identity row between fixed vertices is valid
            end = _walk(d, n, start, row)
            if end != stop:
                raise EndpointMismatchError(
                    f"image of edge code {code} ends at {end}, expected {stop}"
                )

    def vertex(self, v: Vertex) -> Vertex:
        """Image of v: v on the boundary; for v[i], where the image of e[i,1] begins."""
        _check_vertex(self.d, self.n, v)
        if v.sheet:
            return v
        return _step_ends(self.d, self.n, self.table[v.level * self.d][0])[0]

    def _view(self, row: tuple[int, ...]) -> EdgePath:
        """A nonempty table row as the path it spells, starting where `row[0]`
        begins; `_view((c,))` is the edge with code c."""
        return EdgePath._trusted(self.d, self.n, _step_ends(self.d, self.n, row[0])[0], row)

    @property
    def edge_images(self) -> tuple[EdgePath, ...]:
        """Every edge image as a path, indexed by edge code - 1."""
        return tuple(map(self._view, self.table))

    def edge(self, i: int, j: int) -> EdgePath:
        """Image of the edge e[i,j] (sheet wrapped mod d)."""
        return self._view(self.table[_edge_code(self.d, self.n, i, j) - 1])


def apply_functor(F: GroupoidFunctor, p: EdgePath) -> EdgePath:
    """Image of a path: expand step by step, then freely reduce."""
    _same_params(F, p)
    return EdgePath._trusted(F.d, F.n, F.vertex(p.start), _substitute(F.table, p.steps, {}))


def compose_functors(F: GroupoidFunctor, G: GroupoidFunctor) -> GroupoidFunctor:
    """Composite that applies F first, then G."""
    _same_params(F, G)
    return _compose_rows(F, G)


@lru_cache(maxsize=None)
def identity_functor(d: int, n: int) -> GroupoidFunctor:
    check_params(d, n, 1)
    check_table_size(d, n, (n + 1) * d)
    return GroupoidFunctor._trusted(d, n, tuple((code,) for code in range(1, (n + 1) * d + 1)))


def _functor(d: int, n: int, images: dict[Edge, list[tuple[int, int, int]]]) -> GroupoidFunctor:
    """Functor that overrides some edges of the identity.

    The overrides are (level, sheet, direction) steps; the identity's rows
    are shared, and the result goes through the validating constructor.
    """
    table = list(identity_functor(d, n).table)
    for (level, sheet), steps in images.items():
        table[_edge_code(d, n, level, sheet) - 1] = tuple(
            direction * _edge_code(d, n, i, j) for (i, j, direction) in steps
        )
    return GroupoidFunctor(d, n, tuple(table))


def _relabel(F: GroupoidFunctor, i: int, sheets: Callable[[int], list[int]]) -> GroupoidFunctor:
    """F conjugated by s: e[l,k] -> e[l, sheets(l)[k-1]], a graph automorphism
    that keeps every level, so row s(c) is s of row c.  F must move no row
    outside the 3d rows at levels i-1..i+1, its moved set (`_moved`) must be
    all of them, and they must name only edges there.  A written twist or
    lift moves every row of the band; a composite of such maps has the
    union of its factors' sets, the band again, and its rows name only band
    edges.  Only the band rows are rewritten, and the result is valid by
    construction.  s keeps the band, so the result is built with
    `_moved(F)` itself, scanned at most once per F."""
    d, table = F.d, F.table
    band = range((i - 1) * d + 1, (i + 2) * d + 1)
    s = dict(zip(band, [level * d + k for level in range(i - 1, i + 2) for k in sheets(level)]))
    s.update([(-c, -t) for c, t in s.items()])
    rows = {s[c]: tuple(map(s.__getitem__, table[c - 1])) for c in band}
    band_rows = tuple(map(rows.__getitem__, band))
    return _keep_moved(
        GroupoidFunctor._trusted(d, F.n, table[:band[0] - 1] + band_rows + table[band[-1]:]),
        _moved(F))


@lru_cache(maxsize=None)
def lifted_half_twist(d: int, n: int, i: int) -> GroupoidFunctor:
    """Lift of the half twist swapping branch points i and i+1.

    Swaps the interior vertices i and i+1 and maps, for every sheet j,
    e[i-1,j] -> e[i-1,j]*e[i,j+1], e[i,j] -> e[i,j+1]^-1,
    e[i+1,j] -> e[i,j]*e[i+1,j]; everything else is fixed.
    """
    check_params(d, n)
    check_index(d, n, i, (n + 1) * d)
    images: dict[Edge, list[tuple[int, int, int]]] = {}
    for j in range(1, d + 1):
        images[Edge(i - 1, j)] = [(i - 1, j, 1), (i, _wrap(d, j + 1), 1)]
        images[Edge(i, j)] = [(i, _wrap(d, j + 1), -1)]
        images[Edge(i + 1, j)] = [(i, j, 1), (i + 1, j, 1)]
    return _functor(d, n, images)


def lifted_half_twist_inverse(d: int, n: int, i: int) -> GroupoidFunctor:
    """Lift of the inverse half twist, e[i-1,j] -> e[i-1,j]*e[i,j],
    e[i,j] -> e[i,j-1]^-1, e[i+1,j] -> e[i,j-1]*e[i+1,j]: the lift
    conjugated by the sheet reflection e[l,k] -> e[l,l-k], an involution
    that fixes every interior vertex."""
    return _relabel(lifted_half_twist(d, n, i), i,
                    lambda level: [(level - k - 1) % d + 1 for k in range(1, d + 1)])


def dehn_twist(d: int, n: int, i: int, j: int) -> GroupoidFunctor:
    """Twist along the standard loop with indices (i, j), sheet mod d.

    Only the edge images are stored; the interior swap i <-> i+1 is read
    off them, as for every functor.  The twist at sheet d is written out,
    validated and cached (`_written_dehn_twist`); the twist at any other
    sheet j is its deck shift by j (`_deck_shift`), built on each call.  So
    each (d, n, i) validates and keeps one table.
    """
    check_params(d, n)
    check_index(d, n, i, (n + 1) * d)
    if j != d:
        return _deck_shift(_written_dehn_twist(d, n, i), i, j)
    return _written_dehn_twist(d, n, i)


def _deck_shift(F: GroupoidFunctor, i: int, m: int) -> GroupoidFunctor:
    """F conjugated by the m-th power of the deck shift e[l,k] -> e[l,k+1]
    (the identity when d divides m), through `_relabel`: F must move only
    the band of levels i-1..i+1, as a twist there or a product of such
    twists does.  The shift of the twist at sheet j is the twist at sheet
    j + m."""
    d = F.d
    shifted = [*range(m % d + 1, d + 1), *range(1, m % d + 1)]
    return _relabel(F, i, lambda level: shifted)


@lru_cache(maxsize=None)
def _written_dehn_twist(d: int, n: int, i: int) -> GroupoidFunctor:
    """The twist along (i, d), written out and validated."""
    images: dict[Edge, list[tuple[int, int, int]]] = {}
    for k in range(1, d + 1):
        near = 1 if k == d else d  # e[i,d] and e[i,1] swap; the other sheets pass e[i,d]
        images[Edge(i - 1, k)] = [(i - 1, k, 1), (i, near, 1)]
        images[Edge(i, k)] = ([(i, d, -1), (i, k, 1), (i, d, -1)] if 1 < k < d
                              else [(i, near, -1)])
        images[Edge(i + 1, k)] = [(i, 1 if k == 1 else d, 1), (i + 1, k, 1)]
    return _functor(d, n, images)


# -- the base disk and the sheet-collapsing projection -----------------------
#
# The base disk is the cover graph at d = 1: vertices 0..n+1 (boundary
# vertices carry sheet 1) and a single edge e[i,1], with code i+1, per level.

@lru_cache(maxsize=None)
def base_half_twist(n: int, i: int) -> GroupoidFunctor:
    """Half twist on the base disk: swaps i, i+1; e[i] reverses, its
    neighbours pick up e[i] on the appropriate side.

    Written out by hand rather than taken as lifted_half_twist(1, n, i), so
    the lift/projection check compares two independent tables.
    """
    check_params(1, n, 1)
    check_index(1, n, i, n + 1)
    return _functor(1, n, {
        Edge(i - 1, 1): [(i - 1, 1, 1), (i, 1, 1)],
        Edge(i, 1): [(i, 1, -1)],
        Edge(i + 1, 1): [(i, 1, 1), (i + 1, 1, 1)],
    })


@lru_cache(maxsize=None)
def _collapse_table(d: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Substitution e[i,j] -> e[i] from cover edge codes to base edge codes."""
    return tuple(((code - 1) // d + 1,) for code in range(1, (n + 1) * d + 1))


def project(p: EdgePath) -> EdgePath:
    """Collapse sheets: e[i,j] -> e[i], boundary columns merge to 0 and n+1."""
    start = Vertex(p.start.level, min(p.start.sheet, 1))
    return EdgePath._trusted(1, p.n, start, _substitute(_collapse_table(p.d, p.n), p.steps, {}))


@lru_cache(maxsize=None)
def _deck_table(d: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Substitution e[i,j] -> e[i,j+1], the deck transformation on edge codes."""
    return tuple((level * d + _wrap(d, j + 1),) for level in range(n + 1) for j in range(1, d + 1))


def verify_lift(d: int, n: int, i: int) -> bool:
    """Whether the lifted half twist is a lift of the base half twist."""
    return _is_lift(lifted_half_twist(d, n, i), base_half_twist(n, i))


def _is_lift(lift: GroupoidFunctor, base: GroupoidFunctor) -> bool:
    """Whether `lift` projects onto `base`, commutes with the deck shift and
    fixes the boundary of the cover.

    The base graph is a line, so a reduced base path is fixed by its
    endpoints and the projection alone cannot see a wrong sheet; a lift of
    a mapping class of the disk must also commute with the deck
    transformation that moves every sheet up by one, and it fixes the
    boundary of the cover pointwise (Birman-Hilden).  By deck equivariance
    the sheet-1 boundary arcs U_1 = e[0,1]*e[1,1]*...*e[n,1] and
    L_1 = e[0,1]*e[1,2]*...*e[n,n+1] stand for all 2d of them.
    """
    d, n, table = lift.d, lift.n, lift.table
    collapse, memo = _collapse_table(d, n), {}
    # both tables hold validated, nonempty rows, and on the base a step's
    # code fixes the level it begins at, so equal collapsed rows mean the
    # projected image paths are equal, start vertices included
    if any(_substitute(collapse, row, memo) != base.table[k // d]
           for k, row in enumerate(table)):
        return False
    deck, memo = _deck_table(d, n), {}
    if not all(table[shifted - 1] == _substitute(deck, steps, memo)
               for ((shifted,), steps) in zip(deck, table)):
        return False
    upper = tuple(range(1, n * d + 2, d))
    lower = tuple([level * d + level % d + 1 for level in range(n + 1)])
    return _substitute(table, upper, {}) == upper and _substitute(table, lower, {}) == lower


# -- text grammar ------------------------------------------------------------
#
# Edge tokens `e[i,j]` follow the word grammar of `words` (an edge code
# i*d + j spells as level i, sheet j); vertices render as `v[i]`, `v0[j]`,
# `vN1[j]`, and an empty path renders as its start vertex.

def format_vertex(v: Vertex) -> str:
    if v.sheet == 0:
        return f"v[{v.level}]"
    return f"v0[{v.sheet}]" if v.level == 0 else f"vN1[{v.sheet}]"


def format_path(p: EdgePath) -> str:
    if not p.steps:
        return format_vertex(p.start)
    return _format_codes(p.steps, "e", p.d, 0, (p.n + 1) * p.d)


def parse_path(d: int, n: int, text: str) -> EdgePath:
    """Parse the path grammar; a lone vertex token is the empty path there."""
    check_params(d, n, 1)
    text = text.strip()
    if text.startswith("v"):
        for head, vertex in (("v0[", left_boundary), ("vN1[", partial(right_boundary, n)),
                             ("v[", interior)):
            if text.startswith(head) and text.endswith("]"):
                try:
                    index = _parse_int(text[len(head):-1])
                except ValueError:
                    break
                return empty_path(d, n, vertex(index))
        raise ValueError(f"cannot parse vertex token {text!r}")
    return path(d, n, _parse_tokens(text, "e"))
