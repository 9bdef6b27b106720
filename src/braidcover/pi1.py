"""Translation between paths in the cover graph and free-group words.

The basepoint is the left boundary vertex 0_(1).  A fixed spanning tree --
all edges on levels 0 and n, plus the sheet-1 edge on every middle level --
joins it to every vertex v by a tree path p_v; the path to interior vertex i
is p_i = e[0,1]*e[1,1]*...*e[i-1,1].  The tree retraction sends a path from
u to v to the basepoint loop p_u * path * p_v^-1, read as a word.  It is a
groupoid homomorphism onto the free group, so it translates any path one
edge at a time: `_edge_words` sends a tree edge to the empty word and each
of the (d-1)(n-1) other edges e[i,j] (1 <= i <= n-1, 2 <= j <= d) to the
inverse prefix x[i,j-1]^-1*...*x[i,1]^-1.  The generator x[i,j] is then the
loop p_i * e[i,j] * e[i,j+1]^-1 * p_i^-1.

Every functor fixes the boundary, basepoint included, so a functor F acts
on the surface group by

    x[i,j] -> P_i * W(e[i,j]) * W(e[i,j+1])^-1 * P_i^-1,

where W(e) is the word of F's image of the edge e and
P_i = W(e[0,1])*...*W(e[i-1,1]) is the word of F(p_i); both are letter
substitutions through `words._substitute`.  `loop_to_word` and
`word_to_loop` translate between basepoint loops and words; the tests use
them as an independent route to the same action.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain

from . import words
from .groupoid import EdgePath, GroupoidFunctor, Vertex, left_boundary
from .words import FreeAutomorphism, Word, _reduce_onto, _substitute


def basepoint(d: int, n: int) -> Vertex:
    return left_boundary(1)


@lru_cache(maxsize=None)
def _edge_words(d: int, n: int) -> tuple[range, ...]:
    """The tree retraction on forward edge steps, indexed by edge code - 1.

    A tree edge maps to the empty word; a non-tree e[i,j] maps to the inverse
    prefix x[i,j-1]^-1*...*x[i,1]^-1, a contiguous run of codes kept as a
    range, so the table takes O((n+1)d) space.
    """
    words.check_params(d, n)
    tree = range(0)
    table = []
    for code in range(1, (n + 1) * d + 1):
        level, below = divmod(code - 1, d)  # below = sheet - 1
        base = (level - 1) * (d - 1)
        table.append(range(-(base + below), -base) if 0 < level < n else tree)
    return tuple(table)


def loop_to_word(p: EdgePath) -> Word:
    """Rewrite a basepoint loop as a reduced word in the x[i,j] basis."""
    d, n = p.d, p.n
    base = basepoint(d, n)
    if p.start != base or p.end != base:
        raise ValueError(f"loop must start and end at {base}, got {p.start} -> {p.end}")
    return Word(d, n, _substitute(_edge_words(d, n), p.steps))


@lru_cache(maxsize=None)
def _x_loops(d: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Step codes of the loops x[i,j] = p_i * e[i,j] * e[i,j+1]^-1 * p_i^-1,
    indexed by basis code - 1, each checked by the `EdgePath` constructor.

    About d*n^2 steps in all; only `word_to_loop` reads this table.
    """
    base = basepoint(d, n)
    loops = []
    for (i, j) in words.symbols(d, n):
        tree = [level * d + 1 for level in range(i)]
        steps = (*tree, i * d + j, -(i * d + j + 1), *(-c for c in reversed(tree)))
        loops.append(EdgePath(d, n, base, steps).steps)
    return tuple(loops)


def word_to_loop(w: Word) -> EdgePath:
    """Concatenation of the defining x-loops, one per letter, reduced."""
    # a product of validated basepoint loops is a valid basepoint loop
    return EdgePath._trusted(
        w.d, w.n, basepoint(w.d, w.n), _substitute(_x_loops(w.d, w.n), w.codes)
    )


def functor_to_automorphism(F: GroupoidFunctor) -> FreeAutomorphism:
    """Action of a functor on the surface group.

    Every functor fixes the boundary, so it fixes the basepoint; the action
    is read straight off F's edge table by the path formula in the module
    docstring.  Each row is built from the words of the few edges it needs,
    and the rows are built lazily, so like the closed form a table past the
    letter budget is refused after O(budget) work.
    """
    d, n = F.d, F.n
    table, edge_words = F.table, _edge_words(d, n)

    def word(code: int) -> tuple[int, ...]:
        return _substitute(edge_words, table[code - 1])

    def rows():
        prefix, first = (), word(1)  # first = W(e[i-1,1]), the last factor of P_i
        for i in range(1, n):
            prefix = _reduce_onto(list(prefix), first)
            back = [-c for c in reversed(prefix)]
            here = first = word(i * d + 1)
            for j in range(2, d + 1):
                there = word(i * d + j)
                yield _reduce_onto(list(prefix), chain(here, [-c for c in reversed(there)], back))
                here = there

    return FreeAutomorphism._trusted(d, n, words.bounded_table(d, n, rows()))
