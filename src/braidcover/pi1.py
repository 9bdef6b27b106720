"""Translation between basepoint loops in the cover graph and free-group words.

The basepoint is the left boundary vertex 0_(1).  A fixed spanning tree --
all edges on levels 0 and n, plus the sheet-1 edge on every middle level --
leaves exactly (d-1)(n-1) non-tree edges e[i,j] (1 <= i <= n-1, 2 <= j <= d),
matching the rank of the surface group.  The tree is chosen so that the
standard non-tree generator of e[i,j] is exactly the inverse of the prefix
loop y[i,j] = x[i,1]*...*x[i,j-1].  Both translations are then letter
substitutions through `words._substitute`: a loop maps edge by edge to
words (tree edges to the empty word), and a word maps letter by letter to
its defining x-loops, freely reduced in one pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import groupoid, words
from .groupoid import Edge, EdgePath, GroupoidFunctor, Vertex, left_boundary
from .words import FreeAutomorphism, Word, _substitute


@dataclass(frozen=True)
class SpanningTree:
    """The fixed spanning tree: levels 0 and n entirely, sheet 1 in between."""

    d: int
    n: int

    @property
    def edges(self) -> frozenset[Edge]:
        d, n = self.d, self.n
        tree = {Edge(0, j) for j in range(1, d + 1)}
        tree |= {Edge(i, 1) for i in range(1, n)}
        tree |= {Edge(n, j) for j in range(1, d + 1)}
        return frozenset(tree)

    @property
    def non_tree_edges(self) -> tuple[Edge, ...]:
        return tuple(
            Edge(i, j) for i in range(1, self.n) for j in range(2, self.d + 1)
        )

    def contains(self, edge: Edge) -> bool:
        return edge.level in (0, self.n) or edge.sheet == 1


def spanning_tree(d: int, n: int) -> SpanningTree:
    words.check_params(d, n)
    return SpanningTree(d, n)


def basepoint(d: int, n: int) -> Vertex:
    return left_boundary(1)


@lru_cache(maxsize=None)
def base_path(d: int, n: int, i: int) -> EdgePath:
    """The tree path p_i = e[0,1]*e[1,1]*...*e[i-1,1] from 0_(1) to vertex i."""
    words.check_params(d, n)
    words.check_index(d, n, i, (n + 1) * d)
    return groupoid.path(d, n, [(level, 1, 1) for level in range(i)])


def _loop(d: int, n: int, i: int, a: int, b: int) -> EdgePath:
    """Basepoint loop p_i * e[i,a] * e[i,b]^-1 * p_i^-1."""
    words.check_params(d, n)
    words.check_index(d, n, i, (n + 1) * d)
    tree = [(level, 1, 1) for level in range(i)]
    steps = tree + [(i, a, 1), (i, b, -1)] + [(level, 1, -1) for level in reversed(range(i))]
    return groupoid.path(d, n, steps, start=basepoint(d, n))


@lru_cache(maxsize=None)
def loop_x(d: int, n: int, i: int, j: int) -> EdgePath:
    """Basepoint loop x[i,j] = p_i * e[i,j] * e[i,j+1]^-1 * p_i^-1, j mod d."""
    return _loop(d, n, i, j, j + 1)


@lru_cache(maxsize=None)
def loop_y(d: int, n: int, i: int, j: int) -> EdgePath:
    """Basepoint loop y[i,j] = p_i * e[i,1] * e[i,j]^-1 * p_i^-1 (empty at j=1)."""
    return _loop(d, n, i, 1, j)


@lru_cache(maxsize=None)
def _edge_words(d: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Word codes of every forward edge step, indexed by edge code - 1.

    Tree edges contribute nothing; a non-tree e[i,j] contributes the
    inverse prefix x[i,j-1]^-1*...*x[i,1]^-1.
    """
    words.check_params(d, n)
    table = []
    for code in range(1, (n + 1) * d + 1):
        level, below = divmod(code - 1, d)  # below = sheet - 1
        if 0 < level < n:
            table.append(tuple(-((level - 1) * (d - 1) + t) for t in range(below, 0, -1)))
        else:
            table.append(())
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
    """Step codes of the loops x[i,j], indexed by basis code - 1."""
    return tuple(loop_x(d, n, i, j).steps for (i, j) in words.symbols(d, n))


def word_to_loop(w: Word) -> EdgePath:
    """Concatenation of the defining x-loops, one per letter, reduced."""
    # a product of validated basepoint loops is a valid basepoint loop
    return EdgePath._trusted(
        w.d, w.n, basepoint(w.d, w.n), _substitute(_x_loops(w.d, w.n), w.codes)
    )


def functor_to_automorphism(F: GroupoidFunctor) -> FreeAutomorphism:
    """Action of a basepoint-fixing functor on the surface group.

    One composition of three substitution tables: each generator's x-loop,
    its image under F (again a basepoint loop, as F fixes the basepoint),
    and that loop rewritten as a word.  Like the closed form, the table is
    refused once its letters pass the letter budget.
    """
    d, n = F.d, F.n
    base = basepoint(d, n)
    if F.vertex(base) != base:
        raise ValueError(f"functor moves the basepoint {base}")
    table, edge_words = F.table, _edge_words(d, n)
    rows = (_substitute(edge_words, _substitute(table, loop)) for loop in _x_loops(d, n))
    return FreeAutomorphism(d, n, words.bounded_table(d, n, rows))
