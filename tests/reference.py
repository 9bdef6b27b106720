"""Independent references that the tests compare the package against.

`matrix_determinant` witnesses unimodularity of abelianized actions,
`word_to_loop` is the x-loop route from words to basepoint loops, the
inverse of `pi1.loop_to_word`, against which `pi1.functor_to_automorphism`
is checked (each x-loop pushed through the functor by `apply_functor` and
read back by `loop_to_word`, with no level skipped, so the levels the
translation takes from the identity are checked too), `walk_every_row` is
the functor validation that walks every row, against which the
`GroupoidFunctor` constructor is checked, `compose_every_row` is the
composition that pushes every row of the first map through the second,
against which `words._compose_rows` is checked, `twist_fold` is the
product of the d-1 Dehn twists folded one twist at a time, against which
the doubling in `braid.dehn_twist_product` is checked, `spell_word`
and `spell_path` spell text one letter at a time from the generators and
edges listed by index, against which `format_word` and `format_path` are
checked, and `closed_form_by_letters` and `conjugate_form_by_letters` build
the two formula routes' tables one (i, j, sign) letter at a time, against
which the code runs of `braid.half_twist_action` and
`braid.conjugate_twist_action` are checked.  Nothing in the package calls
them.
"""

from functools import lru_cache

from braidcover import braid, groupoid, pi1, words
from braidcover.errors import EndpointMismatchError
from braidcover.groupoid import EdgePath


def matrix_determinant(m) -> int:
    """Exact integer determinant (fraction-free Bareiss elimination)."""
    a = [list(row) for row in m]
    size = len(a)
    if size == 0:
        return 1
    sign = 1
    prev = 1
    for p in range(size - 1):
        if a[p][p] == 0:
            for r in range(p + 1, size):
                if a[r][p] != 0:
                    a[p], a[r] = a[r], a[p]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(p + 1, size):
            for c in range(p + 1, size):
                a[r][c] = (a[r][c] * a[p][p] - a[r][p] * a[p][c]) // prev
            a[r][p] = 0
        prev = a[p][p]
    return sign * a[-1][-1]


@lru_cache(maxsize=None)
def _x_loops(d: int, n: int) -> tuple[tuple[int, ...], ...]:
    """Step codes of the loops x[i,j] = p_i * e[i,j] * e[i,j+1]^-1 * p_i^-1,
    indexed by basis code - 1, each checked by the `EdgePath` constructor.

    p_i = e[0,1]*...*e[i-1,1] is the tree path to interior vertex i (see
    `pi1`); about d*n^2 steps in all.
    """
    base = pi1.basepoint(d, n)
    loops = []
    for i in range(1, n):
        tree = [level * d + 1 for level in range(i)]
        for j in range(1, d):
            steps = (*tree, i * d + j, -(i * d + j + 1), *(-c for c in reversed(tree)))
            loops.append(EdgePath(d, n, base, steps).steps)
    return tuple(loops)


def word_to_loop(w: words.Word) -> EdgePath:
    """Concatenation of the defining x-loops, one per letter, reduced and
    checked by the `EdgePath` constructor."""
    d, n = w.d, w.n
    return EdgePath(d, n, pi1.basepoint(d, n), words._substitute(_x_loops(d, n), w.codes, {}))


def walk_every_row(d: int, n: int, table) -> None:
    """Raise as the `GroupoidFunctor` constructor does on an invalid table
    at valid parameters, walking every row in code order.

    The vertex map is read off the rows: v[i] goes where the image of e[i,1]
    begins, and boundary vertices stay.  Each row must then walk from the
    image of its edge's source to the image of its edge's target.
    """
    ends = groupoid._ends(d, n)
    table = tuple(map(tuple, table))
    if len(table) != len(ends):
        raise ValueError("edge map must cover every edge")
    for code in range(d + 1, len(ends) + 1, d):
        if not table[code - 1] or not 0 < abs(table[code - 1][0]) <= len(ends):
            raise EndpointMismatchError(f"image of edge code {code} must begin with an edge")
    inner = [groupoid.interior(level) for level in range(1, n + 1)]
    image_of = {v: v for v in groupoid.vertices(d, n)}
    for v in inner:
        first = table[v.level * d][0]
        image_of[v] = ends[abs(first) - 1][0 if first > 0 else 1]
    if sorted(map(image_of.get, inner)) != inner:
        raise EndpointMismatchError("e[i,1] images must begin at distinct interior vertices")
    for code, ((source, target), row) in enumerate(zip(ends, table), 1):
        end = groupoid._walk(d, n, image_of[source], row)
        if end != image_of[target]:
            raise EndpointMismatchError(
                f"image of edge code {code} ends at {end}, expected {image_of[target]}"
            )


def compose_every_row(rows, table) -> tuple[tuple[int, ...], ...]:
    """Rows of a composite, each row pushed through the substitution `table`
    with one `words._substitute` memo, except that a row which is a single
    positive code c takes `table[c - 1]` itself: every row is visited,
    whichever rows the two maps move."""
    memo: dict = {}
    return tuple(
        table[row[0] - 1] if len(row) == 1 and row[0] > 0 else words._substitute(table, row, memo)
        for row in rows
    )


def twist_fold(d: int, n: int, i: int) -> groupoid.GroupoidFunctor:
    """The functor D_2 * ... * D_d, the twist D_d acting first, folded from
    the right over every twist: d-2 compositions of the d-1 twists."""
    twists = [groupoid.dehn_twist(d, n, i, j) for j in range(d, 1, -1)]
    return braid._product(groupoid.compose_functors, twists)


def _spell(codes, names) -> str:
    """Codes joined by `*`, code c > 0 as names[c] and -c as names[c]^-1."""
    return "*".join(names[c] if c > 0 else names[-c] + "^-1" for c in codes)


def spell_word(w: words.Word) -> str:
    """The text of a word, letter by letter: x[i,j] has code (i-1)*(d-1) + j
    for 1 <= i <= n-1 and 1 <= j <= d-1, and the empty word is `1`."""
    d, n = w.d, w.n
    names = {(i - 1) * (d - 1) + j: f"x[{i},{j}]" for i in range(1, n) for j in range(1, d)}
    return _spell(w.codes, names) or "1"


def spell_path(p: EdgePath) -> str:
    """The text of a path, step by step: e[i,j] has code i*d + j for
    0 <= i <= n and 1 <= j <= d, and the empty path is its start vertex."""
    d, n = p.d, p.n
    names = {i * d + j: f"e[{i},{j}]" for i in range(n + 1) for j in range(1, d + 1)}
    return _spell(p.steps, names) or groupoid.format_vertex(p.start)


def _table_by_letters(d: int, n: int, i: int, image) -> tuple[tuple[int, ...], ...]:
    """Every row of generator i's table: x[row,j] goes to the reduced word of
    the (i, j, sign) triples `image(row, j)` in rows i-1..i+1, each triple
    expanded by `words._encode`, and every other row is (code,)."""
    return tuple(
        words._reduce_onto([], words._encode(d, n, image(row, j))) if abs(row - i) <= 1
        else ((row - 1) * (d - 1) + j,)
        for row in range(1, n)
        for j in range(1, d)
    )


def closed_form_by_letters(d: int, n: int, i: int) -> tuple[tuple[int, ...], ...]:
    """The closed form's table, letter by letter; x[i,d] is expanded by
    `words._expand_symbol`."""

    def image(row: int, j: int) -> list[tuple[int, int, int]]:
        if row == i - 1:
            return (
                [(i - 1, t, -1) for t in range(j - 1, 0, -1)]
                + [(i, j + 1, 1)]
                + [(i - 1, t, 1) for t in range(1, j + 1)]
            )
        if row == i:
            return [(i, t, 1) for t in range(2, j + 1)] + [(i, t, -1) for t in range(j + 1, 1, -1)]
        return (  # row i + 1
            [(i, t, -1) for t in range(j - 1, 0, -1)]
            + [(i + 1, j, 1)]
            + [(i, t, 1) for t in range(1, j + 1)]
        )

    return _table_by_letters(d, n, i, image)


def conjugate_form_by_letters(d: int, n: int, i: int) -> tuple[tuple[int, ...], ...]:
    """The conjugate form's table, letter by letter, from the prefix loops
    y[i,j] = x[i,1]*...*x[i,j-1]."""

    def y(row: int, j: int) -> list[tuple[int, int, int]]:
        # at j = d+1 the expansion of x[row,d] cancels the whole prefix
        return [(row, t, 1) for t in range(1, j)]

    def y_inv(row: int, j: int) -> list[tuple[int, int, int]]:
        return [(row, t, -1) for t in range(j - 1, 0, -1)]

    def image(row: int, j: int) -> list[tuple[int, int, int]]:
        if row == i - 1:
            return y_inv(i - 1, j) + [(i, j + 1, 1)] + y(i - 1, j + 1)
        if row == i:
            return [(i, 1, -1)] + y(i, j + 1) + y_inv(i, j + 2) + [(i, 1, 1)]
        return y_inv(i, j) + [(i + 1, j, 1)] + y(i, j + 1)  # row i + 1

    return _table_by_letters(d, n, i, image)
