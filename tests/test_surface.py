"""Genus/boundary formulas, the published invariant tables, rank identities."""

import math

import pytest

from braidcover import pi1, words
from braidcover.surface import format_table, surface, table

# (b, g) rows for n = 1..8 of the four- and five-sheet covers
FOUR_SHEET_ROWS = [(1, 0), (2, 1), (1, 3), (4, 3), (1, 6), (2, 7), (1, 9), (4, 9)]
FIVE_SHEET_ROWS = [(1, 0), (1, 2), (1, 4), (1, 6), (5, 6), (1, 10), (1, 12), (1, 14)]


def test_four_sheet_three_point_cover():
    s = surface(4, 3)
    assert (s.boundary, s.genus) == (1, 3)


def test_five_sheet_five_point_cover():
    s = surface(5, 5)
    assert (s.boundary, s.genus) == (5, 6)


def test_two_sheet_three_point_cover_is_the_torus_with_one_hole():
    # the double cover branched over three points: genus one, one boundary
    s = surface(2, 3)
    assert (s.boundary, s.genus) == (1, 1)
    assert s.rank == 2


def test_two_sheet_one_point_cover_is_a_disk():
    s = surface(2, 1)
    assert (s.boundary, s.genus) == (1, 0)


@pytest.mark.parametrize(
    "d,rows", [(4, FOUR_SHEET_ROWS), (5, FIVE_SHEET_ROWS)]
)
def test_published_tables_reproduce(d, rows):
    got = [(s.boundary, s.genus) for s in table(d, 8)]
    assert got == rows


def test_table_rows_are_indexed_from_one():
    rows = table(3, 4)
    assert [s.n for s in rows] == [1, 2, 3, 4]
    assert all(s.d == 3 for s in rows)


def test_rank_identity_and_integrality_across_the_grid():
    for d in range(2, 31):
        for n in range(1, 31):
            s = surface(d, n)
            assert s.rank == (d - 1) * (n - 1)
            assert s.genus >= 0
            assert s.boundary == math.gcd(d, n)


@pytest.mark.parametrize("d,n", [(2, 2), (3, 4), (4, 3), (6, 5)])
def test_rank_matches_the_non_tree_edge_count(d, n):
    # non-tree edges are those whose retraction is a nonempty word
    assert surface(d, n).rank == sum(1 for word in pi1._edge_words(d, n) if word)
    assert surface(d, n).rank == words.rank(d, n)


def test_parameter_range():
    with pytest.raises(ValueError):
        surface(1, 3)
    with pytest.raises(ValueError):
        surface(3, 0)
    with pytest.raises(ValueError):
        table(3, 0)


def test_format_table_layout():
    text = format_table(table(4, 2))
    lines = text.splitlines()
    assert lines[0].split() == ["n", "b", "g", "rank"]
    assert lines[1].split() == ["1", "1", "0", "0"]
    assert lines[2].split() == ["2", "2", "1", "3"]


# -- independent oracle: boundary walk of the thickened cover graph ----------------
#
# The cover surface is a tubular neighbourhood of its graph.  With the
# counter-clockwise rotation at each interior vertex alternating out- and
# in-edges (out sheet 1, in sheet 1, out sheet 2, ...), boundary circles of
# the thickening are the orbits of dart -> rotation(opposite dart), and the
# genus follows from V - E = 2 - 2g - b.

def _ribbon_invariants(d, n):
    rotations = []
    for v in range(1, n + 1):  # interior vertex v sits between levels v-1 and v
        cycle = []
        for j in range(1, d + 1):
            cycle.append((v, j, 0))      # tail dart of the out-edge e[v,j]
            cycle.append((v - 1, j, 1))  # head dart of the in-edge e[v-1,j]
        rotations.append(cycle)
    for j in range(1, d + 1):
        rotations.append([(0, j, 0)])    # left boundary vertices, degree one
        rotations.append([(n, j, 1)])    # right boundary vertices, degree one
    successor = {}
    for cycle in rotations:
        for k, dart in enumerate(cycle):
            successor[dart] = cycle[(k + 1) % len(cycle)]
    seen = set()
    circles = 0
    for dart in successor:
        if dart in seen:
            continue
        circles += 1
        cursor = dart
        while cursor not in seen:
            seen.add(cursor)
            level, sheet, end = cursor
            cursor = successor[(level, sheet, 1 - end)]
    chi = (n + 2 * d) - (n + 1) * d  # vertices minus edges
    genus = (2 - chi - circles) // 2
    return genus, circles


def test_formulas_agree_with_the_boundary_walk():
    for d in range(2, 9):
        for n in range(1, 9):
            s = surface(d, n)
            assert _ribbon_invariants(d, n) == (s.genus, s.boundary)
