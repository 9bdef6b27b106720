"""Shared hypothesis strategies for random ambient parameters, letters, words."""

from hypothesis import strategies as st

from braidcover import words


def params(max_d: int = 5, max_n: int = 5):
    return st.tuples(st.integers(2, max_d), st.integers(2, max_n))


def letter_triples(d: int, n: int, max_size: int = 64, max_sheet: int | None = None):
    """Raw (i, j, sign) letters; sheet indices may hit d (they expand)."""
    sheet_cap = max_sheet if max_sheet is not None else d - 1
    triple = st.tuples(
        st.integers(1, n - 1), st.integers(1, sheet_cap), st.sampled_from((1, -1))
    )
    return st.lists(triple, max_size=max_size)


@st.composite
def words_with_params(draw, max_d: int = 5, max_n: int = 5, max_size: int = 64, count: int = 1):
    """One (d, n) pair plus `count` reduced words sharing it."""
    d, n = draw(params(max_d, max_n))
    ws = tuple(
        words.reduce(d, n, draw(letter_triples(d, n, max_size))) for _ in range(count)
    )
    return (d, n, *ws)


@st.composite
def braid_letters_with_params(draw, max_d: int = 5, max_n: int = 5, max_size: int = 12):
    """One (d, n) pair with n >= 3 plus a random signed braid letter list."""
    d = draw(st.integers(2, max_d))
    n = draw(st.integers(3, max_n))
    letters = draw(
        st.lists(
            st.integers(1, n - 1).flatmap(lambda i: st.sampled_from((i, -i))),
            max_size=max_size,
        )
    )
    return d, n, tuple(letters)
