"""Exact arithmetic in a free group of rank (d-1)(n-1) and its automorphisms.

The ambient group is parametrised by two integers d >= 2 and n >= 2.  Its
basis is {x[i,j] : 1 <= i <= n-1, 1 <= j <= d-1}.  The sheet index j is
cyclic with period d, and the out-of-basis symbol x[i,d] abbreviates
(x[i,1] * ... * x[i,d-1])^-1; constructors expand it on the spot, so every
stored word is a freely reduced word over the basis proper and equality is
literal letter-by-letter comparison.

Internally a letter is a signed integer code: x[i,j] has code
(i-1)*(d-1) + j, its inverse the negated code.  An automorphism is stored
only as its substitution table, the image codes of every basis generator;
`apply`, `compose`, `equal` and `abelianize` read that table, and the Word
views (`images`, `image(i, j)`) are built on demand.  The public
constructor checks the parameters and that every row is a reduced word
over the basis, so equal maps have equal tables; values derived from
validated ones (composites, the identity, the three routes' tables) are
built through the private `_trusted` constructor without a second check.
All values are immutable and every operation is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import pairwise
from typing import Iterable, NamedTuple

from .errors import BudgetExceededError, ParameterMismatchError

# Hard cap on the length of any computed word; operations raise
# BudgetExceededError instead of exhausting memory past this point.
LETTER_BUDGET = 10**6


class GeneratorSymbol(NamedTuple):
    i: int  # strand gap, 1 <= i <= n-1
    j: int  # sheet, 1 <= j <= d-1


class Letter(NamedTuple):
    symbol: GeneratorSymbol
    sign: int


def rank(d: int, n: int) -> int:
    """Rank (d-1)(n-1) of the ambient free group."""
    return (d - 1) * (n - 1)


def check_params(d: int, n: int, least_d: int = 2) -> None:
    """Ambient parameters in range; groupoid graphs pass least_d = 1, since
    the base disk is the cover graph at d = 1."""
    if d < least_d:
        raise ValueError(f"parameter d must be >= {least_d}, got d={d}")
    if n < 2:
        raise ValueError(f"parameter n must be >= 2, got n={n}")


def check_table_size(d: int, n: int, size: int) -> None:
    """Refuse a table of `size` entries (generator or edge images, matrix
    entries, invariant rows) past the letter budget, before anything is
    allocated for it."""
    if size > LETTER_BUDGET:
        raise BudgetExceededError(
            f"a table of {size} entries for d={d}, n={n} exceeds the letter budget "
            f"of {LETTER_BUDGET}"
        )


def check_index(d: int, n: int, i: int, size: int) -> None:
    """Generator or twist index in 1..n-1, and a table of `size` entries
    within the letter budget."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"index i must be in 1..{n - 1}, got i={i}")
    check_table_size(d, n, size)


def bounded_table(d: int, n: int, rows: Iterable[tuple[int, ...]]) -> tuple[tuple[int, ...], ...]:
    """Collect table rows, refusing as soon as their letters pass the letter
    budget, so the work done before a refusal is O(budget)."""
    table, letters = [], 0
    for row in rows:
        letters += len(row)
        if letters > LETTER_BUDGET:
            raise BudgetExceededError(
                f"the images for d={d}, n={n} hold more letters than the letter budget "
                f"of {LETTER_BUDGET}"
            )
        table.append(row)
    return tuple(table)


@lru_cache(maxsize=None)
def symbols(d: int, n: int) -> tuple[GeneratorSymbol, ...]:
    """All basis symbols, ordered by (i, j)."""
    check_params(d, n)
    return tuple(
        GeneratorSymbol(i, j) for i in range(1, n) for j in range(1, d)
    )


@dataclass(frozen=True)
class Word:
    """Freely reduced word, stored as a tuple of signed basis codes."""

    d: int
    n: int
    codes: tuple[int, ...]

    @property
    def letters(self) -> tuple[Letter, ...]:
        span = self.d - 1
        return tuple(
            Letter(GeneratorSymbol((abs(c) - 1) // span + 1, (abs(c) - 1) % span + 1),
                   1 if c > 0 else -1)
            for c in self.codes
        )

    def __len__(self) -> int:
        return len(self.codes)

    def __bool__(self) -> bool:
        return bool(self.codes)

    def __mul__(self, other: "Word") -> "Word":
        return multiply(self, other)

    def inverse(self) -> "Word":
        return invert(self)

    def __str__(self) -> str:
        return format_word(self)


def _same_params(a, b) -> None:
    if (a.d, a.n) != (b.d, b.n):
        raise ParameterMismatchError(
            f"mixed ambient parameters: (d={a.d}, n={a.n}) vs (d={b.d}, n={b.n})"
        )


def _reduce_onto(out: list[int], codes: Iterable[int]) -> tuple[int, ...]:
    """Append codes to the freely reduced list `out`, cancelling at the junction.

    One of the two reduction kernels of the package (with `_substitute`);
    group words and groupoid paths alike are reduced here.
    """
    for c in codes:
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    if len(out) > LETTER_BUDGET:
        raise BudgetExceededError(f"result exceeds the letter budget of {LETTER_BUDGET}")
    return tuple(out)


def _substitute(table, codes: Iterable[int]) -> tuple[int, ...]:
    """Freely reduced image of a code sequence under a letter substitution.

    `table[c - 1]` holds the image codes of code c > 0; a negative code
    contributes the inverse of its image.  The budget is checked per letter,
    so a blow-up stops early.
    """
    out: list[int] = []
    budget = LETTER_BUDGET
    for c in codes:
        img = table[abs(c) - 1]
        if c > 0:
            for t in img:
                if out and out[-1] == -t:
                    out.pop()
                else:
                    out.append(t)
        else:
            for t in reversed(img):
                if out and out[-1] == t:
                    out.pop()
                else:
                    out.append(-t)
        if len(out) > budget:
            raise BudgetExceededError(f"result exceeds the letter budget of {budget}")
    return tuple(out)


def _expand_symbol(d: int, n: int, i: int, j: int, sign: int) -> list[int]:
    """Signed codes for x[i,j]^sign, wrapping j mod d and expanding x[i,d]."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"symbol index i must be in 1..{n - 1}, got i={i}")
    if sign not in (1, -1):
        raise ValueError(f"letter sign must be +1 or -1, got {sign}")
    jj = (j - 1) % d + 1
    base = (i - 1) * (d - 1)
    if jj < d:
        return [sign * (base + jj)]
    # x[i,d] = (x[i,1] * ... * x[i,d-1])^-1
    if sign > 0:
        return [-(base + t) for t in range(d - 1, 0, -1)]
    return [base + t for t in range(1, d)]


def _encode(d: int, n: int, letters: Iterable) -> list[int]:
    """Accepts Letter values or (i, j, sign) triples."""
    codes: list[int] = []
    for item in letters:
        if isinstance(item, Letter):
            (i, j), sign = item
        else:
            i, j, sign = item
        codes.extend(_expand_symbol(d, n, i, j, sign))
    return codes


def reduce(d: int, n: int, letters: Iterable) -> Word:
    """Freely reduced word spelled by a letter sequence; idempotent."""
    check_params(d, n)
    return Word(d, n, _reduce_onto([], _encode(d, n, letters)))


def word(d: int, n: int, letters: Iterable) -> Word:
    """Alias of reduce(); the only way words are built."""
    return reduce(d, n, letters)


def empty_word(d: int, n: int) -> Word:
    check_params(d, n)
    return Word(d, n, ())


def generator(d: int, n: int, i: int, j: int, sign: int = 1) -> Word:
    """The word x[i,j]^sign (x[i,d] expands into the basis)."""
    check_params(d, n)
    return Word(d, n, _reduce_onto([], _expand_symbol(d, n, i, j, sign)))


def multiply(a: Word, b: Word) -> Word:
    """Reduced concatenation; the empty word is the identity."""
    _same_params(a, b)
    return Word(a.d, a.n, _reduce_onto(list(a.codes), b.codes))


def invert(w: Word) -> Word:
    return Word(w.d, w.n, tuple(-c for c in reversed(w.codes)))


def conjugate(x: Word, y: Word) -> Word:
    """The conjugate y^-1 * x * y, reduced."""
    return multiply(multiply(invert(y), x), y)


def _trusted_init(cls, *fields):
    """Build an automorphism, path or functor from its field values without
    validation.

    Only for values that are valid by construction because they are derived
    from validated ones.
    """
    self = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, fields):
        object.__setattr__(self, name, value)
    return self


@dataclass(frozen=True)
class FreeAutomorphism:
    """Endomorphism given by its substitution table: row c - 1 holds the
    reduced image codes of the basis generator with code c.

    Values produced by this package are always invertible; invertibility is
    witnessed where it matters (a known inverse, or unimodularity on
    abelianization) rather than decided in general.
    """

    d: int
    n: int
    table: tuple[tuple[int, ...], ...]  # indexed by basis code - 1, i.e. ordered by (i, j)

    def __post_init__(self) -> None:
        check_params(self.d, self.n)
        size = rank(self.d, self.n)
        if len(self.table) != size:
            raise ValueError(f"need {size} generator images, got {len(self.table)}")
        for code, row in enumerate(self.table, start=1):
            for c in row:
                if not 0 < abs(c) <= size:
                    raise ValueError(
                        f"no basis generator has code {abs(c)} for d={self.d}, n={self.n}"
                    )
            if any(a == -b for a, b in pairwise(row)):
                raise ValueError(f"image of generator code {code} is not freely reduced")

    _trusted = classmethod(_trusted_init)

    def _image(self, code: int) -> Word:
        return Word(self.d, self.n, self.table[code - 1])

    @property
    def images(self) -> tuple[Word, ...]:
        """Every generator image as a Word, indexed by basis code - 1."""
        return tuple(map(self._image, range(1, len(self.table) + 1)))

    def image(self, i: int, j: int) -> Word:
        """Image of the basis generator x[i,j]."""
        if not (1 <= i <= self.n - 1 and 1 <= j <= self.d - 1):
            raise ValueError(f"x[{i},{j}] is not a basis generator for d={self.d}, n={self.n}")
        return self._image((i - 1) * (self.d - 1) + j)


@lru_cache(maxsize=None)
def identity_automorphism(d: int, n: int) -> FreeAutomorphism:
    check_params(d, n)
    check_table_size(d, n, rank(d, n))
    return FreeAutomorphism._trusted(d, n, tuple((c,) for c in range(1, rank(d, n) + 1)))


def apply(f: FreeAutomorphism, w: Word) -> Word:
    """Apply f letter by letter; homomorphic by construction."""
    _same_params(f, w)
    return Word(f.d, f.n, _substitute(f.table, w.codes))


def compose(f: FreeAutomorphism, g: FreeAutomorphism) -> FreeAutomorphism:
    """Composite that applies f first, then g."""
    _same_params(f, g)
    table = g.table
    return FreeAutomorphism._trusted(f.d, f.n, tuple(_substitute(table, row) for row in f.table))


def equal(f: FreeAutomorphism, g: FreeAutomorphism) -> bool:
    """Exact equality: identical reduced images on every generator."""
    _same_params(f, g)
    return f.table == g.table


def abelianize(f: FreeAutomorphism) -> tuple[tuple[int, ...], ...]:
    """Integer matrix with entry (s, t) the signed count of x_t in f(x_s)."""
    r = rank(f.d, f.n)
    rows = []
    for image in f.table:
        row = [0] * r
        for c in image:
            row[abs(c) - 1] += 1 if c > 0 else -1
        rows.append(tuple(row))
    return tuple(rows)


# -- small exact integer-matrix helpers (abelianization layer) --------------

def identity_matrix(size: int) -> tuple[tuple[int, ...], ...]:
    return tuple(
        tuple(1 if r == c else 0 for c in range(size)) for r in range(size)
    )


def matrix_multiply(a, b) -> tuple[tuple[int, ...], ...]:
    size = len(b[0])
    return tuple(
        tuple(sum(row[k] * b[k][c] for k in range(len(b))) for c in range(size))
        for row in a
    )


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


# -- text grammar ------------------------------------------------------------
#
# Words and groupoid paths share one grammar: token `p[i,j]`, optionally
# followed by `^-1`, tokens joined by `*`.  Words use `x` (the basis), paths
# `e` (the edges, see `groupoid`); the empty word renders as `1`.

def _format_codes(codes: tuple[int, ...], prefix: str, span: int, first: int) -> str:
    """Spell signed codes as `prefix[i,j]` tokens joined by `*`.

    Code c > 0 is the token with i = (c-1) // span + first and
    j = (c-1) % span + 1; -c is its inverse.  Each distinct code is spelled
    once per call.
    """
    spelled = {}
    for c in set(codes):
        i, j = divmod(abs(c) - 1, span)
        spelled[c] = f"{prefix}[{i + first},{j + 1}]" + ("^-1" if c < 0 else "")
    return "*".join(map(spelled.__getitem__, codes))


def _parse_tokens(text: str, prefix: str) -> list[tuple[int, int, int]]:
    """(i, j, sign) of every `prefix[i,j]` token in a `*`-joined product."""
    head = prefix + "["
    triples: list[tuple[int, int, int]] = []
    for token in text.split("*"):
        token = token.strip()
        body, sign = (token[:-3], -1) if token.endswith("^-1") else (token, 1)
        try:
            if not (body.startswith(head) and body.endswith("]")):
                raise ValueError
            i_text, j_text = body[len(head):-1].split(",")
            triples.append((int(i_text), int(j_text), sign))
        except ValueError:
            raise ValueError(f"cannot parse {prefix}[i,j] token {token!r}") from None
    return triples


def format_word(w: Word) -> str:
    return _format_codes(w.codes, "x", w.d - 1, 1) if w.codes else "1"


def parse_word(d: int, n: int, text: str) -> Word:
    """Parse the word grammar; out-of-basis sheet indices are normalised."""
    check_params(d, n)
    text = text.strip()
    if text in ("", "1"):
        return empty_word(d, n)
    return reduce(d, n, _parse_tokens(text, "x"))
