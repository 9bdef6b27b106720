"""Exact arithmetic in a free group of rank (d-1)(n-1) and its automorphisms.

The ambient group is parametrised by two integers d >= 2 and n >= 2.  Its
basis is {x[i,j] : 1 <= i <= n-1, 1 <= j <= d-1}.  The sheet index j is
cyclic with period d, and the out-of-basis symbol x[i,d] abbreviates
(x[i,1] * ... * x[i,d-1])^-1; constructors expand it on the spot, so every
stored word is a freely reduced word over the basis proper and equality is
literal letter-by-letter comparison.

A letter has one stored spelling, a signed integer code: x[i,j] has code
(i-1)*(d-1) + j, its inverse the negated code.  Words are spelled from
outside as (i, j, sign) triples (`reduce`) or as text (`parse_word`), and
read back as codes or text (`format_word`).  Text has one token rule
(`_Spelling`); a word longer than the rank is gathered in one C-level call
from a cached list of every token and its `*` (`_tokens`), indexed by
code, safe as a word holds basis codes only.  An automorphism is stored only
as its substitution table, the image codes of every basis generator;
`apply`, `compose`, `abelianize` and `==` read that table, and the Word
views (`images`, `image(i, j)`) are built on demand.  `compose(f, g)`
applies f first; `braid` folds every longer product from the right, so that
each factor pushes only the rows it moves through the product of the later
ones (`_compose_rows`, shared with functors): the composite starts as g's
rows, and a row of f that names no row g moves is kept whole.  The rows a
map moves (`_moved`) are scanned once and kept on the map, outside its
fields; a composite joins its factors' sets on first use, a superset,
which keeps the shortcut exact.  Every substitution goes through one kernel,
`_substitute`, with a memo its caller keeps for one table (one composite, or
one `apply`): each inverted row, the run cancelled where the images of a
letter pair meet at a long seam, which for a fixed map depends on the
pair alone, and, in a composite, the images of runs of consecutive codes.
A run of at least RUN_FROM codes in a row of the first factor is pushed as
one piece, its image a prefix image of the runs from its lowest code,
extended from the longest one kept; the closed forms spell their images
from such runs, the prefix loops y[i,j] = x[i,1]*...*x[i,j-1] among them,
so each prefix loop of a row family is pushed through the later map once
per composite, not once per row.  The public constructors of words and
automorphisms store codes as tuples and check the parameters and that every
word or row is a reduced word over the basis, so equal maps have equal
tables; values derived from validated ones (products, images, composites,
the identity, the three routes' tables) are built through the private
`_trusted` constructors without a second check.
All values are immutable and every operation is pure.  The six value types
(`Word` and `FreeAutomorphism` here, `EdgePath`, `GroupoidFunctor`,
`BraidWord` and `SurfaceData` elsewhere) are frozen through one private
base, `_Frozen`, which reads each class's annotated fields once, so
importing the package loads no `dataclasses` and no `typing`.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Sequence
from functools import lru_cache
from itertools import chain, compress, count, pairwise
from operator import attrgetter, itemgetter, ne, neg, sub

from .errors import BudgetExceededError, ParameterMismatchError

# Hard cap on the length of any computed word; operations raise
# BudgetExceededError instead of exhausting memory past this point.
LETTER_BUDGET = 10**6

# Images longer than this cancel at a seam by C-level slice comparisons
# against their inverse in `_substitute`; shorter ones letter by letter.  The verify suites' images
# stay below it (at most 56 letters at d = n = 20); long braid words pass it.
SCAN_FROM = 128

# Runs of at least this many consecutive codes are substituted as one piece
# by `_substitute`; a sequence shorter than this is not searched for them.
# The crossover, on in-process relations at n = 20 against the parent (two
# copies of the parent read up to 15% apart; CHANGES.md has the sweeps): at
# 6, d = 8 and 9 run 6-30% slower, a family of runs that short having too
# few rows to pay for the prefix images it keeps; at 8, d up to 12 stays
# within that spread and d = 14..20 runs 6-38% faster; at 10 or 12, d = 20
# gains less than at 8.
RUN_FROM = 8


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


def bounded_table(d: int, n: int, rows: Iterable[tuple[int, ...] | range]
                  ) -> tuple[tuple[int, ...], ...]:
    """Collect table rows, refusing as soon as their letters pass the letter
    budget, so the work done before a refusal is O(budget).  A range of
    codes among them stands for the identity automorphism's rows of those
    codes, the same row objects: its letters, one per row, are added in
    one step, and an empty one builds nothing, not even the identity."""
    table, letters = [], 0
    for row in rows:
        letters += len(row)
        if letters > LETTER_BUDGET:
            raise BudgetExceededError(
                f"the images for d={d}, n={n} reached {letters} letters, more than the "
                f"letter budget of {LETTER_BUDGET}"
            )
        if type(row) is not range:
            table.append(row)
        elif row:
            table.extend(identity_automorphism(d, n).table[row.start - 1:row.stop - 1])
    return tuple(table)


def _trusted_init(cls, *fields):
    """Build a value of one of the `_Frozen` classes from its field values,
    in the order of `cls._fields`, without validation.

    Only for values that are valid by construction because they are derived
    from validated ones.
    """
    self = object.__new__(cls)
    for name, value in zip(cls._fields, fields):
        object.__setattr__(self, name, value)
    return self


class _Frozen:
    """Immutable value whose fields are its class's annotated names, in order.

    It behaves as a frozen dataclass would: it is built from its field
    values by position, and the public constructor then calls
    `__post_init__`, looked up on the instance, to validate them; `_trusted`
    skips that call.  A value equals a value of its own class with equal
    fields, hashes by its fields, refuses assignment and deletion, and
    prints as `Name(field=value, ...)`.  Unlike a dataclass it generates
    no code per class, so a cold start pays neither for importing
    `dataclasses` nor for building six classes with it.
    """

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(cls.__annotations__)
        cls._values = attrgetter(*cls._fields)  # not a method: called as self._values(self)

    def __init__(self, *fields) -> None:
        if len(fields) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} fields, "
                            f"got {len(fields)}")
        for name, value in zip(self._fields, fields):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    _trusted = classmethod(_trusted_init)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = zip(self._fields, self._values(self))
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in fields)})"


def _check_row(d: int, n: int, row, code: int = 0) -> None:
    """Refuse a row that is not a freely reduced word over the basis: the
    image of the generator with code `code`, or a word if `code` is 0."""
    size = rank(d, n)
    for c in row:
        if not 0 < abs(c) <= size:
            raise ValueError(f"no basis generator has code {abs(c)} for d={d}, n={n}")
    if any(a == -b for a, b in pairwise(row)):
        raise ValueError(f"image of generator code {code} is not freely reduced" if code
                         else "word is not freely reduced")


class Word(_Frozen):
    """Freely reduced word, stored as a tuple of signed basis codes.

    The public constructor checks the parameters and the codes, so every
    code of a word is a basis code or its negation, as `format_word` reads
    it; words derived from valid ones are built through `_trusted`.
    """

    d: int
    n: int
    codes: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "codes", tuple(self.codes))
        check_params(self.d, self.n)
        _check_row(self.d, self.n, self.codes)

    def __len__(self) -> int:
        return len(self.codes)

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
    group words and groupoid paths alike are reduced here.  A result past
    the letter budget is refused, naming its length.
    """
    for c in codes:
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    if len(out) > LETTER_BUDGET:
        raise BudgetExceededError(
            f"result reached {len(out)} letters, more than the letter budget of {LETTER_BUDGET}")
    return tuple(out)


def _common_suffix(left, right, start: int) -> int:
    """Length of the common suffix of `left` and `right` whose last `start`
    letters agree: the first i >= start with left[-1 - i] != right[-1 - i],
    or the shorter length.  The run cancelled where `left` meets an image
    is its common suffix with the image's inverse (`_inverse`).

    Returns at once when the letter at `start` differs; else compares
    slices from `start` on by C-level equality, in blocks of doubling
    length, and bisects the first block that differs.  Both slices are
    read as tuples, so list, tuple and range rows compare alike."""
    top, size = len(left), len(right)
    end = min(top, size)
    if start >= end or left[top - 1 - start] != right[size - 1 - start]:
        return min(start, end)
    i, width = start, 32
    while i < end:
        j = min(i + width, end)
        if tuple(left[top - j:top - i]) != tuple(right[size - j:size - i]):
            while j - i > 1:  # letters i..j-1 hold the first difference
                h = (i + j) // 2
                if tuple(left[top - h:top - i]) == tuple(right[size - h:size - i]):
                    i = h
                else:
                    j = h
            return i
        i, width = j, 2 * width
    return end


def _inverse(table, c: int, img, memo: dict):
    """Inverse of `img`, the image of code or piece key c: a negative code's
    row, else kept in `memo` under -c or the piece's partner key."""
    if 0 < -c <= len(table):
        return table[-c - 1]
    back = -c if c > 0 else -(-c ^ 1)
    inv = memo.get(back)
    if inv is None:
        inv = memo[back] = tuple(map(neg, reversed(img)))
    return inv


def _runs(codes: Sequence[int]) -> Sequence[tuple[int, int]]:
    """(start, end) of each maximal run of at least RUN_FROM consecutive
    codes in `codes`, c, c+1, ..., c+k or its inverse -(c+k), ..., -c.

    A sequence shorter than RUN_FROM, or with no RUN_FROM codes in a row
    whose ends differ by RUN_FROM - 1 (one C-level pass), has none and is
    not read letter by letter."""
    if len(codes) < RUN_FROM or RUN_FROM - 1 not in map(sub, codes[RUN_FROM - 1:], codes):
        return ()
    runs, start, last = [], 0, codes[0]
    for i in range(1, len(codes)):
        c = codes[i]
        if c != last + 1:
            if i - start >= RUN_FROM:
                runs.append((start, i))
            start = i
        last = c
    if len(codes) - start >= RUN_FROM:
        runs.append((start, len(codes)))
    return runs


def _row_runs(m, c: int) -> Sequence[tuple[int, int]]:
    """`_runs` of the row of code c of the map `m`, found on first use and
    kept on `m` outside its fields, so a map that is the first factor of
    many composites reads each of its rows for runs once."""
    kept = getattr(m, "_runs", None)
    if kept is None:
        kept = {}
        object.__setattr__(m, "_runs", kept)
    runs = kept.get(c)
    if runs is None:
        runs = kept[c] = _runs(m.table[c - 1])
    return runs


def _pieces(table, codes: Sequence[int], memo: dict, runs) -> Sequence[int]:
    """`codes` with each of its `runs` (`_runs`) taken as one piece where
    `memo` can keep its image, or `codes` itself.

    The piece of the run c..c+k or its inverse is a key below every code,
    -2 * (c * len(table) + k + 1), less one for the inverse, under which
    `memo` keeps the piece's image: the inverse of one is its partner's.
    The image of c..c+k is the prefix image of length k+1 of the runs from
    c, which `memo[c]` keeps by length: a longer one extends the longest
    kept, one image at a time, each seam cancelled letter by letter, so
    each prefix image of a row family is built once per table.  `memo[0]`
    holds the letters kept in prefix and piece images, and the length of
    the longest prefix image met while building them, which bounds the
    outputs `_substitute` checks; no image is built once the letters
    reach LETTER_BUDGET, so the memo stays O(budget).
    """
    book = memo.get(0)
    if book is None:
        book = memo[0] = [0, 0]  # letters kept, longest prefix image built
    size, items, at = len(table), [], 0
    for s, e in runs:
        first, length = codes[s], e - s
        low = first if first > 0 else -codes[e - 1]
        key = -2 * (low * size + length) - (first < 0)
        if key not in memo:
            if book[0] >= LETTER_BUDGET:
                continue
            prefixes = memo.get(low)
            if prefixes is None:
                prefixes = memo[low] = [()]
            kept = min(length, len(prefixes) - 1)
            while prefixes[kept] is None:
                kept -= 1
            img = prefixes[kept]
            if kept < length:
                p, widest = list(img), book[1]
                for img in table[low + kept - 1:low + length - 1]:
                    if p and img and p[-1] == -img[0]:
                        k, m = 1, min(len(p), len(img))
                        while k < m and p[-1 - k] == -img[k]:
                            k += 1
                        del p[len(p) - k:]
                        p.extend(img[k:])
                    else:
                        p.extend(img)
                    if len(p) > widest:
                        widest = len(p)
                img = tuple(p)
                prefixes.extend([None] * (length + 1 - len(prefixes)))
                prefixes[length] = img
                book[0] += len(img)
                book[1] = widest
            if first < 0:
                img = tuple(map(neg, reversed(img)))
                book[0] += len(img)
            memo[key] = img
        items.extend(codes[at:s])
        items.append(key)
        at = e
    if not items:
        return codes
    items.extend(codes[at:])
    return items


def _substitute(table, codes: Sequence[int], memo: dict, runs=()) -> tuple[int, ...]:
    """Freely reduced image of a code sequence under a letter substitution.

    `table[c - 1]` holds the image codes of code c > 0, a freely reduced
    tuple or range; a negative code contributes the inverse of its image.
    The dict `memo` belongs to the caller, who passes one dict to all its
    calls through the same table: it keeps each inverted image (of a
    negative code, or of a long image at a seam), the run cancelled at
    each long seam's letter pair and the images of runs of consecutive
    codes (below).  Since each image is reduced, only its head can cancel,
    against the tail of the output so far: the image is spliced at that
    seam, and when its first letter does not cancel it is appended whole.

    The seam is cancelled in one of two regimes, chosen by the image's
    length against SCAN_FROM.  An image of at most SCAN_FROM letters cancels
    letter by letter in a Python loop, which costs nothing to start and
    one interpreted turn per letter.  A longer image's cancelled run is the
    common suffix of the output and the image's inverse, found by C-level
    slice comparisons (`_common_suffix`), dropped with one `del`; the rest
    is appended with one `extend`.  The split is on image length because
    that bounds the run and is one comparison per code; bounding the run
    by both lengths (`min`) costs more than the short images gain, and
    scanning every seam slows the short-image tables of the verify suites.

    At a long seam the run depends on the output only past the letters of
    the previous code's image that still end it (`tail`: all of them unless
    that image's own seam cancelled some, none if it was empty or eaten
    whole).  So `memo[prev, c]` keeps K, the run cancelled where image(prev)
    meets image(c) on their own, scanned once per pair: if K < tail the run
    is K and nothing is scanned, else the first `tail` letters cancel and
    the scan of the output starts there.  The short regime pays for this
    only the bookkeeping of `prev` and `cut`.  The budget is checked once
    per code, so a blow-up stops early.

    Each maximal run of at least RUN_FROM consecutive codes, c, c+1, ...,
    c+k or its inverse, that the caller names in `runs` (`_runs`; none by
    default) is pushed as one piece (`_pieces`): a key below every code
    whose image the memo keeps, spliced through the same two regimes as
    any image.  `_compose_rows` names the runs of its rows; `apply` and
    the path substitutions of `groupoid` and `pi1` name none.  Pushed code
    by code, the output inside a run is at most the output before it and
    two prefix images of the run (the outputs of an inverse run are suffix
    images, each at most two prefix images long), and the output before it
    at most the output after the piece and the piece's own image, itself a
    prefix image or its inverse.
    So a sequence with pieces is held to the budget less three times the
    longest prefix image built, and one past that lowered budget is pushed
    again code by code under the budget itself: every result and every
    refusal, message and the size it names included, is the one pushing
    every code gives.
    """
    budget = LETTER_BUDGET
    if runs:
        whole, codes = codes, _pieces(table, codes, memo, runs)
        if codes is not whole:
            budget -= 3 * memo[0][1]
    out: list[int] = []
    # prev: the previous code; cut: the letters of its image cancelled at
    # its seam, 0 if it was appended whole
    prev = cut = 0
    for c in codes:
        img = table[c - 1] if c > 0 else memo.get(c)
        if img is None:
            img = table[-c - 1]
            img = memo[c] = (-img[0],) if len(img) == 1 else tuple(map(neg, reversed(img)))
        if out and img and out[-1] == -img[0]:
            m = len(img)
            if m > SCAN_FROM:
                # tail: the letters of image(prev) still ending `out` (below
                # 1 also when image(prev) is empty)
                last = table[prev - 1] if prev > 0 else memo[prev]
                tail = len(last) - cut
                k = 1
                if tail > 1:
                    k = memo.get((prev, c))
                    if k is None:
                        k = memo[prev, c] = _common_suffix(last, _inverse(table, c, img, memo), 1)
                if k >= tail:
                    k = _common_suffix(out, _inverse(table, c, img, memo), max(tail, 1))
                del out[len(out) - k:]
            else:
                out.pop()
                k = 1
                while k < m and out and out[-1] == -img[k]:
                    out.pop()
                    k += 1
            out.extend(img[k:])
            cut = k
        else:
            out.extend(img)
            cut = 0
        prev = c
        if len(out) > budget:
            if runs and codes is not whole:
                # past the lowered budget: push every code on its own
                return _substitute(table, whole, memo)
            raise BudgetExceededError(
                f"result reached {len(out)} letters, more than the letter budget of {budget}")
    return tuple(out)


def _moved(m) -> frozenset[int]:
    """Signed codes of the rows of the map `m` (an automorphism or a functor)
    that may differ from the identity's row (c,): c and -c for at least
    every row c that `m` moves, so a letter of either sign is looked up as
    it stands.

    Scanned once against the identity rows by one C-level pass and kept on
    `m`, outside its fields (`_keep_moved`).  A composite keeps its
    factors' sets instead, joined on first use without a scan: the last
    product of a fold, such as each side of a verify check, is never
    joined."""
    moves = getattr(m, "_moves", None)
    if type(moves) is frozenset:
        return moves
    if moves is None:
        codes = tuple(compress(count(1), map(ne, m.table, zip(count(1)))))
        moves = frozenset(chain(codes, map(neg, codes)))
    else:  # a composite's pair of sets
        first, later = moves
        moves = first if first is later else first | later
    _keep_moved(m, moves)
    return moves


def _keep_moved(m, moves):
    """`m`, keeping `moves` as what `_moved(m)` reads: a set of signed codes
    that covers every row `m` moves, or a composite's pair of such sets."""
    object.__setattr__(m, "_moves", moves)
    return m


def _compose_rows(f, g):
    """Composite of two maps of one type (automorphisms or functors) that
    applies f first, then g: each row of f pushed through g's table.

    The rows of both maps must be reduced, as every map's are.  The
    composite starts as g's rows, since a row f fixes goes to g's row, and
    only the rows f moves are visited (`_moved`).  A visited row that is
    one positive code a takes g's row a - 1 itself; one with no letter
    among the rows g moves is its own image and is kept whole; every other
    row goes through `_substitute`, all of them with one memo, so each
    inverted row is built, each long seam's letter pair scanned and each
    prefix image of a run built once per composite; the runs of a row of
    f no shorter than RUN_FROM are found once per map (`_row_runs`).  The
    composite shares these rows of f and g, so both tables hold tuples, as
    every automorphism and functor table does (unlike the range rows of
    `pi1._edge_words`).  Its moved rows are covered by those of f and g,
    without a scan.
    """
    rows, table = f.table, g.table
    moved, moves = _moved(f), _moved(g)
    out, memo, disjoint = list(table), {}, moves.isdisjoint
    for c in moved:
        if c < 0:  # each moved row is in the set under both signs
            continue
        row = rows[c - 1]
        if len(row) == 1 and row[0] > 0:
            out[c - 1] = table[row[0] - 1]
        elif disjoint(row):
            out[c - 1] = row
        else:
            out[c - 1] = _substitute(table, row, memo,
                                     _row_runs(f, c) if len(row) >= RUN_FROM else ())
    return _keep_moved(type(f)._trusted(f.d, f.n, tuple(out)), (moved, moves))


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


def _encode(d: int, n: int, letters: Iterable[tuple[int, int, int]]) -> list[int]:
    """Signed codes spelled by (i, j, sign) triples."""
    codes: list[int] = []
    for i, j, sign in letters:
        codes.extend(_expand_symbol(d, n, i, j, sign))
    return codes


def reduce(d: int, n: int, letters: Iterable[tuple[int, int, int]]) -> Word:
    """Freely reduced word spelled by (i, j, sign) triples; idempotent."""
    check_params(d, n)
    return Word._trusted(d, n, _reduce_onto([], _encode(d, n, letters)))


def multiply(a: Word, b: Word) -> Word:
    """Reduced concatenation; the empty word is the identity."""
    _same_params(a, b)
    return Word._trusted(a.d, a.n, _reduce_onto(list(a.codes), b.codes))


def invert(w: Word) -> Word:
    return Word._trusted(w.d, w.n, tuple(-c for c in reversed(w.codes)))


def conjugate(x: Word, y: Word) -> Word:
    """The conjugate y^-1 * x * y, reduced."""
    return multiply(multiply(invert(y), x), y)


class FreeAutomorphism(_Frozen):
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
        # tuple rows, as derived tables hold: `_compose_rows` shares them
        object.__setattr__(self, "table", tuple(map(tuple, self.table)))
        check_params(self.d, self.n)
        size = rank(self.d, self.n)
        if len(self.table) != size:
            raise ValueError(f"need {size} generator images, got {len(self.table)}")
        for code, row in enumerate(self.table, start=1):
            _check_row(self.d, self.n, row, code)

    def _view(self, row: tuple[int, ...]) -> Word:
        """A table row as a Word; `_view((c,))` is the generator with code c."""
        return Word._trusted(self.d, self.n, row)

    @property
    def images(self) -> tuple[Word, ...]:
        """Every generator image as a Word, indexed by basis code - 1."""
        return tuple(map(self._view, self.table))

    def image(self, i: int, j: int) -> Word:
        """Image of the basis generator x[i,j]."""
        if not (1 <= i <= self.n - 1 and 1 <= j <= self.d - 1):
            raise ValueError(f"x[{i},{j}] is not a basis generator for d={self.d}, n={self.n}")
        return self._view(self.table[(i - 1) * (self.d - 1) + j - 1])


@lru_cache(maxsize=None)
def identity_automorphism(d: int, n: int) -> FreeAutomorphism:
    check_params(d, n)
    check_table_size(d, n, rank(d, n))
    return FreeAutomorphism._trusted(d, n, tuple((c,) for c in range(1, rank(d, n) + 1)))


def apply(f: FreeAutomorphism, w: Word) -> Word:
    """Apply f letter by letter; homomorphic by construction.  A result
    refused by the letter budget names the word's length and (d, n)."""
    _same_params(f, w)
    try:
        return Word._trusted(f.d, f.n, _substitute(f.table, w.codes, {}))
    except BudgetExceededError as exc:
        raise BudgetExceededError(
            f"applying an automorphism to a word of {len(w)} letters at d={f.d}, n={f.n}: {exc}"
        ) from None


def compose(f: FreeAutomorphism, g: FreeAutomorphism) -> FreeAutomorphism:
    """Composite that applies f first, then g."""
    _same_params(f, g)
    return _compose_rows(f, g)


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


# -- text grammar ------------------------------------------------------------
#
# Words and groupoid paths share one grammar: token `p[i,j]`, optionally
# followed by `^-1`, tokens joined by `*`.  Words use `x` (the basis), paths
# `e` (the edges, see `groupoid`); the empty word renders as `1`.

class _Spelling(dict):
    """`prefix[i,j]` tokens by signed code, each spelled on its first use:
    code c > 0 is the token with i = (c-1) // span + first and
    j = (c-1) % span + 1, and -c is its inverse."""

    def __init__(self, prefix: str, span: int, first: int) -> None:
        self.prefix, self.span, self.first = prefix, span, first

    def __missing__(self, c: int) -> str:
        i, j = divmod(abs(c) - 1, self.span)
        token = self[c] = f"{self.prefix}[{i + self.first},{j + 1}]" + ("^-1" if c < 0 else "")
        return token


@lru_cache(maxsize=1)
def _tokens(prefix: str, span: int, first: int, size: int) -> list[str]:
    """The `_Spelling` token of every code c in -size..size, followed by `*`,
    at index c: a negative index counts from the end, so index -c holds
    c's inverse."""
    spell = _Spelling(prefix, span, first)
    return [spell[c] + "*" for c in chain(range(size + 1), range(-size, 0))]


def _format_codes(codes: tuple[int, ...], prefix: str, span: int, first: int,
                  size: int) -> str:
    """Spell nonzero codes in -size..size as `_Spelling` tokens joined by `*`.

    A sequence longer than `size` is gathered from the token table in one
    C-level call and joined with no separator, since each token carries its
    `*`, and the last `*` is cut; a shorter one spells only its own tokens,
    so the table, 2*size + 1 tokens, is never built for a text much shorter
    than itself.  Indexing the table with a code outside -size..size would
    read another code's token, which is why words and paths check their
    codes when they are built.
    """
    if len(codes) > size:
        return "".join(itemgetter(*codes)(_tokens(prefix, span, first, size)))[:-1]
    return "*".join(map(_Spelling(prefix, span, first).__getitem__, codes))


def _parse_int(text: str) -> int:
    """ASCII digits after an optional sign, blanks around them allowed; `int`
    alone would also read `1_2` as 12 and non-ASCII digits as their values,
    and it still refuses a number past its digit limit."""
    if not re.fullmatch(r"[+-]?[0-9]+", text.strip()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


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
            triples.append((_parse_int(i_text), _parse_int(j_text), sign))
        except ValueError:
            raise ValueError(f"cannot parse {prefix}[i,j] token {token!r}") from None
    return triples


def format_word(w: Word) -> str:
    return _format_codes(w.codes, "x", w.d - 1, 1, rank(w.d, w.n)) if w.codes else "1"


def parse_word(d: int, n: int, text: str) -> Word:
    """Parse the word grammar; out-of-basis sheet indices are normalised."""
    check_params(d, n)
    text = text.strip()
    if text in ("", "1"):
        return reduce(d, n, ())
    return reduce(d, n, _parse_tokens(text, "x"))
