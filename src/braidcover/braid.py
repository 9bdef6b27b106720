"""The braid group action on the surface group of the d-sheeted cover.

For every d >= 2 and n >= 2 the standard braid generator with index i acts
on the rank-(d-1)(n-1) surface group.  The action is available through
three independent routes that must agree generator by generator:

  * half_twist_action      -- the closed-form images, row by row;
  * conjugate_twist_action -- the same images assembled from prefix loops
                              y[i,j] = x[i,1]*...*x[i,j-1] and conjugation;
  * the groupoid route     -- the lifted half twist pushed through
                              pi1.functor_to_automorphism.

The two formula routes spell each moved image as a product of a few runs
of consecutive codes (`_run`) and share the identity automorphism's rows.

A product of distinct maps -- a braid word's root, each side of a braid
relation at the functor and the automorphism level -- is built by one
right fold, `_product`; the first factor still acts first.  A product of
one map's translates is built by halving, `_power`: a braid word that is
a proper power u^k raises the product of its root u to the k-th power,
and the d-1 Dehn twists of a factorization, each the deck shift of the
one before, halve along the deck orbit.
The inverse generator comes from the inverse lift on the groupoid side,
the lift conjugated by a reflection of the sheets, so no general
automorphism inversion is ever needed.

A product of mapping classes written D_2 * D_3 * ... * D_d composes like
functions: the rightmost factor acts first.  dehn_twist_product follows
that convention, which is the one under which the product of the d-1
twists along x[i,2], ..., x[i,d] reproduces the lifted half twist.

Each verification suite returns a `Report`, the tuple of its `CheckResult`s
in the order they ran; `run_suite` joins the reports of the suites it runs.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache, partial
from itertools import chain
from operator import add

from . import groupoid, pi1, words
from .errors import BudgetExceededError
from .words import FreeAutomorphism, _Frozen


class BraidWord(_Frozen):
    """Sequence of signed standard generator indices, e.g. (1, 2, -1)."""

    d: int
    n: int
    letters: tuple[int, ...]

    def __post_init__(self) -> None:
        words.check_params(self.d, self.n)
        for letter in self.letters:
            if letter == 0 or abs(letter) > self.n - 1:
                raise ValueError(
                    f"braid letter must be a signed index in 1..{self.n - 1}, got {letter}"
                )

    def __len__(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return format_braid(self)


def parse_braid(d: int, n: int, text: str) -> BraidWord:
    """Whitespace-separated signed integers, e.g. '1 2 -1'.

    Each letter is ASCII digits after an optional sign, the rule of every
    index in the word and path grammar (`words._parse_int`).
    """
    try:
        letters = tuple(map(words._parse_int, text.split()))
    except ValueError:
        raise ValueError(f"cannot parse braid word {text!r}") from None
    return BraidWord(d, n, letters)


def format_braid(w: BraidWord) -> str:
    return " ".join(str(s) for s in w.letters)


@lru_cache(maxsize=None)
def half_twist_action(d: int, n: int, i: int) -> FreeAutomorphism:
    """Closed-form action of braid generator i on the x[i,j] basis.

    Row i-1 (absent when i = 1) and row i+1 (absent when i = n-1) are
    conjugated into row i; row i is shuffled within itself.  Each image is
    a product of runs of one row's letters (`_run`), so sheet index d,
    when it appears as j+1, is read into the basis by the run's own rule.
    """
    words.check_params(d, n)
    words.check_index(d, n, i, words.rank(d, n))

    def image(row: int, j: int) -> tuple[range, ...]:
        if row == i - 1:
            return _run(d, i - 1, 1, j - 1, -1), _run(d, i, j + 1, j + 1), _run(d, i - 1, 1, j)
        if row == i:
            return _run(d, i, 2, j), _run(d, i, 2, j + 1, -1)
        return _run(d, i, 1, j - 1, -1), _run(d, i + 1, j, j), _run(d, i, 1, j)  # row i + 1

    return _automorphism_from_images(d, n, i, image)


def conjugate_twist_action(d: int, n: int, i: int) -> FreeAutomorphism:
    """Same action assembled from prefix loops; the `cross` suite compares
    it with the closed form (a mismatch means a transcription bug).

    Rows i-1 and i+1 are the closed form's own letter lists, so that check
    is independent on row i alone; only the groupoid route checks rows
    i-1 and i+1 independently.
    """
    words.check_params(d, n)
    words.check_index(d, n, i, words.rank(d, n))

    def y(row: int, j: int, sign: int = 1) -> range:
        # prefix loop (x[row,1]*...*x[row,j-1])^sign; at j = d+1 the run
        # ends with x[row,d], which cancels the whole prefix
        return _run(d, row, 1, j - 1, sign)

    def image(row: int, j: int) -> tuple[range, ...]:
        if row == i - 1:
            return y(i - 1, j, -1), _run(d, i, j + 1, j + 1), y(i - 1, j + 1)
        if row == i:
            return _run(d, i, 1, 1, -1), y(i, j + 1), y(i, j + 2, -1), _run(d, i, 1, 1)
        return y(i, j, -1), _run(d, i + 1, j, j), y(i, j + 1)  # row i + 1

    return _automorphism_from_images(d, n, i, image)


def _run(d: int, row: int, a: int, b: int, sign: int = 1) -> range:
    """Codes of (x[row,a]*...*x[row,b])^sign, 1 <= a <= d and a-1 <= b <= d, as
    one reduced range of consecutive codes, empty when b = a-1.  x[row,d] is
    y[row,d]^-1, so a run reaching sheet d is y[row,a]^-1, a negative range,
    and y[row,d+1] is empty."""
    base = (row - 1) * (d - 1)
    if b == d:
        low, high, sign = base + 1, base + a, -sign
    else:
        low, high = base + a, base + b + 1
    return range(low, high) if sign > 0 else range(1 - high, 1 - low)


def _automorphism_from_images(d, n, i, image) -> FreeAutomorphism:
    """Automorphism of generator i: x[row,j] goes to the runs `image(row, j)`,
    joined in one C-level call, in rows i-1..i+1, and every other row is the
    identity automorphism's row object.  A joined row goes through
    `words._reduce_onto` only if one C-level scan finds a letter next to
    its inverse, as at a seam of the conjugate form's row i.  The moved
    rows, which grow like j, are built lazily, and the letter budget counts
    the whole table, the identity rows of each side in one step and each
    moved row as it is built, so a table past it is refused after
    O(budget) work."""
    first, last = max(i - 1, 1), min(i + 1, n - 1)
    moved = (tuple(chain.from_iterable(image(row, j)))
             for row in range(first, last + 1) for j in range(1, d))
    rows = chain((range(1, (first - 1) * (d - 1) + 1),),
                 (words._reduce_onto([], c) if 0 in map(add, c, c[1:]) else c for c in moved),
                 (range(last * (d - 1) + 1, words.rank(d, n) + 1),))
    return FreeAutomorphism._trusted(d, n, words.bounded_table(d, n, rows))


@lru_cache(maxsize=None)
def generator_action(d: int, n: int, letter: int) -> FreeAutomorphism:
    """Action of a signed braid letter; the inverse comes from the
    inverse lift rather than from inverting an automorphism."""
    if letter > 0:
        return half_twist_action(d, n, letter)
    return pi1.functor_to_automorphism(groupoid.lifted_half_twist_inverse(d, n, -letter))


def _product(compose, maps):
    """Product of a nonempty sequence of maps, the first factor acting first.

    `compose(f, g)` applies f first.  Composition is associative, so the
    fold order does not change the map; folding from the right, each factor
    pushes only the rows it moves through the product of the later factors
    and shares the rest.  The letter budget bounds every row built on the
    way, so a product near the budget is refused or not according to its
    suffix products.  A product of one map's translates is `_power`'s.
    """
    maps = list(maps)
    product = maps.pop()
    while maps:
        product = compose(maps.pop(), product)
    return product


def _power(compose, first, k, shift=lambda f, m: f):
    """Product of k >= 1 factors F_t = shift(first, t), t = 0..k-1, F_{k-1}
    acting first and F_0 = `first` last: by default k copies of `first`.

    `compose(f, g)` applies f first.  `shift(f, m)` must respect
    composition and add up, shift(shift(f, a), b) = shift(f, a + b).  Then
    the product R(k) of F_0, ..., F_{k-1} halves: with m = floor(k/2),
    R(k) = shift(R(m), k - m) then R(k - m), where R(k - m) is R(m) itself
    for even k and shift(first, m) then R(m) for odd k.  Reading the bits
    of k from the left, that is floor(log2 k) + popcount(k) - 1
    compositions, each pushing the rows of a shifted factor through a
    product of at most ceil(k/2) factors.  Square-and-multiply makes as
    many, but its last multiply of an odd power pushes `first` through
    R(k - 1), inverting each of that power's long rows it meets.  The
    letter budget bounds every row built on the way, so a power near the
    budget is refused or not according to the products the halving builds.
    """
    run, m = first, 1
    for bit in bin(k)[3:]:  # the bits of k after the leading one
        odd = bit == "1"
        rest = compose(shift(first, m), run) if odd else run  # R(m + odd)
        run, m = compose(shift(run, m + odd), rest), 2 * m + odd
    return run


def _power_root(letters: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    """(u, k) with letters = u^k and u as short as possible; k = 1 for a word
    that is not a proper power, the empty word included."""
    size = len(letters)
    for p in range(1, size):
        # the second block first: a word that is no power then costs about
        # the sum of the divisors of its length, not their count times it
        if (size % p == 0 and letters[p:2 * p] == letters[:p]
                and letters[:p] * (size // p) == letters):
            return letters[:p], size // p
    return letters, 1


def evaluate(w: BraidWord) -> FreeAutomorphism:
    """Image of a braid word; the leftmost letter acts first.

    The word is read as u^k with u its shortest root.  The letters of u are
    folded once from the right, and that product is raised to the k-th
    power by `_power`'s halving: the last composition pushes u^floor(k/2)
    through u^ceil(k/2), and u's short rows are only ever pushed through a
    power no longer than u^floor(k/2).  The fold rebuilds nearly every row
    at every letter, while the powers the halving builds are about square
    roots of the result.  The letter
    budget bounds every row built on the way, so a proper power near the
    budget is refused or not according to the suffix products of u and the
    powers the halving builds, not the word's own suffix products.

    A product refused by the letter budget names the word's length and
    (d, n); a generator table refused by size already names (d, n).
    """
    d, n = w.d, w.n
    root, k = _power_root(w.letters)
    maps = [generator_action(d, n, letter) for letter in root]
    maps.append(words.identity_automorphism(d, n))  # so the empty word has a product
    try:
        return _power(words.compose, _product(words.compose, maps), k)
    except BudgetExceededError as exc:
        raise BudgetExceededError(
            f"evaluating a braid word of {len(w)} letters at d={d}, n={n}: {exc}"
        ) from None


def dehn_twist_product(d: int, n: int, i: int) -> FreeAutomorphism:
    """Action of the product D_2 * ... * D_d of the d-1 twists along
    x[i,2], ..., x[i,d].

    Composed as mapping classes (rightmost twist acts first); the result
    equals half_twist_action(d, n, i).  The twist D_{j+m} is the deck shift
    S^m D_j S^-m of D_j, so the product T(k) = D_2 * ... * D_{k+1} halves:
    with m = floor(k/2), T(k) = T(k-m) * S^(k-m) T(m) S^-(k-m), where
    T(k-m) is T(m) for even k and T(m) * D_{m+2} for odd k.  `_power` over
    `groupoid._deck_shift` builds T(d-1) from D_2 alone in
    floor(log2(d-1)) + popcount(d-1) - 1 compositions, and no twist outside
    sheets 2..d is built.
    """
    words.check_params(d, n)
    words.check_index(d, n, i, words.rank(d, n))
    product = _power(groupoid.compose_functors, groupoid.dehn_twist(d, n, i, 2), d - 1,
                     lambda f, m: groupoid._deck_shift(f, i, m))
    return pi1.functor_to_automorphism(product)


def braid_matrix(w: BraidWord) -> tuple[tuple[int, ...], ...]:
    """Abelianized action of a braid word; multiplicative, determinant +-1."""
    words.check_table_size(w.d, w.n, words.rank(w.d, w.n) ** 2)
    return words.abelianize(evaluate(w))


# -- machine verification reports --------------------------------------------

CheckResult = namedtuple("CheckResult", "name passed detail", defaults=("",))


class Report(tuple):
    """The `CheckResult`s of a verification run, in the order they ran."""

    __slots__ = ()

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self)


def _compare(name: str, f, g) -> CheckResult:
    """Pass, or fail naming the first row where the tables of two maps differ.

    Row c - 1 holds the image of code c.  Only when the check fails are the
    rows there viewed as words or paths (`_view`) and spelled; the row is
    named by the one-code row (c,), which spells generator or edge c.  Equal
    tables are told apart from the rest by one C-level comparison, which
    passes over the rows the two maps share without reading them.
    """
    if f.table != g.table:
        for code, (a, b) in enumerate(zip(f.table, g.table), start=1):
            if a != b:
                label, first, second = map(str, map(f._view, ((code,), a, b)))
                return CheckResult(name, False, f"{label}: {first} != {second}")
    return CheckResult(name, True)


def _relations(n: int):
    """(name, lhs, rhs) braid-letter tuples of the adjacent braid relations,
    then the far commutations."""
    for i in range(1, n - 1):
        yield f"braid_relation i={i}", (i, i + 1, i), (i + 1, i, i + 1)
    for i in range(1, n - 1):
        for k in range(i + 2, n):
            yield f"far_commutation i={i} k={k}", (i, k), (k, i)


def check_braid_relations(d: int, n: int) -> Report:
    """Adjacent braid relations and far commutations, at both the functor
    and the automorphism level; each side is a product of its letters."""
    words.check_params(d, n)
    levels = (
        ("functor", groupoid.compose_functors, partial(groupoid.lifted_half_twist, d, n)),
        ("automorphism", words.compose, partial(half_twist_action, d, n)),
    )
    return Report(
        _compare(f"{name} {level}", *(_product(compose, map(act, side)) for side in (lhs, rhs)))
        for name, lhs, rhs in _relations(n)
        for level, compose, act in levels
    )


def check_dehn_factorization(d: int, n: int) -> Report:
    """The twist product along x[i,2..d] acts like braid generator i."""
    words.check_params(d, n)
    checks = []
    for i in range(1, n):
        # the closed form first: its letter guard refuses an oversized table
        # before the d - 1 Dehn twists are built and composed
        closed = half_twist_action(d, n, i)
        checks.append(_compare(f"dehn_factorization i={i}", dehn_twist_product(d, n, i), closed))
    return Report(checks)


def check_lift_projection(d: int, n: int) -> Report:
    """Collapsing sheets intertwines the lifted and the base half twists."""
    words.check_params(d, n)
    return Report(
        CheckResult(f"lift_projection i={i}", groupoid.verify_lift(d, n, i)) for i in range(1, n)
    )


def check_cross_validation(d: int, n: int) -> Report:
    """Three independently computed actions agree generator by generator."""
    words.check_params(d, n)
    checks: list[CheckResult] = []
    for i in range(1, n):
        closed = half_twist_action(d, n, i)
        conj = conjugate_twist_action(d, n, i)
        lifted = pi1.functor_to_automorphism(groupoid.lifted_half_twist(d, n, i))
        checks.append(_compare(f"cross_validation i={i} closed/conjugate", closed, conj))
        checks.append(_compare(f"cross_validation i={i} closed/groupoid", closed, lifted))
    return Report(checks)


# name -> checker, in the order `run_suite(d, n, "all")` runs them
SUITES = {
    "relations": check_braid_relations,
    "dehn": check_dehn_factorization,
    "lift": check_lift_projection,
    "cross": check_cross_validation,
}

# (suite, (d, n) pairs) of the 645-check desk sweep, in SUITES order; the
# benchmark's verify-desk workload keeps a copy that a test pins to this one
DESK_GRIDS = (
    ("relations", tuple((d, n) for d in range(2, 7) for n in range(3, 8))),
    ("dehn", tuple((d, n) for d in range(2, 6) for n in range(2, 6))),
    ("lift", tuple((d, n) for d in range(2, 7) for n in range(2, 8))),
    ("cross", tuple((d, n) for d in range(2, 7) for n in range(2, 7))),
)


def _check_count(n: int, suite: str) -> int:
    """Number of checks the suite `suite` runs at n branch points."""
    return {"relations": (n - 1) * (n - 2), "dehn": n - 1, "lift": n - 1,
            "cross": 2 * (n - 1)}[suite]


def run_suite(d: int, n: int, suite: str = "all") -> Report:
    """Run one named verification suite, or all of them in order.

    A run of more checks than the letter budget is refused before any
    table is built: each check composes or translates tables of about
    d*n rows, so past that count the run would take hours, not fail.  A
    refusal raised while a suite runs is prefixed with that suite, and
    with (d, n) unless the refusal already names them, as `evaluate`
    prefixes its own.
    """
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick one of {('all', *SUITES)}")
    names = tuple(SUITES) if suite == "all" else (suite,)
    words.check_params(d, n)
    checks = sum(_check_count(n, name) for name in names)
    if checks > words.LETTER_BUDGET:
        raise BudgetExceededError(
            f"the {suite} suite at d={d}, n={n} runs {checks} checks, more than the "
            f"letter budget of {words.LETTER_BUDGET}"
        )
    results: list[CheckResult] = []
    for name in names:
        try:
            # each checker is looked up on the module at call time, so a
            # wrapper installed there (such as a tracer) sees the call
            results += globals()[SUITES[name].__name__](d, n)
        except BudgetExceededError as exc:
            at = "" if f"d={d}, n={n}" in str(exc) else f" at d={d}, n={n}"
            raise BudgetExceededError(f"running the {name} suite{at}: {exc}") from None
    return Report(results)
