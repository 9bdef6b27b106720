"""The braid group action on the surface group of the d-sheeted cover.

For every d >= 2 and n >= 2 the standard braid generator with index i acts
on the rank-(d-1)(n-1) surface group.  The action is available through
three independent routes that must agree generator by generator:

  * half_twist_action      -- the closed-form images, row by row;
  * conjugate_twist_action -- the same images assembled from prefix loops
                              y[i,j] = x[i,1]*...*x[i,j-1] and conjugation;
  * the groupoid route     -- the lifted half twist pushed through
                              pi1.functor_to_automorphism.

Braid words evaluate by left-to-right composition (leftmost letter acts
first).  The inverse generator comes from the inverse lift on the groupoid
side, so no general automorphism inversion is ever needed.

A product of mapping classes written D_2 * D_3 * ... * D_d composes like
functions: the rightmost factor acts first.  dehn_twist_product follows
that convention, which is the one under which the product of the d-1
twists along x[i,2], ..., x[i,d] reproduces the lifted half twist.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial, reduce

from . import groupoid, pi1, words
from .errors import SelfCheckError
from .words import FreeAutomorphism


@dataclass(frozen=True)
class BraidWord:
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

    def inverse(self) -> "BraidWord":
        return BraidWord(self.d, self.n, tuple(-s for s in reversed(self.letters)))

    def __str__(self) -> str:
        return format_braid(self)


def braid_word(d: int, n: int, letters) -> BraidWord:
    return BraidWord(d, n, tuple(letters))


def parse_braid(d: int, n: int, text: str) -> BraidWord:
    """Whitespace-separated signed integers, e.g. '1 2 -1'."""
    try:
        letters = tuple(int(tok) for tok in text.split())
    except ValueError:
        raise ValueError(f"cannot parse braid word {text!r}") from None
    return BraidWord(d, n, letters)


def format_braid(w: BraidWord) -> str:
    return " ".join(str(s) for s in w.letters)


@lru_cache(maxsize=None)
def half_twist_action(d: int, n: int, i: int) -> FreeAutomorphism:
    """Closed-form action of braid generator i on the x[i,j] basis.

    Row i-1 (absent when i = 1) and row i+1 (absent when i = n-1) are
    conjugated into row i; row i is shuffled within itself.  Sheet index
    d, when it appears as j+1, expands into the basis automatically.
    """
    words.check_params(d, n)
    words.check_index(d, n, i, words.rank(d, n))

    def image(row: int, j: int) -> list[tuple[int, int, int]]:
        if row == i - 1:
            return (
                [(i - 1, t, -1) for t in range(j - 1, 0, -1)]
                + [(i, j + 1, 1)]
                + [(i - 1, t, 1) for t in range(1, j + 1)]
            )
        if row == i:
            return [(i, t, 1) for t in range(2, j + 1)] + [(i, t, -1) for t in range(j + 1, 1, -1)]
        if row == i + 1:
            return (
                [(i, t, -1) for t in range(j - 1, 0, -1)]
                + [(i + 1, j, 1)]
                + [(i, t, 1) for t in range(1, j + 1)]
            )
        return [(row, j, 1)]

    return _automorphism_from_images(d, n, image)


@lru_cache(maxsize=None)
def conjugate_twist_action(d: int, n: int, i: int) -> FreeAutomorphism:
    """Same action assembled from prefix loops; checked against the
    closed form at construction (a mismatch means a transcription bug)."""
    words.check_params(d, n)
    words.check_index(d, n, i, words.rank(d, n))

    def y(row: int, j: int) -> list[tuple[int, int, int]]:
        # prefix loop x[row,1]*...*x[row,j-1]; at j = d+1 the expansion of
        # x[row,d] cancels the whole prefix, so no wrapping is needed
        return [(row, t, 1) for t in range(1, j)]

    def y_inv(row: int, j: int) -> list[tuple[int, int, int]]:
        return [(row, t, -1) for t in range(j - 1, 0, -1)]

    def image(row: int, j: int) -> list[tuple[int, int, int]]:
        if row == i - 1:
            return y_inv(i - 1, j) + [(i, j + 1, 1)] + y(i - 1, j + 1)
        if row == i:
            return [(i, 1, -1)] + y(i, j + 1) + y_inv(i, j + 2) + [(i, 1, 1)]
        if row == i + 1:
            return y_inv(i, j) + [(i + 1, j, 1)] + y(i, j + 1)
        return [(row, j, 1)]

    action = _automorphism_from_images(d, n, image)
    if not words.equal(action, half_twist_action(d, n, i)):
        raise SelfCheckError(
            f"conjugate form disagrees with the closed form for d={d}, n={n}, i={i}"
        )
    return action


def _automorphism_from_images(d, n, image) -> FreeAutomorphism:
    """Automorphism mapping x[row,j] to the letter triples `image(row, j)`.

    Rows near row i grow like j and the table like d^2, so the rows are
    built lazily and a table past the letter budget is refused after
    O(budget) work."""
    rows = (
        words._reduce_onto([], words._encode(d, n, image(row, j)))
        for row in range(1, n)
        for j in range(1, d)
    )
    return FreeAutomorphism._trusted(d, n, words.bounded_table(d, n, rows))


@lru_cache(maxsize=None)
def generator_action(d: int, n: int, letter: int) -> FreeAutomorphism:
    """Action of a signed braid letter; the inverse comes from the
    inverse lift rather than from inverting an automorphism."""
    if letter > 0:
        return half_twist_action(d, n, letter)
    return pi1.functor_to_automorphism(groupoid.lifted_half_twist_inverse(d, n, -letter))


def evaluate(w: BraidWord) -> FreeAutomorphism:
    """Image of a braid word; leftmost letter acts first."""
    action = words.identity_automorphism(w.d, w.n)
    for letter in w.letters:
        action = words.compose(action, generator_action(w.d, w.n, letter))
    return action


@lru_cache(maxsize=None)
def dehn_twist_product(d: int, n: int, i: int) -> FreeAutomorphism:
    """Action of the product of the d-1 twists along x[i,2], ..., x[i,d].

    Composed as mapping classes (rightmost twist acts first); the result
    equals half_twist_action(d, n, i).
    """
    words.check_params(d, n)
    words.check_index(d, n, i, words.rank(d, n))
    twists = (groupoid.dehn_twist(d, n, i, j) for j in range(d, 1, -1))
    return pi1.functor_to_automorphism(reduce(groupoid.compose_functors, twists))


def braid_matrix(w: BraidWord) -> tuple[tuple[int, ...], ...]:
    """Abelianized action of a braid word; multiplicative, determinant +-1."""
    words.check_table_size(w.d, w.n, words.rank(w.d, w.n) ** 2)
    return words.abelianize(evaluate(w))


# -- machine verification reports --------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class Report:
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def __len__(self) -> int:
        return len(self.checks)


def _compare_tables(name: str, f, g, identity, spell) -> CheckResult:
    """Pass, or fail naming the first row where the tables of two maps differ.

    Row c - 1 holds the image of code c.  Only when the check fails are the
    rows there built as values (`_image(c)`) and spelled; the row is named
    by the image of `identity(d, n)` there.
    """
    for code, (a, b) in enumerate(zip(f.table, g.table), start=1):
        if a != b:
            label, first, second = (spell(m._image(code)) for m in (identity(f.d, f.n), f, g))
            return CheckResult(name, False, f"{label}: {first} != {second}")
    return CheckResult(name, True)


def _compare_functors(name: str, F, G) -> CheckResult:
    return _compare_tables(name, F, G, groupoid.identity_functor, groupoid.format_path)


def _compare_automorphisms(name: str, f, g) -> CheckResult:
    return _compare_tables(name, f, g, words.identity_automorphism, words.format_word)


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
    and the automorphism level; each side is a left fold over its letters."""
    words.check_params(d, n)
    levels = (
        ("functor", groupoid.compose_functors, partial(groupoid.lifted_half_twist, d, n),
         _compare_functors),
        ("automorphism", words.compose, partial(half_twist_action, d, n), _compare_automorphisms),
    )
    return Report(tuple(
        compare(f"{name} {level}", reduce(compose, map(act, lhs)), reduce(compose, map(act, rhs)))
        for name, lhs, rhs in _relations(n)
        for level, compose, act, compare in levels
    ))


def check_dehn_factorization(d: int, n: int) -> Report:
    """The twist product along x[i,2..d] acts like braid generator i."""
    words.check_params(d, n)
    checks = []
    for i in range(1, n):
        # the closed form first: its letter guard refuses an oversized table
        # before the d - 1 Dehn twists are built and composed
        closed = half_twist_action(d, n, i)
        checks.append(
            _compare_automorphisms(f"dehn_factorization i={i}", dehn_twist_product(d, n, i), closed)
        )
    return Report(tuple(checks))


def check_lift_projection(d: int, n: int) -> Report:
    """Collapsing sheets intertwines the lifted and the base half twists."""
    words.check_params(d, n)
    return Report(tuple(
        CheckResult(f"lift_projection i={i}", groupoid.verify_lift(d, n, i)) for i in range(1, n)
    ))


def check_cross_validation(d: int, n: int) -> Report:
    """Three independently computed actions agree generator by generator."""
    words.check_params(d, n)
    checks: list[CheckResult] = []
    for i in range(1, n):
        closed = half_twist_action(d, n, i)
        conj = conjugate_twist_action(d, n, i)
        lifted = pi1.functor_to_automorphism(groupoid.lifted_half_twist(d, n, i))
        checks.append(
            _compare_automorphisms(f"cross_validation i={i} closed/conjugate", closed, conj)
        )
        checks.append(
            _compare_automorphisms(f"cross_validation i={i} closed/groupoid", closed, lifted)
        )
    return Report(tuple(checks))


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


def run_suite(d: int, n: int, suite: str = "all") -> Report:
    """Run one named verification suite, or all of them in order."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; pick one of {('all', *SUITES)}")
    names = tuple(SUITES) if suite == "all" else (suite,)
    # each checker is looked up on the module at call time, so a wrapper
    # installed there (such as a tracer) sees the call
    return Report(tuple(
        check for name in names for check in globals()[SUITES[name].__name__](d, n).checks
    ))
