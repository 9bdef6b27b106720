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
from functools import lru_cache

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


def _check_index(d: int, n: int, i: int) -> None:
    """Generator index in range, and an image table within the letter budget."""
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index i must be in 1..{n - 1}, got i={i}")
    words.check_table_size(d, n, words.rank(d, n))


@lru_cache(maxsize=None)
def half_twist_action(d: int, n: int, i: int) -> FreeAutomorphism:
    """Closed-form action of braid generator i on the x[i,j] basis.

    Row i-1 (absent when i = 1) and row i+1 (absent when i = n-1) are
    conjugated into row i; row i is shuffled within itself.  Sheet index
    d, when it appears as j+1, expands into the basis automatically.
    """
    words.check_params(d, n)
    _check_index(d, n, i)
    images: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for j in range(1, d):
        if i >= 2:
            images[(i - 1, j)] = (
                [(i - 1, t, -1) for t in range(j - 1, 0, -1)]
                + [(i, j + 1, 1)]
                + [(i - 1, t, 1) for t in range(1, j + 1)]
            )
        images[(i, j)] = (
            [(i, t, 1) for t in range(2, j + 1)]
            + [(i, t, -1) for t in range(j + 1, 1, -1)]
        )
        if i + 1 <= n - 1:
            images[(i + 1, j)] = (
                [(i, t, -1) for t in range(j - 1, 0, -1)]
                + [(i + 1, j, 1)]
                + [(i, t, 1) for t in range(1, j + 1)]
            )
    return _automorphism_from_table(d, n, images)


@lru_cache(maxsize=None)
def conjugate_twist_action(d: int, n: int, i: int) -> FreeAutomorphism:
    """Same action assembled from prefix loops; checked against the
    closed form at construction (a mismatch means a transcription bug)."""
    words.check_params(d, n)
    _check_index(d, n, i)

    def y(row: int, j: int) -> list[tuple[int, int, int]]:
        # prefix loop x[row,1]*...*x[row,j-1]; at j = d+1 the expansion of
        # x[row,d] cancels the whole prefix, so no wrapping is needed
        return [(row, t, 1) for t in range(1, j)]

    def y_inv(row: int, j: int) -> list[tuple[int, int, int]]:
        return [(row, t, -1) for t in range(j - 1, 0, -1)]

    images: dict[tuple[int, int], list[tuple[int, int, int]]] = {}
    for j in range(1, d):
        if i >= 2:
            images[(i - 1, j)] = y_inv(i - 1, j) + [(i, j + 1, 1)] + y(i - 1, j + 1)
        images[(i, j)] = [(i, 1, -1)] + y(i, j + 1) + y_inv(i, j + 2) + [(i, 1, 1)]
        if i + 1 <= n - 1:
            images[(i + 1, j)] = y_inv(i, j) + [(i + 1, j, 1)] + y(i, j + 1)
    action = _automorphism_from_table(d, n, images)
    if not words.equal(action, half_twist_action(d, n, i)):
        raise SelfCheckError(
            f"conjugate form disagrees with the closed form for d={d}, n={n}, i={i}"
        )
    return action


def _automorphism_from_table(d, n, images) -> FreeAutomorphism:
    return FreeAutomorphism(
        d,
        n,
        tuple(
            words.word(d, n, images.get((i, j), [(i, j, 1)]))
            for (i, j) in words.symbols(d, n)
        ),
    )


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
    _check_index(d, n, i)
    composite = groupoid.identity_functor(d, n)
    for j in range(d, 1, -1):
        composite = groupoid.compose_functors(composite, groupoid.dehn_twist(d, n, i, j))
    return pi1.functor_to_automorphism(composite)


def braid_matrix(w: BraidWord) -> tuple[tuple[int, ...], ...]:
    """Abelianized action of a braid word; multiplicative, determinant +-1."""
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


def _automorphism_diff(f: FreeAutomorphism, g: FreeAutomorphism) -> str:
    for sym, a, b in zip(words.symbols(f.d, f.n), f.images, g.images):
        if a != b:
            return (
                f"x[{sym.i},{sym.j}]: {words.format_word(a)} != {words.format_word(b)}"
            )
    return ""


def _functor_diff(F: groupoid.GroupoidFunctor, G: groupoid.GroupoidFunctor) -> str:
    if F.vertex_images != G.vertex_images:
        return "vertex maps differ"
    for edge, a, b in zip(groupoid.edges(F.d, F.n), F.edge_images, G.edge_images):
        if a != b:
            return (
                f"e[{edge.level},{edge.sheet}]: "
                f"{groupoid.format_path(a)} != {groupoid.format_path(b)}"
            )
    return ""


def _compare_functors(name: str, F, G) -> CheckResult:
    diff = _functor_diff(F, G)
    return CheckResult(name, diff == "", diff)


def _compare_automorphisms(name: str, f, g) -> CheckResult:
    diff = _automorphism_diff(f, g)
    return CheckResult(name, diff == "", diff)


def check_braid_relations(d: int, n: int) -> Report:
    """Adjacent braid relations and far commutations, at both the functor
    and the automorphism level."""
    words.check_params(d, n)
    lift = lambda i: groupoid.lifted_half_twist(d, n, i)
    aut = lambda i: half_twist_action(d, n, i)
    compose3 = lambda a, b, c: groupoid.compose_functors(groupoid.compose_functors(a, b), c)
    compose3w = lambda a, b, c: words.compose(words.compose(a, b), c)
    checks: list[CheckResult] = []
    for i in range(1, n - 1):
        checks.append(
            _compare_functors(
                f"braid_relation i={i} functor",
                compose3(lift(i), lift(i + 1), lift(i)),
                compose3(lift(i + 1), lift(i), lift(i + 1)),
            )
        )
        checks.append(
            _compare_automorphisms(
                f"braid_relation i={i} automorphism",
                compose3w(aut(i), aut(i + 1), aut(i)),
                compose3w(aut(i + 1), aut(i), aut(i + 1)),
            )
        )
    for i in range(1, n - 1):
        for k in range(i + 2, n):
            checks.append(
                _compare_functors(
                    f"far_commutation i={i} k={k} functor",
                    groupoid.compose_functors(lift(i), lift(k)),
                    groupoid.compose_functors(lift(k), lift(i)),
                )
            )
            checks.append(
                _compare_automorphisms(
                    f"far_commutation i={i} k={k} automorphism",
                    words.compose(aut(i), aut(k)),
                    words.compose(aut(k), aut(i)),
                )
            )
    return Report(tuple(checks))


def check_dehn_factorization(d: int, n: int) -> Report:
    """The twist product along x[i,2..d] acts like braid generator i."""
    words.check_params(d, n)
    checks = tuple(
        _compare_automorphisms(
            f"dehn_factorization i={i}",
            dehn_twist_product(d, n, i),
            half_twist_action(d, n, i),
        )
        for i in range(1, n)
    )
    return Report(checks)


def check_lift_projection(d: int, n: int) -> Report:
    """Collapsing sheets intertwines the lifted and the base half twists."""
    words.check_params(d, n)
    checks = tuple(
        CheckResult(f"lift_projection i={i}", groupoid.verify_lift(d, n, i))
        for i in range(1, n)
    )
    return Report(checks)


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


SUITES = ("relations", "dehn", "lift", "cross")


def run_suite(d: int, n: int, suite: str = "all") -> Report:
    """Run one named verification suite, or all of them in order."""
    runners = {
        "relations": check_braid_relations,
        "dehn": check_dehn_factorization,
        "lift": check_lift_projection,
        "cross": check_cross_validation,
    }
    if suite == "all":
        checks: list[CheckResult] = []
        for name in SUITES:
            checks.extend(runners[name](d, n).checks)
        return Report(tuple(checks))
    if suite not in runners:
        raise ValueError(f"unknown suite {suite!r}; pick one of {('all',) + SUITES}")
    return runners[suite](d, n)
