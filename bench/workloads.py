"""Seeded inputs, closed-form expectations and independent output checks.

Nothing here imports braidcover: the expected check counts and the
abelianized matrices are derived from the paper's formulas, so a defect in
the package cannot make its own output look right.

A job is what one cold worker runs; it is a JSON-able list whose first
element names its kind:

  ["desk", [[suite, d, n], ...]]    one whole desk sweep through run_suite
  ["verify", d, n, suite]           one `braidcover verify` invocation
  ["eval", d, n, [letters], golden] one `braidcover eval` invocation
"""

from __future__ import annotations

import hashlib
import random
import re
from collections import Counter
from fractions import Fraction

WORKLOADS = ("verify-desk", "verify-stress", "eval-long")

# The four grids of the batch sweep, in its order.
DESK_GRIDS = (
    ("relations", [(d, n) for d in range(2, 7) for n in range(3, 8)]),
    ("dehn", [(d, n) for d in range(2, 6) for n in range(2, 6)]),
    ("lift", [(d, n) for d in range(2, 7) for n in range(2, 8)]),
    ("cross", [(d, n) for d in range(2, 7) for n in range(2, 7)]),
)

# Every suite at the d = n = 20 stress point, plus the tall relations-heavy
# (10, 30) and the wide dehn-heavy (30, 10) ops.  The other six suites on
# those two pairs add ~5 s per pass and no layer the kept ops miss.
STRESS_OPS = (
    (20, 20, "relations"),
    (20, 20, "dehn"),
    (20, 20, "lift"),
    (20, 20, "cross"),
    (10, 30, "relations"),
    (30, 10, "dehn"),
)

# Ladder words (s_i s_{i+1}^-1)^k as (d, n, k); 10^5..10^6 output letters,
# every single image under the package's letter budget.
LADDERS = ((3, 3, 11), (4, 3, 10), (3, 5, 10), (5, 5, 10), (2, 4, 12), (6, 4, 9))

# (s_1 s_2^-1)^10 at d = n = 3 prints exactly this many letters.
GOLDEN = (3, 3, (1, -2) * 10)
GOLDEN_LETTERS = 140_618


def expected_checks(suite: str, n: int) -> int:
    """Number of checks a suite runs at n branch points."""
    return {
        "relations": (n - 1) * (n - 2),
        "dehn": n - 1,
        "lift": n - 1,
        "cross": 2 * (n - 1),
    }[suite]


def make_jobs(workload: str, seed: int) -> list:
    """The jobs of one pass; the same seed gives the same jobs."""
    rng = random.Random(seed)
    if workload == "verify-desk":
        # the grid is the spec: the seed permutes nothing
        return [["desk", [[suite, d, n] for suite, grid in DESK_GRIDS for d, n in grid]]]
    if workload == "verify-stress":
        ops = [["verify", d, n, suite] for d, n, suite in STRESS_OPS]
        rng.shuffle(ops)  # each op is cold, so order changes nothing but the schedule
        return ops
    if workload == "eval-long":
        d, n, letters = GOLDEN
        jobs = [["eval", d, n, list(letters), True]]
        for d, n, k in LADDERS:
            # Mirror and rotation parity change a ladder's output by up to 2x,
            # so every pass holds all four combinations and the seed picks the
            # index shift and the rotation within each parity class.
            for mirror in (1, -1):
                for parity in (0, 1):
                    i = rng.randint(1, n - 2)
                    rotation = 2 * rng.randrange(k) + parity
                    word = [i, -(i + 1)] * k
                    word = word[rotation:] + word[:rotation]
                    jobs.append(["eval", d, n, [mirror * s for s in word], False])
        return jobs
    raise ValueError(f"unknown workload {workload!r}; pick one of {WORKLOADS}")


def job_argv(job: list) -> list[str]:
    """Command line of a verify or eval job."""
    if job[0] == "verify":
        _, d, n, suite = job
        return ["verify", "--d", str(d), "--n", str(n), "--suite", suite]
    _, d, n, letters, _ = job
    return ["eval", "--d", str(d), "--n", str(n), "--word", " ".join(map(str, letters))]


# -- output checks -------------------------------------------------------------


def check_report(report_len: int, all_passed: bool, suite: str, n: int) -> str:
    """Empty string when a run_suite report is right, else what is wrong."""
    want = expected_checks(suite, n)
    if report_len != want:
        return f"{report_len} checks, expected {want}"
    return "" if all_passed else "a check failed"


def check_verify_output(text: str, rc: int, n: int, suite: str) -> str:
    """Empty string when `verify` printed exactly the expected passes."""
    want = expected_checks(suite, n)
    lines = text.splitlines()
    passed = sum(1 for line in lines if line.startswith("PASS "))
    if rc != 0:
        return f"exit status {rc}"
    if passed != want or len(lines) != want + 1:
        return f"{passed} PASS lines of {len(lines)}, expected {want}"
    if lines[-1] != f"ok: {want} checks passed":
        return f"unexpected summary {lines[-1]!r}"
    return ""


# A letter next to its inverse: x[i,j]*x[i,j]^-1, or x[i,j]^-1*x[i,j] not
# followed by ^-1.  Tokens are checked against the basis separately.
_CANCELLING = re.compile(r"(x\[\d+,\d+\])(?:\*\1\^-1|\^-1\*\1(?!\^))")


def check_eval_output(text: str, rc: int, d: int, n: int, letters, golden: bool):
    """Check printed images; returns (error, letter count, digest)."""
    digest = hashlib.sha256(text.encode()).hexdigest()
    if rc != 0:
        return f"exit status {rc}", 0, digest
    basis = [(i, j) for i in range(1, n) for j in range(1, d)]
    code_of = {}
    for k, (i, j) in enumerate(basis, start=1):
        code_of[f"x[{i},{j}]"] = k
        code_of[f"x[{i},{j}]^-1"] = -k
    lines = text.splitlines()
    if len(lines) != len(basis):
        return f"{len(lines)} lines, expected {len(basis)}", 0, digest
    total = 0
    matrix = []
    for (i, j), line in zip(basis, lines):
        name, sep, image = line.partition(" -> ")
        if name != f"x[{i},{j}]" or not sep:
            return f"unexpected line start {line[:40]!r}", 0, digest
        counts = Counter([] if image == "1" else image.split("*"))
        if not counts.keys() <= code_of.keys():
            return f"image of {name} has a token outside the basis", 0, digest
        if _CANCELLING.search(image):
            return f"image of {name} is not freely reduced", 0, digest
        row = [0] * len(basis)
        for token, count in counts.items():
            code = code_of[token]
            row[abs(code) - 1] += count if code > 0 else -count
        matrix.append(row)
        total += sum(counts.values())
    if determinant(matrix) not in (1, -1):
        return "abelianized matrix is not unimodular", total, digest
    if matrix != word_matrix(d, n, letters):
        return "abelianized matrix differs from the generator product", total, digest
    if golden and total != GOLDEN_LETTERS:
        return f"golden op printed {total} letters, expected {GOLDEN_LETTERS}", total, digest
    return "", total, digest


# -- abelianized action, from the closed form ---------------------------------
#
# Row (r, j) of the matrix of s_i counts the basis letters of the image of
# x[r,j] (rows and columns ordered by (r, j)); the dependent symbol x[i,d]
# abelianizes to minus the sum of its row.  A braid word's matrix is the
# product of its letters' matrices, leftmost first.


def generator_matrix(d: int, n: int, i: int) -> list[list[int]]:
    size = (d - 1) * (n - 1)
    index = lambda row, j: (row - 1) * (d - 1) + (j - 1)  # noqa: E731

    def x(row: int, j: int) -> list[int]:
        vec = [0] * size
        if j < d:
            vec[index(row, j)] = 1
        else:
            for t in range(1, d):
                vec[index(row, t)] = -1
        return vec

    matrix = [x(r, j) for r in range(1, n) for j in range(1, d)]
    for j in range(1, d):
        if i >= 2:
            matrix[index(i - 1, j)] = [a + b for a, b in zip(x(i - 1, j), x(i, j + 1))]
        matrix[index(i, j)] = [-a for a in x(i, j + 1)]
        if i + 1 <= n - 1:
            matrix[index(i + 1, j)] = [a + b for a, b in zip(x(i + 1, j), x(i, j))]
    return matrix


def word_matrix(d: int, n: int, letters) -> list[list[int]]:
    size = (d - 1) * (n - 1)
    result = [[int(r == c) for c in range(size)] for r in range(size)]
    for s in letters:
        m = generator_matrix(d, n, abs(s))
        if s < 0:
            m = inverse(m)
        result = [[sum(a * b for a, b in zip(row, col)) for col in zip(*m)] for row in result]
    return result


def inverse(m: list[list[int]]) -> list[list[int]]:
    """Exact inverse of a unimodular integer matrix (Gauss-Jordan)."""
    size = len(m)
    a = [[Fraction(v) for v in row] + [Fraction(int(r == c)) for c in range(size)]
         for r, row in enumerate(m)]
    for p in range(size):
        pivot = next(r for r in range(p, size) if a[r][p] != 0)
        a[p], a[pivot] = a[pivot], a[p]
        a[p] = [v / a[p][p] for v in a[p]]
        for r in range(size):
            if r != p and a[r][p] != 0:
                f = a[r][p]
                a[r] = [v - f * w for v, w in zip(a[r], a[p])]
    out = [[v for v in row[size:]] for row in a]
    if any(v.denominator != 1 for row in out for v in row):
        raise ValueError("matrix is not unimodular")
    return [[int(v) for v in row] for row in out]


def determinant(m: list[list[int]]) -> int:
    """Exact integer determinant (fraction-free Bareiss elimination)."""
    a = [list(row) for row in m]
    size = len(a)
    sign, prev = 1, 1
    for p in range(size - 1):
        if a[p][p] == 0:
            swap = next((r for r in range(p + 1, size) if a[r][p] != 0), None)
            if swap is None:
                return 0
            a[p], a[swap] = a[swap], a[p]
            sign = -sign
        for r in range(p + 1, size):
            for c in range(p + 1, size):
                a[r][c] = (a[r][c] * a[p][p] - a[r][p] * a[p][c]) // prev
        prev = a[p][p]
    return sign * a[-1][-1] if size else 1
