"""Closed-form topological invariants of the d-sheeted cover of the disk.

The cover of the disk with n branch points is a compact oriented surface
with b = gcd(d, n) boundary circles and genus
g = (dn - n - d - gcd(d, n))/2 + 1, so its fundamental group is free of
rank 2g + b - 1 = (d-1)(n-1).
"""

from __future__ import annotations

import math

from .words import _Frozen, check_table_size


class SurfaceData(_Frozen):
    d: int
    n: int
    genus: int
    boundary: int

    @property
    def rank(self) -> int:
        return 2 * self.genus + self.boundary - 1


def surface(d: int, n: int) -> SurfaceData:
    """Genus and boundary count of the cover; d >= 2, n >= 1."""
    if d < 2:
        raise ValueError(f"parameter d must be >= 2, got d={d}")
    if n < 1:
        raise ValueError(f"parameter n must be >= 1, got n={n}")
    b = math.gcd(d, n)
    numerator = d * n - n - d - b
    assert numerator % 2 == 0, "genus numerator must be even"
    g = numerator // 2 + 1
    assert g >= 0, "genus must be nonnegative"
    return SurfaceData(d, n, g, b)


def table(d: int, n_max: int) -> tuple[SurfaceData, ...]:
    """Rows n = 1..n_max for a fixed sheet count d."""
    if n_max < 1:
        raise ValueError(f"parameter n_max must be >= 1, got n_max={n_max}")
    check_table_size(d, n_max, n_max)
    return tuple(surface(d, n) for n in range(1, n_max + 1))


def format_table(rows) -> str:
    """Aligned text table with columns n, b, g, rank."""
    lines = [f"{'n':>4} {'b':>4} {'g':>4} {'rank':>5}"]
    for row in rows:
        lines.append(f"{row.n:>4} {row.boundary:>4} {row.genus:>4} {row.rank:>5}")
    return "\n".join(lines)
