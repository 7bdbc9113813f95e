"""Exact partition combinatorics.

Partitions are plain tuples of weakly decreasing positive integers; the
empty tuple is the zero partition.  Everything here is exact integer
arithmetic: hook-length dimensions, Kostka numbers, Littlewood-Richardson
coefficients (by direct enumeration of lattice skew tableaux) and
polynomial-representation dimensions of GL(m).
"""

from __future__ import annotations

from functools import cache
from math import factorial

from .errors import ConsistencyError
from .linalg import whole

Partition = tuple[int, ...]


def check_partition(parts) -> Partition:
    """Validate and canonicalize an iterable of parts into a Partition."""
    lam = whole(parts, "partition parts", 1)
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing: {lam}")
    return lam


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram."""
    if not lam:
        return ()
    cols = [0] * lam[0]
    for part in lam:
        for i in range(part):
            cols[i] += 1
    return tuple(cols)


@cache
def partitions_of(n: int, max_rows: int | None = None) -> tuple[Partition, ...]:
    """All partitions of n in reverse lexicographic order.

    With max_rows given, only partitions with at most that many parts.
    """
    if n < 0:
        raise ValueError("n must be non-negative")

    def gen(remaining: int, largest: int, rows_left: int | None):
        if remaining == 0:
            yield ()
            return
        if rows_left is not None and rows_left == 0:
            return
        for first in range(min(remaining, largest), 0, -1):
            next_rows = None if rows_left is None else rows_left - 1
            for rest in gen(remaining - first, first, next_rows):
                yield (first,) + rest

    return tuple(gen(n, n, max_rows))


def compositions(total: int, length: int):
    """All length-tuples of non-negative integers summing to total, lex order."""
    if length == 0:
        if total == 0:
            yield ()
        return
    for first in range(total, -1, -1):
        for rest in compositions(total - first, length - 1):
            yield (first,) + rest


def dimension_sn(lam: Partition) -> int:
    """Dimension of the symmetric-group irreducible for lam (hook lengths)."""
    n = sum(lam)
    if n == 0:
        return 1
    conj = conjugate(lam)
    hooks = 1
    for i, row in enumerate(lam):
        for j in range(row):
            hooks *= row - j + conj[j] - i - 1
    return factorial(n) // hooks


def _horizontal_strips(lam: Partition, size: int):
    """Sub-partitions rho of lam with lam/rho a horizontal strip of the size."""
    rows = len(lam)

    def gen(i: int, remaining: int, prev: int):
        if i == rows:
            if remaining == 0:
                yield ()
            return
        lo = lam[i + 1] if i + 1 < rows else 0
        hi = min(lam[i], prev)
        for r in range(hi, lo - 1, -1):
            removed = lam[i] - r
            if removed > remaining:
                continue
            for rest in gen(i + 1, remaining - removed, r):
                yield (r,) + rest

    for rho in gen(0, size, lam[0] if lam else 0):
        yield tuple(x for x in rho if x > 0)


@cache
def _kostka_sorted(lam: Partition, mu: Partition) -> int:
    if not mu:
        return 1 if not lam else 0
    last = mu[-1]
    total = 0
    for rho in _horizontal_strips(lam, last):
        total += _kostka_sorted(rho, mu[:-1])
    return total


def kostka(lam: Partition, mu) -> int:
    """Number of semistandard tableaux of shape lam and content mu.

    mu is a composition of |lam|; trailing or internal zeros are allowed and
    the count only depends on mu up to permutation.
    """
    content = whole(mu, "content entries", 0)
    if sum(content) != sum(lam):
        raise ValueError(f"content {content} does not match |{lam}|")
    return _kostka_sorted(lam, tuple(sorted((x for x in content if x > 0), reverse=True)))


def contains(outer: Partition, inner: Partition) -> bool:
    """Young-diagram containment inner <= outer."""
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


def _lr_fillings(outer: Partition, inner: Partition, content: Partition) -> int:
    """Count lattice semistandard fillings of outer/inner with the content.

    Cells are visited row by row, right to left, so the prefix of the filling
    seen so far is exactly a prefix of the reverse reading word.
    """
    rows = len(outer)
    inner_padded = tuple(inner) + (0,) * (rows - len(inner))
    cells = []
    for r in range(rows):
        for c in range(outer[r] - 1, inner_padded[r] - 1, -1):
            cells.append((r, c))
    nvals = len(content)
    filling: dict[tuple[int, int], int] = {}
    counts = [0] * (nvals + 1)

    def backtrack(pos: int) -> int:
        if pos == len(cells):
            return 1
        r, c = cells[pos]
        total = 0
        for v in range(1, nvals + 1):
            if counts[v] >= content[v - 1]:
                continue
            if v >= 2 and counts[v] >= counts[v - 1]:
                continue  # lattice word condition
            right = filling.get((r, c + 1))
            if right is not None and v > right:
                continue  # rows weakly increase
            above = filling.get((r - 1, c))
            if above is not None and v <= above:
                continue  # columns strictly increase
            counts[v] += 1
            filling[(r, c)] = v
            total += backtrack(pos + 1)
            del filling[(r, c)]
            counts[v] -= 1
        return total

    return backtrack(0)


def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient of nu in the product of lam and mu."""
    if sum(nu) != sum(lam) + sum(mu):
        return 0
    if not contains(nu, lam):
        return 0
    if not mu:
        return 1 if nu == lam else 0
    return _lr_fillings(nu, lam, mu)


@cache
def schur_product(lam: Partition, mu: Partition) -> dict[Partition, int]:
    """Full expansion of the product of two Schur basis elements."""
    result: dict[Partition, int] = {}
    n = sum(lam) + sum(mu)
    max_rows = len(lam) + len(mu)
    for nu in partitions_of(n, max_rows if n else None):
        if lam and nu[0] > lam[0] + (mu[0] if mu else 0):
            continue
        coeff = lr_coefficient(lam, mu, nu)
        if coeff:
            result[nu] = coeff
    return result


def gl_dimension(lam: Partition, m: int) -> int:
    """Dimension of the Schur functor for lam evaluated on C^m (Weyl formula)."""
    if m < 0:
        raise ValueError("m must be non-negative")
    if len(lam) > m:
        return 0
    if m == 0:
        return 1  # lam is the zero partition here
    padded = tuple(lam) + (0,) * (m - len(lam))
    top = bottom = 1
    for i in range(m):
        for j in range(i + 1, m):
            top *= padded[i] - padded[j] + j - i
            bottom *= j - i
    dim, remainder = divmod(top, bottom)
    if remainder:
        raise ConsistencyError(f"Weyl dimension {top}/{bottom} of {lam} on C^{m} is fractional")
    return dim


def partition_to_json(lam: Partition) -> list[int]:
    return list(lam)


def partition_from_json(data) -> Partition:
    if not isinstance(data, list):
        raise ValueError(f"partition must be a JSON array: {data!r}")
    return check_partition(data)
