"""Exact partition combinatorics.

Partitions are plain tuples of weakly decreasing positive integers; the
empty tuple is the zero partition.  Everything here is exact integer
arithmetic: hook-length dimensions, Kostka numbers and Littlewood-Richardson
coefficients (both read off one walk of horizontal strips, `schur_product`)
and polynomial-representation dimensions of GL(m).
"""

from __future__ import annotations

from functools import cache
from math import factorial
from types import MappingProxyType

from .errors import ConsistencyError
from .linalg import wholes

Partition = tuple[int, ...]


def check_partition(parts) -> Partition:
    """Validate and canonicalize an iterable of parts into a Partition."""
    lam = wholes(parts, "partition parts", 1)
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


def _add_strip(shape: Partition, size: int, last):
    """Each way to add a horizontal strip of the size to shape (Pieri's rule),
    as (the new shape, the strip's running totals by row).

    With last, the running totals of the strip before, the lattice
    condition holds: the strip's total through row r is at most last's
    through row r - 1, so nothing enters row 0.
    """
    ext = shape + (0,)
    out = []

    def grow(r: int, parts: Partition, totals: tuple[int, ...], added: int) -> None:
        if added == size:
            nu = parts + shape[r:]
            out.append((nu, totals + (size,) * (len(nu) - r)))
        elif r < len(ext):
            room = min(size - added, ext[r - 1] - ext[r] if r else size)
            if last is not None:
                room = min(room, (last[r - 1] if r else 0) - added)
            for b in range(room + 1):
                grow(r + 1, parts + (ext[r] + b,), totals + (added + b,), added + b)

    grow(0, (), (), 0)
    return out


@cache
def schur_product(lam: Partition, mu: Partition) -> MappingProxyType:
    """Full expansion of the product of two Schur basis elements, read-only.

    The Littlewood-Richardson rule (Macdonald I.9) as one walk: mu's parts
    are added to lam in turn, part i as a horizontal strip of i's, under the
    lattice condition.  A state is a shape with the running totals of its
    last strip, and it carries its number of fillings, so only the nu that
    occur are built.
    """
    states = {(lam, None): 1}
    for part in mu:
        grown: dict = {}
        for (shape, last), n in states.items():
            for key in _add_strip(shape, part, last):
                grown[key] = grown.get(key, 0) + n
        states = grown
    result: dict[Partition, int] = {}
    for (nu, _), n in states.items():
        result[nu] = result.get(nu, 0) + n
    return MappingProxyType(result)


def lr_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Littlewood-Richardson coefficient of nu in the product of lam and mu."""
    lam, mu, nu = check_partition(lam), check_partition(mu), check_partition(nu)
    if sum(nu) != sum(lam) + sum(mu):
        return 0
    return schur_product(lam, mu).get(nu, 0)


@cache
def _complete(content: Partition) -> MappingProxyType:
    """The product of the one-row Schur functions of content's parts,
    read-only: its coefficient of s_lam is the Kostka number (Macdonald I.6)."""
    if not content:
        return MappingProxyType({(): 1})
    result: dict[Partition, int] = {}
    for shape, n in _complete(content[:-1]).items():
        for nu, k in schur_product(shape, content[-1:]).items():
            result[nu] = result.get(nu, 0) + n * k
    return MappingProxyType(result)


def kostka(lam: Partition, mu) -> int:
    """Number of semistandard tableaux of shape lam and content mu.

    mu is a composition of |lam|; trailing or internal zeros are allowed and
    the count only depends on mu up to permutation.
    """
    lam, content = check_partition(lam), wholes(mu, "content entries", 0)
    if sum(content) != sum(lam):
        raise ValueError(f"content {content} does not match |{lam}|")
    return _complete(tuple(sorted((x for x in content if x > 0), reverse=True))).get(lam, 0)


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
