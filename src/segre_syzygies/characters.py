"""Symmetric-group character theory.

Conjugacy-class data, Murnaghan-Nakayama character values, full character
tables (validated against orthonormality before use) and Kronecker
coefficients.  Characters are normalized the standard way: the one-row
partition is the trivial character and the one-column partition is sign.
"""

from __future__ import annotations

import io
import csv
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial

from .errors import CapacityError, ConsistencyError
from .partitions import Partition, partitions_of

MAX_TABLE_P = 12


@dataclass(frozen=True)
class ClassData:
    cycle_type: Partition
    class_size: int
    centralizer_order: int
    sign: int


def class_data(lam: Partition) -> ClassData:
    """Class size, centralizer order and sign for the cycle type lam."""
    p = sum(lam)
    mult: dict[int, int] = {}
    for part in lam:
        mult[part] = mult.get(part, 0) + 1
    centralizer = 1
    for i, m in mult.items():
        centralizer *= i**m * factorial(m)
    sign = -1 if (p - len(lam)) % 2 else 1
    return ClassData(lam, factorial(p) // centralizer, centralizer, sign)


def _first_column_hooks(lam: Partition) -> tuple[int, ...]:
    r = len(lam)
    return tuple(lam[i] + r - i - 1 for i in range(r))


def _hooks_to_partition(hooks: tuple[int, ...]) -> Partition:
    ordered = sorted(hooks, reverse=True)
    r = len(ordered)
    lam = tuple(ordered[i] - (r - i - 1) for i in range(r))
    return tuple(x for x in lam if x > 0)


@cache
def mn_character(lam: Partition, mu: Partition) -> int:
    """Character value of the irreducible for lam on the class of cycle type mu.

    Murnaghan-Nakayama recursion, implemented on first-column hook lengths:
    removing a border strip of length k moves one hook value down by k, with
    sign given by the number of hook values jumped over.
    """
    if sum(lam) != sum(mu):
        raise ValueError(f"|{lam}| != |{mu}|")
    mu = tuple(sorted(mu, reverse=True))
    return _mn(lam, mu)


@cache
def _mn(lam: Partition, mu: Partition) -> int:
    if not mu:
        return 1
    k = mu[0]
    rest = mu[1:]
    hooks = _first_column_hooks(lam)
    hook_set = set(hooks)
    total = 0
    for idx, h in enumerate(hooks):
        target = h - k
        if target < 0 or target in hook_set:
            continue
        crossed = sum(1 for x in hooks if target < x < h)
        new_hooks = hooks[:idx] + (target,) + hooks[idx + 1 :]
        sign = -1 if crossed % 2 else 1
        total += sign * _mn(_hooks_to_partition(new_hooks), rest)
    return total


class CharacterTable:
    """Character table of the symmetric group on p letters.

    Rows are indexed by partitions (characters), columns by partitions
    (conjugacy classes), both in reverse lexicographic order.
    """

    def __init__(self, p: int, labels: tuple[Partition, ...], values: tuple[tuple[int, ...], ...]):
        self.p = p
        self.labels = labels
        self.values = values
        self.index = {lam: i for i, lam in enumerate(labels)}
        self._validate()

    def entry(self, lam: Partition, mu: Partition) -> int:
        return self.values[self.index[lam]][self.index[mu]]

    def row(self, lam: Partition) -> tuple[int, ...]:
        return self.values[self.index[lam]]

    def _validate(self) -> None:
        # orthonormality: B diag(1/z) B^t must be the identity
        zs = [class_data(mu).centralizer_order for mu in self.labels]
        n = len(self.labels)
        for i in range(n):
            for j in range(i, n):
                s = sum(
                    Fraction(self.values[i][k] * self.values[j][k], zs[k])
                    for k in range(n)
                )
                if s != (1 if i == j else 0):
                    raise ConsistencyError(
                        f"character table of S_{self.p} fails orthonormality at "
                        f"({self.labels[i]}, {self.labels[j]})"
                    )

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out)
        names = [",".join(map(str, mu)) for mu in self.labels]
        writer.writerow(["lambda\\mu"] + names)
        for lam, row in zip(self.labels, self.values):
            writer.writerow([",".join(map(str, lam))] + list(row))
        return out.getvalue()


@cache
def character_table(p: int) -> CharacterTable:
    """Full character table of S_p, memoized."""
    if p < 1:
        raise ValueError(f"p must be at least 1, got {p}")
    if p > MAX_TABLE_P:
        raise CapacityError(f"character tables supported for 1 <= p <= {MAX_TABLE_P}, got {p}")
    labels = partitions_of(p)
    values = tuple(
        tuple(mn_character(lam, mu) for mu in labels) for lam in labels
    )
    return CharacterTable(p, labels, values)


def kronecker_coefficient(lam: Partition, mu: Partition, nu: Partition) -> int:
    """Multiplicity of the nu-irreducible in the tensor product for lam and mu."""
    p = sum(lam)
    if sum(mu) != p or sum(nu) != p:
        raise ValueError(f"|{lam}|, |{mu}|, |{nu}| must agree")
    if p == 0:
        return 1
    table = character_table(p)
    total = Fraction(0)
    for rho in table.labels:
        size = class_data(rho).class_size
        total += Fraction(
            size * table.entry(lam, rho) * table.entry(mu, rho) * table.entry(nu, rho),
            factorial(p),
        )
    if total.denominator != 1 or total < 0:
        raise ConsistencyError(
            f"Kronecker coefficient for {lam}, {mu}, {nu} is not a non-negative "
            f"integer: {total}"
        )
    return int(total)
