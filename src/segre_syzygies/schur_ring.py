"""The Grothendieck ring of polynomial functors in the Schur basis.

A SymFunc is a finite exact-rational combination of Schur basis symbols,
one per partition.  The ring product is the point-wise tensor product of
functors: `Combination`'s one integer product pairs the basis symbols,
and the Littlewood-Richardson rule expands each pair.  The power-sum basis
(which multiplies by cycle-type concatenation) is not a second storage
format: `power_sum` is the one change of basis, writing a power-sum element
in the Schur basis.
"""

from __future__ import annotations

from fractions import Fraction

from .characters import character_table
from .linalg import Combination, collect
from .partitions import Partition, check_partition, partitions_of, schur_product

class SymFunc(Combination):
    """Sparse exact-rational combination of Schur basis symbols."""

    __slots__ = ()

    def __init__(self, terms: dict[Partition, Fraction] | None = None):
        self.terms = collect(terms.items(), check_partition) if terms else {}

    @staticmethod
    def _like(terms: dict[Partition, Fraction]) -> "SymFunc":
        """Wrap terms that are already canonical and non-zero, as the library builds them."""
        x = SymFunc.__new__(SymFunc)
        x.terms = terms
        return x

    @staticmethod
    def unit() -> "SymFunc":
        return SymFunc._like({(): Fraction(1)})

    @staticmethod
    def basis(lam: Partition) -> "SymFunc":
        return SymFunc._like({check_partition(lam): Fraction(1)})

    def __rmul__(self, c) -> "SymFunc":
        return self.scale(c)

    def __repr__(self) -> str:
        if not self.terms:
            return "SymFunc(0)"
        bits = []
        for lam in sorted(self.terms, key=lambda t: (sum(t), t)):
            bits.append(f"{self.terms[lam]}*s{lam}")
        return "SymFunc(" + " + ".join(bits) + ")"


def boxtimes(x: SymFunc, y: SymFunc) -> SymFunc:
    """Point-wise tensor product, extended bilinearly from the Schur basis.

    Summed over the integers: `Combination._int_product` gives each pair of
    basis symbols its integer coefficient, the pair's Littlewood-Richardson
    product expands it, and each non-zero output is one Fraction.
    """
    pairs, den = x._int_product(y, lambda lam, mu: (lam, mu))
    result: dict[Partition, int] = {}
    for (lam, mu), ab in pairs.items():
        for nu, n in schur_product(lam, mu).items():
            result[nu] = result.get(nu, 0) + ab * n
    return x._like({nu: Fraction(v, den) for nu, v in result.items() if v})


def power_sum(lam: Partition) -> SymFunc:
    """The power-sum basis element for the cycle type lam, in the Schur basis."""
    lam = check_partition(lam)
    p = sum(lam)
    if p == 0:
        return SymFunc.unit()
    table = character_table(p)
    values = ((mu, table.entry(mu, lam)) for mu in partitions_of(p))
    return SymFunc._like({mu: Fraction(v) for mu, v in values if v})


def sym_to_json(x: SymFunc) -> dict[str, str]:
    """Serialize as partition-string -> rational-string, e.g. {"2,1": "1/2"}."""
    out = {}
    for lam in sorted(x.terms, key=lambda t: (sum(t), t)):
        out[",".join(map(str, lam))] = str(x.terms[lam])
    return out
