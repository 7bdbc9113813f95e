"""The Grothendieck ring of polynomial functors in the Schur basis.

A SymFunc is a finite exact-rational combination of Schur basis symbols,
one per partition.  The ring product is the point-wise tensor product of
functors: `Combination`'s one integer product pairs the basis symbols,
and the Littlewood-Richardson rule expands each pair.  The power-sum basis
(which multiplies by cycle-type concatenation) is available as a change of
basis, not as a second storage format.
"""

from __future__ import annotations

from fractions import Fraction

from .characters import character_table, class_data
from .linalg import Combination, collect
from .partitions import Partition, check_partition, gl_dimension, partitions_of, schur_product

class SymFunc(Combination):
    """Sparse exact-rational combination of Schur basis symbols."""

    __slots__ = ()

    def __init__(self, terms: dict[Partition, Fraction] | None = None):
        self.terms = collect(terms.items(), tuple) if terms else {}

    def _like(self, terms: dict[Partition, Fraction]) -> "SymFunc":
        x = SymFunc.__new__(SymFunc)
        x.terms = terms
        return x

    @staticmethod
    def zero() -> "SymFunc":
        return SymFunc()

    @staticmethod
    def unit() -> "SymFunc":
        return SymFunc({(): Fraction(1)})

    @staticmethod
    def basis(lam: Partition) -> "SymFunc":
        return SymFunc({check_partition(lam): Fraction(1)})

    def __rmul__(self, c) -> "SymFunc":
        return self.scale(c)

    def coefficient(self, lam: Partition) -> Fraction:
        return self.terms.get(tuple(lam), Fraction(0))

    def degrees(self) -> set[int]:
        return {sum(lam) for lam in self.terms}

    def degree_component(self, d: int) -> "SymFunc":
        return self._like({lam: c for lam, c in self.terms.items() if sum(lam) == d})

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
    return SymFunc({mu: Fraction(table.entry(mu, lam)) for mu in partitions_of(p)})


def to_power_sum_basis(x: SymFunc) -> dict[Partition, Fraction]:
    """Coefficients of x in the power-sum basis, handled degree by degree."""
    result: dict[Partition, Fraction] = {}
    for p in sorted(x.degrees()):
        component = x.degree_component(p)
        if p == 0:
            result[()] = component.coefficient(())
            continue
        table = character_table(p)
        for lam in partitions_of(p):
            z = class_data(lam).centralizer_order
            coeff = sum(
                (table.entry(mu, lam) * c for mu, c in component.terms.items()),
                Fraction(0),
            ) / z
            if coeff:
                result[lam] = coeff
    return result


def evaluate_dimension(x: SymFunc, m: int) -> Fraction:
    """Evaluate the class on C^m: sum of coefficients times GL-dimensions."""
    if m < 0:
        raise ValueError("m must be non-negative")
    return sum(
        (c * gl_dimension(lam, m) for lam, c in x.terms.items()),
        Fraction(0),
    )


def sym_to_json(x: SymFunc) -> dict[str, str]:
    """Serialize as partition-string -> rational-string, e.g. {"2,1": "1/2"}."""
    out = {}
    for lam in sorted(x.terms, key=lambda t: (sum(t), t)):
        out[",".join(map(str, lam))] = str(x.terms[lam])
    return out


def sym_from_json(data: dict[str, str]) -> SymFunc:
    """Inverse of `sym_to_json`; keys naming the same partition are summed."""
    items = (
        (() if key == "" else check_partition(int(s) for s in key.split(",")), value)
        for key, value in data.items()
    )
    return SymFunc(collect(items, tuple))
