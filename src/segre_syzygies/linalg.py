"""The two exact cores the package shares: integer elimination and sparse
combinations.

`rank` eliminates sparse integer vectors over Z: it serves the Koszul
oracle, where every homology and new-syzygy dimension is a difference of
ranks of the differentials' rows, one per target element keyed by source
position, each with a few entries +-1.
`echelon` is dense Bareiss elimination: every division in it is exact, so
it runs on any integral domain whose `//` is exact division, and it serves
rational reconstruction on integers or on multivariate polynomials.

`Combination` holds the arithmetic of the Schur-ring elements, the
partition-indexed series and the polynomials alike: finite combinations
of keys with non-zero Fraction coefficients.  Its results are canonical
already and are wrapped unchecked; `collect` checks outside input.  Its one
product runs on integer numerators: `integer_form` is the one way any
kernel puts Fractions over one denominator.

`whole` is the one whole-number check, and `wholes` its form for vectors:
every public entry point passes its counts and degrees through the first,
its dims, shifts and partition parts through the second, so a whole float
counts as its int, and any other non-integer, or a value of the other
shape, raises ValueError.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Number


def rank(vectors: list[dict[int, int]]) -> int:
    """Rank over Q of integer vectors, each a dict index -> entry.

    Each vector, with its zero entries dropped, is reduced by its leading
    (largest) index against the pivot vectors found so far, until it is
    empty or leads at a new index and becomes a pivot.  A unit pivot is
    subtracted directly; otherwise both sides are scaled by the gcd-reduced
    leading entries and the result is divided by its content.  The input is
    not mutated.

    The largest index leads because the Koszul rows then lead at their
    latest source element, so pivots meet first the wedges that the blocks
    number last; elimination fills in several times less in this order than
    with the rows led by their first source element.
    """
    pivots: dict[int, dict[int, int]] = {}
    for vector in vectors:
        v = {i: x for i, x in vector.items() if x}
        while v:
            lead = max(v)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = v
                break
            a, b = pivot[lead], v[lead]
            unit = a == 1 or a == -1
            if unit:
                c = a * b
            else:
                g = gcd(a, b)
                c = b // g
                v = {i: a // g * x for i, x in v.items()}
            for i, x in pivot.items():
                y = v.get(i, 0) - c * x
                if y:
                    v[i] = y
                else:
                    del v[i]
            if not unit and v:
                g = gcd(*v.values())
                if g > 1:
                    v = {i: x // g for i, x in v.items()}
    return len(pivots)


def echelon(rows: list[list], ncols: int) -> list[int]:
    """Reduce rows in place to fraction-free echelon form on the first ncols columns.

    Columns past ncols (an augmented side) are carried along but never
    pivoted.  Returns the pivot columns: row k has its first non-zero entry
    at column pivots[k], equal to the determinant of the input's minor on
    the rows now at 0..k and the columns pivots[:k + 1]; the rows after the
    last pivot vanish on the first ncols columns.
    """
    nrows = len(rows)
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r][c]
        row_r = rows[r]
        trivial = pivot == prev
        for i in range(r + 1, nrows):
            row_i = rows[i]
            head = row_i[c]
            if not head:
                if not trivial:
                    rows[i] = [(pivot * x) // prev for x in row_i]
                continue
            rows[i] = [
                (pivot * x - head * y) // prev
                for x, y in zip(row_i, row_r)
            ]
            rows[i][c] = 0
        prev = pivot
        pivots.append(c)
        r += 1
    return pivots


def exact(c) -> Fraction:
    """c as a Fraction: an int, a Fraction, or a string such as "1/2" (as
    JSON stores them), and a whole-number float as its int, as with shifts and
    parts.  Any other float is a binary approximation, so it raises
    ValueError, as does any other kind of number."""
    if isinstance(c, (int, Fraction)):
        return Fraction(c)
    if isinstance(c, float) and c.is_integer():
        return Fraction(int(c))
    if isinstance(c, Number):
        raise ValueError(f"coefficient {c!r} must be an integer or a Fraction")
    return Fraction(c)


def _whole_items(xs, name: str, low: int | None, shown, what: str) -> tuple[int, ...]:
    """The tuple xs as ints, each a whole number and at least low when low is
    given; xs None, or any other item, raises ValueError naming shown."""
    try:
        ints = tuple(map(int, xs))
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints is None or ints != xs:
        raise ValueError(f"{name} must be {what}, got {shown!r}")
    if low is not None and min(ints, default=low) < low:
        bound = "non-negative" if low == 0 else f"at least {low}"
        raise ValueError(f"{name} must be {bound}, got {shown!r}")
    return ints


def whole(x, name: str, low: int | None = None) -> int:
    """The one whole-number check of a number: x as an int, a whole number (a
    whole float, say) and at least low when low is given.  Anything else, a
    vector included, raises ValueError naming x."""
    return _whole_items((x,) if isinstance(x, Number) else None, name, low, x, "an integer")[0]


def wholes(xs, name: str, low: int | None = None) -> tuple[int, ...]:
    """`whole` for a vector: any iterable xs but a number, as a tuple of ints.
    A number, or anything else, raises ValueError naming xs."""
    try:
        items = None if isinstance(xs, Number) else tuple(xs)
    except TypeError:
        items = None
    return _whole_items(items, name, low, xs if items is None else items, "integers")


def integer_form(values) -> tuple[list[int], int]:
    """Rationals as integer numerators over their lcm denominator; none give ([], 1)."""
    ratios = [c.as_integer_ratio() for c in values]
    den = lcm(*[d for _, d in ratios])
    return [n * (den // d) for n, d in ratios], den


def collect(items, key) -> dict:
    """Checked terms from (key, coefficient) pairs: each coefficient becomes a
    Fraction by `exact`, each key passes through `key` (None drops the term),
    equal keys are summed and zeros dropped."""
    terms: dict = {}
    for k, c in items:
        c = exact(c)
        if not c:
            continue
        k = key(k)
        if k is None:
            continue
        if k in terms:
            c += terms[k]
            if not c:
                del terms[k]
                continue
        terms[k] = c
    return terms


class Combination:
    """A finite sparse combination: `terms` maps each key to a non-zero Fraction.

    Results are wrapped by the subclass's `_like(terms)`, which trusts its
    terms to be canonical and non-zero; every operation here keeps them so.
    """

    __slots__ = ("terms",)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and self.terms == other.terms

    def __add__(self, other):
        terms = dict(self.terms)
        for k, c in other.terms.items():
            if k in terms:
                c += terms[k]
                if not c:
                    del terms[k]
                    continue
            terms[k] = c
        return self._like(terms)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def _int_product(self, other, combine) -> tuple[dict, int]:
        """The product with other as (integer sums, den), each side put over
        its lcm denominator: a pair of terms adds its numerators' product at
        the key combine(k1, k2), or nowhere when that is None.  den is the
        product of the denominators; sums that cancel are kept, as 0."""
        xs, dx = integer_form(self.terms.values())
        ys, dy = integer_form(other.terms.values())
        out: dict = {}
        for k1, a in zip(self.terms, xs):
            for k2, b in zip(other.terms, ys):
                k = combine(k1, k2)
                if k is not None:
                    out[k] = out.get(k, 0) + a * b
        return out, dx * dy

    def _product(self, other, combine):
        """The product as `_int_product` keys it, one Fraction per non-zero sum."""
        out, den = self._int_product(other, combine)
        return self._like({k: Fraction(c, den) for k, c in out.items() if c})

    def scale(self, c):
        c = exact(c)
        return self._like({k: c * v for k, v in self.terms.items()} if c else {})
