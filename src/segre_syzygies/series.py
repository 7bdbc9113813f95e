"""Truncated formal series in commuting variables indexed by partitions.

A monomial is a multiset of partitions; its order is the multiset size, and
it is degree-homogeneous of degree d when every partition in it has size d.
All closed-form syzygy series live here: the Euler-characteristic slices,
the small-p syzygy series of the Segre embedding, the Lascoux order-two
slice and the two sides of the tensor-Schur identity.  The kernels that
build them (`exp_combination`, the Kronecker recurrence and
`dimension_on_factors`) sum over the integers, from `linalg.integer_form`,
and make one Fraction per returned value, as the series product does.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import permutations
from math import factorial, prod
from operator import mul
from typing import NamedTuple

from .characters import character_table, class_data, kronecker_coefficient
from .errors import ConsistencyError, UnsupportedError
from .linalg import Combination, collect, integer_form, whole
from .partitions import (
    Partition,
    check_partition,
    conjugate,
    gl_dimension,
    partitions_of,
)
from .schur_ring import SymFunc, boxtimes, power_sum

Monomial = tuple[Partition, ...]


def _part_key(lam: Partition):
    return (sum(lam), lam)


def canonical_monomial(parts) -> Monomial:
    return tuple(sorted((tuple(p) for p in parts), key=_part_key))


def monomial_degree(mono: Monomial) -> int | None:
    """Common part size of a degree-homogeneous monomial, else None.

    The order-0 monomial and monomials mixing part sizes carry no degree.
    """
    sizes = {sum(lam) for lam in mono}
    if len(sizes) == 1:
        return sizes.pop()
    return None


class TruncationPolicy(NamedTuple):
    """Keep monomials of order <= max_order whose parts have size <= max_part_size."""

    max_order: int = 5
    max_part_size: int = 6

    def admits(self, mono: Monomial) -> bool:
        if len(mono) > self.max_order:
            return False
        return all(sum(lam) <= self.max_part_size for lam in mono)


DEFAULT_POLICY = TruncationPolicy()


def _checked_policy(policy: TruncationPolicy) -> TruncationPolicy:
    """policy with int fields; a field that is negative or not a whole number
    raises ValueError, so a series never walks past a fractional order."""
    fields = [whole(v, name) for name, v in zip(policy._fields, policy)]
    for name, value in zip(policy._fields, fields):
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value}")
    return TruncationPolicy(*fields)


class PartitionSeries(Combination):
    """Truncated series with exact-rational coefficients.

    Immutable by convention; all operations return new series.  Equality
    compares terms only, so series expanded under compatible policies agree
    when their stored terms do.
    """

    __slots__ = ("policy",)

    def __init__(self, policy: TruncationPolicy, terms: dict[Monomial, Fraction] | None = None):
        self.policy = policy
        def admitted(mono):
            if not all(mono):
                raise ValueError(f"the zero partition is not a series variable: {mono}")
            return canonical_monomial(mono) if policy.admits(mono) else None

        self.terms = collect(terms.items(), admitted) if terms else {}

    @classmethod
    def _trusted(
        cls, policy: TruncationPolicy, terms: dict[Monomial, Fraction]
    ) -> "PartitionSeries":
        """Wrap terms that are already canonical, admitted by policy and non-zero.

        For results the library builds itself; external input goes through
        the checking constructor.
        """
        series = cls.__new__(cls)
        series.policy = policy
        series.terms = terms
        return series

    def _like(self, terms: dict[Monomial, Fraction]) -> "PartitionSeries":
        return PartitionSeries._trusted(self.policy, terms)

    @staticmethod
    def zero(policy: TruncationPolicy) -> "PartitionSeries":
        return PartitionSeries._trusted(policy, {})

    @staticmethod
    def one(policy: TruncationPolicy) -> "PartitionSeries":
        return PartitionSeries(policy, {(): Fraction(1)})

    @staticmethod
    def variable(lam: Partition, policy: TruncationPolicy) -> "PartitionSeries":
        lam = check_partition(lam)
        if not lam:
            raise ValueError("the zero partition is not a series variable")
        return PartitionSeries(policy, {(lam,): Fraction(1)})

    def __add__(self, other: "PartitionSeries") -> "PartitionSeries":
        self._check_policy(other)
        return Combination.__add__(self, other)

    def __mul__(self, other: "PartitionSeries") -> "PartitionSeries":
        self._check_policy(other)
        max_order = self.policy.max_order

        def combine(m1: Monomial, m2: Monomial) -> Monomial | None:
            if len(m1) + len(m2) <= max_order:
                return tuple(sorted(m1 + m2, key=_part_key))
            return None

        return self._product(other, combine)

    def _check_policy(self, other: "PartitionSeries") -> None:
        if self.policy != other.policy:
            raise ValueError(f"truncation policies differ: {self.policy} vs {other.policy}")

    def order_component(self, n: int) -> "PartitionSeries":
        return self._like({m: c for m, c in self.terms.items() if len(m) == n})

    def degree_slice(self, d: int, order: int | None = None) -> "PartitionSeries":
        """Terms of degree d (optionally restricted to one order)."""
        kept = {
            m: c
            for m, c in self.terms.items()
            if m and monomial_degree(m) == d and (order is None or len(m) == order)
        }
        return self._like(kept)

    def __repr__(self) -> str:
        if not self.terms:
            return "PartitionSeries(0)"
        bits = []
        for mono in sorted(self.terms, key=lambda m: (len(m), m)):
            bits.append(f"{self.terms[mono]}*X{mono}")
        return "PartitionSeries(" + " + ".join(bits) + ")"


def order_normalize(a: PartitionSeries) -> PartitionSeries:
    """Multiply each order-n component by n! (pass from averaged to plain counts)."""
    return a._like({m: c * factorial(len(m)) for m, c in a.terms.items()})


def exp_series(x: SymFunc, policy: TruncationPolicy) -> PartitionSeries:
    """exp of a constant-term-free ring element, expanded to the truncation order."""
    return exp_combination([(1, x)], policy)


def exp_combination(terms, policy: TruncationPolicy) -> PartitionSeries:
    """Sum of scaled exponentials of ring elements without constant term.

    The coefficient of the monomial prod X_mu^m_mu in c * exp(sum x_mu X_mu)
    is c * prod x_mu^m_mu / m_mu!, so each admitted monomial is written
    directly, and the sum is taken over the integers.  With D the lcm of the
    denominators of every kept x_mu and C the lcm of those of the
    coefficients, x_mu = a_mu / D and c = b / C for integers a_mu and b, and
    a term adds b * prod a_mu^m_mu to its monomial over C * D^n * prod m_mu!.

    One depth-first walk over the multisets of the union of the kept
    supports serves every term: each partition has a column of the terms'
    a_mu (0 where a term lacks it), a node carries the vector of the terms'
    b * prod a_mu^m_mu, and a subtree whose vector is all zero is skipped.
    The walk also carries C * D^n * prod m_mu!, so each non-zero node
    becomes one Fraction of its vector's sum over that.
    """
    policy = _checked_policy(policy)
    coeffs, kept = [], []
    for coeff, x in terms:
        if () in x.terms:
            raise ValueError("exponential arguments must have no constant term")
        coeff = Fraction(coeff)
        if not coeff:
            continue
        coeffs.append(coeff)
        kept.append({lam: v for lam, v in x.terms.items() if sum(lam) <= policy.max_part_size})
    root, common = integer_form(coeffs)
    nums, den = integer_form([v for support in kept for v in support.values()])
    nums = iter(nums)
    kept = [{lam: next(nums) for lam in support} for support in kept]
    union = sorted(set().union(*kept), key=_part_key)
    columns = [[support.get(lam, 0) for support in kept] for lam in union]
    result: dict[Monomial, Fraction] = {}
    # (monomial, index of its last part, the terms' b * prod a_mu^m_mu,
    #  multiplicity of the last part, C * D^n * prod m_mu!)
    stack = [((), 0, root, 0, common)]
    while stack:
        mono, last, values, run, scale = stack.pop()
        value = sum(values)
        if value:
            result[mono] = Fraction(value, scale)
        if len(mono) < policy.max_order:
            for j in range(last, len(union)):
                child = list(map(mul, values, columns[j]))
                if any(child):
                    m = run + 1 if j == last else 1
                    stack.append((mono + (union[j],), j, child, m, scale * den * m))
    return PartitionSeries._trusted(policy, result)


def euler_chi(k: int, policy: TruncationPolicy = DEFAULT_POLICY) -> PartitionSeries:
    """Degree-k slice of the alternating sum of all syzygy series of the Segre.

    Built as a signed combination of exponentials of products of a one-row
    Schur symbol with power-sum elements; the degree-0 slice is the constant 1.
    """
    k = whole(k, "k")
    if k < 0:
        raise ValueError("k must be non-negative")
    if k == 0:
        return PartitionSeries.one(_checked_policy(policy))
    combo = []
    for p in range(k + 1):
        row = SymFunc.basis((k - p,)) if k - p else SymFunc.unit()
        for lam in partitions_of(p):
            data = class_data(lam)
            coeff = Fraction((-1) ** p * data.class_size * data.sign, factorial(p))
            combo.append((coeff, boxtimes(row, power_sum(lam))))
    return exp_combination(combo, policy)


def f_segre(p: int, policy: TruncationPolicy = DEFAULT_POLICY) -> PartitionSeries:
    """The p-syzygy series of the Segre embedding for p = 1, 2, 3.

    These are the values pinned down by the vanishing results for small p;
    beyond p = 3 the Euler characteristic no longer determines the series.
    """
    if p < 0:
        raise ValueError(f"p must be non-negative, got {p}")
    if p not in (1, 2, 3):
        raise UnsupportedError(f"closed form available only for p in {{1, 2, 3}}, got {p}")
    return euler_chi(p + 1, policy).scale((-1) ** p)


def f4_degree5(policy: TruncationPolicy = DEFAULT_POLICY) -> PartitionSeries:
    """Degree-5 part of the 4-syzygy series (the part the Euler slice determines)."""
    return euler_chi(5, policy)


def tensor_schur_series_closed(
    lam: Partition, policy: TruncationPolicy = DEFAULT_POLICY
) -> PartitionSeries:
    """Series of the Schur functor for lam applied to an n-fold tensor product,
    via the closed exponential formula."""
    lam = check_partition(lam)
    p = sum(lam)
    if p < 1:
        raise ValueError("lam must be a non-zero partition")
    table = character_table(p)
    combo = []
    for mu in partitions_of(p):
        size = class_data(mu).class_size
        coeff = Fraction(size * table.entry(lam, mu), factorial(p))
        combo.append((coeff, power_sum(mu)))
    return exp_combination(combo, policy)


def tensor_schur_series_recurrence(
    lam: Partition, policy: TruncationPolicy = DEFAULT_POLICY
) -> PartitionSeries:
    """Same series as the closed form, built from the Kronecker recurrence.

    The order-n vector x_n is 1/n times the Kronecker-matrix product of
    x_(n-1) with the degree-p variables; x_0 is supported at the one-row
    partition.  The coefficient of an order-n monomial is y_n[lam] over n!,
    with y_n = n! * x_n the integer vectors of `_kronecker_orders`, which
    every partition of p shares.
    """
    lam = check_partition(lam)
    p = sum(lam)
    if p < 1:
        raise ValueError("lam must be a non-zero partition")
    policy = _checked_policy(policy)
    result = {(): Fraction(1)} if lam == (p,) else {}
    for n, y in enumerate(_kronecker_orders(p, policy), 1):
        result.update((mono, Fraction(v, factorial(n))) for mono, v in y[lam].items())
    return PartitionSeries._trusted(policy, result)


@cache
def _kronecker_orders(p: int, policy: TruncationPolicy) -> tuple[dict, ...]:
    """The integer vectors y_1, ..., y_N of the tensor-Schur recurrence at size p.

    y_n[target] = sum of c * y_(n-1)[nu] * X_mu over the Kronecker
    coefficients c of (target, mu, nu), with y_0 the one-row partition.
    Kronecker coefficients are non-negative, so no entry cancels.  Each
    vector entry is a term dict of ints; every part has size p, so
    appending mu to a monomial and sorting keeps it canonical.  Memoized
    and shared by every partition of p: callers only read it.
    """
    labels = partitions_of(p)
    variables = labels if p <= policy.max_part_size else []
    current = {target: {(): 1} if target == (p,) else {} for target in labels}
    orders = []
    for _ in range(policy.max_order):
        step = {}
        for target in labels:
            acc = step[target] = {}
            for mu in variables:
                for nu in labels:
                    c = kronecker_coefficient(target, mu, nu)
                    if c:
                        for mono, v in current[nu].items():
                            key = tuple(sorted(mono + (mu,)))
                            acc[key] = acc.get(key, 0) + c * v
        orders.append(step)
        current = step
    return tuple(orders)


def lascoux_leading(p: int, d: int) -> PartitionSeries:
    """Order-two, degree-d slice of the p-syzygy series, at every p.

    Lascoux's resolution of the 2x2 minors (the rank-one determinantal
    variety) gives the whole order-two slice: pairs of partitions decorate
    an h-column, (h+1)-row rectangle, h = d - p; the slice vanishes unless
    1 <= h <= sqrt(p).
    """
    p, d = whole(p, "p"), whole(d, "d")
    if p < 1:
        raise ValueError("p must be positive")
    if d < 0:
        raise ValueError("d must be non-negative")
    policy = TruncationPolicy(max_order=2, max_part_size=max(d, 1))
    h = d - p
    if h <= 0 or h * h > p:
        return PartitionSeries.zero(policy)
    remainder = p - h * h
    terms: dict[Monomial, Fraction] = {}
    for a in range(remainder + 1):
        for alpha in partitions_of(a):
            if alpha and alpha[0] > h:
                continue  # alpha must fit in h columns
            for beta in partitions_of(remainder - a, max_rows=h):
                mu = _decorate_rectangle(h, beta, alpha)
                nu = _decorate_rectangle(h, conjugate(alpha), conjugate(beta))
                mono = canonical_monomial((mu, nu))
                terms[mono] = terms.get(mono, Fraction(0)) + Fraction(1, 2)
    return PartitionSeries(policy, terms)


def _decorate_rectangle(h: int, right: Partition, bottom: Partition) -> Partition:
    """Append a partition to the right edge and another below an h x (h+1) rectangle."""
    rows = [h + right[i] for i in range(len(right))]
    rows += [h] * (h + 1 - len(right))
    rows += list(bottom)
    return check_partition(rows)


def small_p_exponential_form(p: int) -> list[tuple[Fraction, SymFunc]]:
    """Exact exponential-combination data of the small-p syzygy series."""
    half = Fraction(1, 2)
    if p == 1:
        s = SymFunc.basis((2,))
        w = SymFunc.basis((1, 1))
        return [(half, s + w), (half, s - w), (Fraction(-1), s)]
    if p == 2:
        s = SymFunc.basis((3,))
        w = SymFunc.basis((1, 1, 1))
        t = SymFunc.basis((2, 1))
        third = Fraction(1, 3)
        return [
            (third, s + w + t.scale(2)),
            (-third, s + w - t),
            (Fraction(-1), s + t),
            (Fraction(1), s),
        ]
    if p == 3:
        s = SymFunc.basis((4,))
        w = SymFunc.basis((1, 1, 1, 1))
        a = SymFunc.basis((3, 1))
        b = SymFunc.basis((2, 2))
        c = SymFunc.basis((2, 1, 1))
        eighth = Fraction(1, 8)
        quarter = Fraction(1, 4)
        return [
            (eighth, s + w + a.scale(3) + b.scale(2) + c.scale(3)),
            (-eighth, s + w - a + b.scale(2) - c),
            (quarter, s - w - a + c),
            (-quarter, s - w + a - c),
            (half, s + b - c),
            (-half, s + a.scale(2) + b + c),
            (Fraction(1), s + a),
            (Fraction(-1), s),
        ]
    raise UnsupportedError(f"exponential form recorded only for p in {{1, 2, 3}}, got {p}")


def dimension_on_factors(series_star, dims, degree: int) -> int:
    """Dimension predicted by an order-normalized series on given factor sizes.

    Sums, over monomials with the order and degree, the coefficient times the
    average over all assignments of the monomial's partitions to the factors.
    Each partition's GL dimensions on the factors are computed once; the
    assignment sums are integers, and the total is one Fraction at the end,
    over the coefficients' common denominator times n!.
    """
    n = len(dims)
    on_factors: dict[Partition, list[int]] = {}
    coeffs, sums = [], []
    for mono, coeff in series_star.terms.items():
        if len(mono) != n or monomial_degree(mono) != degree:
            continue
        rows = []
        for part in mono:
            if part not in on_factors:
                on_factors[part] = [gl_dimension(part, m) for m in dims]
            rows.append(on_factors[part])
        perm_sum = sum(
            prod(rows[i][j] for j, i in enumerate(sigma)) for sigma in permutations(range(n))
        )
        if perm_sum:
            coeffs.append(coeff)
            sums.append(perm_sum)
    ints, den = integer_form(coeffs)
    total = Fraction(sum(map(mul, ints, sums)), den * factorial(n))
    if total.denominator != 1 or total < 0:
        raise ConsistencyError(f"series does not evaluate to a dimension: {total}")
    return int(total)


def series_to_json(a: PartitionSeries) -> list[dict]:
    out = []
    for mono in sorted(a.terms, key=lambda m: (len(m), m)):
        out.append(
            {
                "monomial": [list(lam) for lam in mono],
                "coeff": str(a.terms[mono]),
            }
        )
    return out


def series_from_json(data, policy: TruncationPolicy) -> PartitionSeries:
    items = (([check_partition(lam) for lam in item["monomial"]], item["coeff"]) for item in data)
    return PartitionSeries(policy, collect(items, canonical_monomial))
