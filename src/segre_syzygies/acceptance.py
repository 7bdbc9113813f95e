"""Self-verification suite: every acceptance check, exact, with time budgets.

Each criterion is a check declared once, with its number, name and time
budget, by `_criterion`; the registered function returns a CriterionResult.
run_all executes them in order and is shared by the command-line `verify`
subcommand and the test suite.  All comparisons are exact; the
per-criterion time limits are part of the contract.  Checks raise
AssertionError explicitly rather than through `assert`, so the gate still
fails under `python -O`, and format their messages only when they fail.  Any
other exception a check raises fails its criterion too, named by its type.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .characters import character_table, kronecker_coefficient, mn_character
from .koszul import koszul_homology, new_syzygy_dimension
from .partitions import compositions, dimension_sn, kostka, partitions_of
from .rationality import (
    MPoly,
    divides_up_to_unit,
    geometric_torus_coefficients,
    multinomial_sum_rational,
    rational_reconstruct,
    weyl_series,
)
from .series import (
    TruncationPolicy,
    canonical_monomial,
    dimension_on_factors,
    euler_chi,
    exp_combination,
    f4_degree5,
    f_segre,
    lascoux_leading,
    order_normalize,
    small_p_exponential_form,
    tensor_schur_series_closed,
    tensor_schur_series_recurrence,
)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float
    limit: float

    @property
    def in_budget(self) -> bool:
        return self.seconds < self.limit

    def line(self) -> str:
        status = "PASS" if self.passed and self.in_budget else "FAIL"
        note = self.detail if self.detail else ""
        if self.passed and not self.in_budget:
            note = f"over time budget ({self.seconds:.1f}s >= {self.limit:.0f}s)"
        suffix = f" -- {note}" if note else ""
        return f"{status} {self.number:02d} {self.name} ({self.seconds:.2f}s){suffix}"


def _run(number: int, name: str, limit: float, fn) -> CriterionResult:
    start = time.perf_counter()
    try:
        detail = fn() or ""
        passed = True
    except AssertionError as exc:
        detail = str(exc) or "assertion failed"
        passed = False
    except Exception as exc:  # a library call that raises fails its criterion
        detail = f"{type(exc).__name__}: {exc}"
        passed = False
    elapsed = time.perf_counter() - start
    return CriterionResult(number, name, passed, detail if not passed else "", elapsed, limit)


ALL_CRITERIA: list = []  # in order of definition, filled by `_criterion`


def _criterion(number: int, name: str, limit: float):
    """Register a check as criterion `number`: the registered function runs
    it under `_run` and keeps the check's name."""

    def register(check):
        @functools.wraps(check)
        def criterion() -> CriterionResult:
            return _run(number, name, limit, check)

        ALL_CRITERIA.append(criterion)
        return criterion

    return register


def _check(condition, message: str, *args) -> None:
    """Raise AssertionError with message formatted by args if condition fails.

    The message is formatted only on failure, so a check in a loop builds
    no string while it passes.
    """
    if not condition:
        raise AssertionError(message.format(*args))


S2 = (2,)
W2 = (1, 1)


@_criterion(1, "exponential-form-p1", 1.0)
def criterion_1():
    policy = TruncationPolicy(5, 4)
    _check(
        exp_combination(small_p_exponential_form(1), policy) == f_segre(1, policy),
        "exponential form and Euler slice disagree for p=1",
    )


@_criterion(2, "f1-star-expansion", 1.0)
def criterion_2():
    star = order_normalize(f_segre(1, TruncationPolicy(4, 2)))
    mono = canonical_monomial
    _check(star.order_component(2).terms == {mono((W2, W2)): Fraction(1)}, "order 2")
    _check(star.order_component(3).terms == {mono((S2, W2, W2)): Fraction(3)}, "order 3")
    expected = {mono((S2, S2, W2, W2)): Fraction(6), mono((W2, W2, W2, W2)): Fraction(1)}
    _check(star.order_component(4).terms == expected, "order 4")


@_criterion(3, "exponential-forms-p2-p3", 30.0)
def criterion_3():
    policy = TruncationPolicy(5, 5)
    _check(
        exp_combination(small_p_exponential_form(2), policy) == euler_chi(3, policy),
        "p=2 exponential form disagrees with the degree-3 Euler slice",
    )
    _check(
        exp_combination(small_p_exponential_form(3), policy)
        == euler_chi(4, policy).scale(-1),
        "p=3 exponential form disagrees with minus the degree-4 Euler slice",
    )


@_criterion(4, "lascoux-leading-term", 60.0)
def criterion_4():
    for p in (1, 2, 3):
        policy = TruncationPolicy(2, 2 * p + 1)
        series = f_segre(p, policy)
        for d in range(0, 2 * p + 2):
            lhs = lascoux_leading(p, d)
            rhs = series.degree_slice(d, order=2)
            _check(lhs == rhs, "order-two slice mismatch at p={}, d={}", p, d)
    lhs = lascoux_leading(4, 5)
    rhs = f4_degree5(TruncationPolicy(2, 5)).degree_slice(5, order=2)
    _check(lhs == rhs, "order-two slice mismatch at p=4, d=5")


@_criterion(5, "oracle-ground-truth", 10.0)
def criterion_5():
    r = koszul_homology((2, 2), 1, 2)
    _check(r.dimension == 1 and r.decomposition == {((1, 1), (1, 1)): 1}, "(2,2) p=1 d=2")
    r = koszul_homology((2, 2, 2), 1, 2)
    expected = {
        ((2,), (1, 1), (1, 1)): 1,
        ((1, 1), (2,), (1, 1)): 1,
        ((1, 1), (1, 1), (2,)): 1,
    }
    _check(r.dimension == 9 and r.decomposition == expected, "(2,2,2) p=1 d=2")
    for d in (3, 4):
        _check(koszul_homology((2, 2), 1, d).dimension == 0, "(2,2) p=1 d={}", d)


def _support_grid():
    for p in (1, 2):
        for n in (1, 2, 3):
            for dims in itertools.product((1, 2), repeat=n):
                yield p, dims


@_criterion(6, "degree-support-sweep", 120.0)
def criterion_6():
    for p, dims in _support_grid():
        for d in range(0, 2 * p + 3):
            if p + 1 <= d <= 2 * p:
                continue
            r = koszul_homology(dims, p, d)
            _check(r.dimension == 0, "non-zero outside support: {} p={} d={}", dims, p, d)


@_criterion(7, "series-oracle-agreement", 120.0)
def criterion_7():
    stars = {
        p: order_normalize(f_segre(p, TruncationPolicy(3, 2 * p))) for p in (1, 2)
    }
    for p, dims in _support_grid():
        for d in range(p + 1, 2 * p + 1):
            predicted = dimension_on_factors(stars[p], dims, d)
            actual = koszul_homology(dims, p, d).dimension
            _check(
                predicted == actual,
                "series predicts {}, oracle finds {} at {} p={} d={}",
                predicted, actual, dims, p, d,
            )


@_criterion(8, "cosocle-new-syzygies", 300.0)
def criterion_8():
    dim, decomp = new_syzygy_dimension((2, 2), 1, 2)
    _check(dim == 1 and decomp == {((1, 1), (1, 1)): 1}, "(2,2) p=1 d=2")
    dim, _ = new_syzygy_dimension((2, 2, 2), 1, 2)
    _check(dim == 0, "(2,2,2) p=1 d=2")
    dim, _ = new_syzygy_dimension((2, 2, 3), 2, 3)
    _check(dim == 0, "(2,2,3) p=2 d=3")


@_criterion(9, "tensor-schur-two-sided", 30.0)
def criterion_9():
    policy = TruncationPolicy(4, 3)
    for p in (1, 2, 3):
        for lam in partitions_of(p):
            closed = tensor_schur_series_closed(lam, policy)
            recur = tensor_schur_series_recurrence(lam, policy)
            _check(closed == recur, "two-sided mismatch at {}", lam)


@_criterion(10, "character-infrastructure", 30.0)
def criterion_10():
    for p in range(1, 7):
        character_table(p)  # constructor validates orthonormality
    for p in range(1, 6):
        labels = partitions_of(p)
        for lam in labels:
            for mu in labels:
                for nu in labels:
                    base = kronecker_coefficient(lam, mu, nu)
                    for perm in itertools.permutations((lam, mu, nu)):
                        _check(
                            kronecker_coefficient(*perm) == base,
                            "Kronecker symmetry broken at {}, {}, {}",
                            lam, mu, nu,
                        )
    for n in range(1, 8):
        identity = (1,) * n
        for lam in partitions_of(n):
            _check(
                mn_character(lam, identity) == dimension_sn(lam) == kostka(lam, identity),
                "character at the identity or Kostka number of content 1^n"
                " disagrees with hook dimension at {}",
                lam,
            )


def _direct_monomial_sums(expos, shifts, d, nterms) -> dict[tuple, dict[tuple, list[int]]]:
    """For each shift e and each monomial k^expo, the first nterms
    coefficients of sum_k k^expo C_{k+e} t^{|k|}, by brute force on exact
    ints, one column per quantity over the k of each total n.

    The k of total n are listed once and transposed into one column per
    coordinate.  A monomial's values are the product of its coordinates'
    power columns.  Each (coordinate i, shift value s) pair has one column
    of (k_i + s)!, 0 where k_i + s < 0, shared by every shift with e_i = s.
    C_{k+e} is then the exact quotient (n + |e|)! // q over the product q
    of e's factorial columns, 0 where q is 0 (a negative entry), and each
    coefficient is one dot product of that column with a value column.
    Every factorial comes from one table.
    """
    monomials = list(dict.fromkeys(expos))
    sums = {e: {expo: [0] * nterms for expo in monomials} for e in shifts}
    top = nterms + max([0, *(sum(e) for e in sums), *(s for e in sums for s in e)])
    fact = list(itertools.accumulate(range(1, top), mul, initial=1))  # fact[m] = m!

    powered = {(i, x) for expo in monomials for i, x in enumerate(expo) if x}
    shifted = {(i, s) for e in sums for i, s in enumerate(e)}

    def times(columns, ones):
        return functools.reduce(lambda a, b: list(map(mul, a, b)), columns, ones)

    for n in range(nterms):
        ks = list(compositions(n, d))
        ones = [1] * len(ks)
        coords = list(zip(*ks))
        powers = {(i, x): [k**x for k in coords[i]] for i, x in powered}
        values = {
            expo: times([powers[i, x] for i, x in enumerate(expo) if x], ones)
            for expo in monomials
        }
        factorials = {
            (i, s): [fact[k + s] if k + s >= 0 else 0 for k in coords[i]] for i, s in shifted
        }
        for e, columns in sums.items():
            if n + sum(e) < 0:  # every k + e has a negative entry
                continue
            whole = fact[n + sum(e)]
            q = times([factorials[i, s] for i, s in enumerate(e)], ones)
            c = [whole // x if x else 0 for x in q]
            for expo, column in columns.items():
                column[n] = sum(map(mul, c, values[expo]))
    return sums


@_criterion(11, "multinomial-sum-closed-forms", 10.0)
def criterion_11():
    one_t = multinomial_sum_rational(1, (0,), 1)
    _check(one_t.num == [Fraction(1)] and one_t.den == [Fraction(1), Fraction(-1)], "1/(1-t)")
    two_t = multinomial_sum_rational(1, (0, 0), 2)
    _check(
        two_t.num == [Fraction(1)] and two_t.den == [Fraction(1), Fraction(-2)],
        "1/(1-2t)",
    )
    k1 = multinomial_sum_rational({(1,): 1}, (0,), 1)
    _check(
        k1.num == [Fraction(0), Fraction(1)]
        and k1.den == [Fraction(1), Fraction(-2), Fraction(1)],
        "t/(1-t)^2",
    )
    for d in (1, 2, 3):
        monomials = [(0,) * d]
        monomials += [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
        monomials += [
            tuple((1 if j == i else 0) + (1 if j == k else 0) for j in range(d))
            for i in range(d)
            for k in range(i, d)
        ]
        shifts = list(itertools.product((-2, 0, 2), repeat=d))
        direct = _direct_monomial_sums(monomials, shifts, d, 10)
        for e in shifts:
            for expo in monomials:
                closed = multinomial_sum_rational({expo: 1}, e, d)
                _check(
                    closed.coefficients(10) == direct[e][expo],
                    "re-expansion mismatch at d={}, e={}, monomial={}",
                    d, e, expo,
                )


def star_polynomial_coefficients(p: int, n_terms: int) -> list[MPoly]:
    """Order-graded coefficients of the normalized p-syzygy series, in one
    variable per partition of p + 1 (for p = 1, s and w: QQ[s,w])."""
    index = {lam: i for i, lam in enumerate(partitions_of(p + 1))}
    star = order_normalize(f_segre(p, TruncationPolicy(n_terms - 1, p + 1)))
    out = []
    for n in range(n_terms):
        terms = {}
        for mono, c in star.order_component(n).terms.items():
            expo = [0] * len(index)
            for lam in mono:
                expo[index[lam]] += 1
            terms[tuple(expo)] = c
        out.append(MPoly(len(index), terms))
    return out


@_criterion(12, "rational-reconstruction-f1", 10.0)
def criterion_12():
    s, w = MPoly.variable(2, 0), MPoly.variable(2, 1)
    coeffs = star_polynomial_coefficients(1, 8)
    rec = rational_reconstruct(coeffs, 3)
    _check(rec is not None, "no rational function found")
    _check(rec.coefficients(8) == coeffs, "re-expansion disagrees with the data")
    one = MPoly.constant(2, 1)
    lin = [one, -s]
    quad = [one, -2 * s, s * s - w * w]
    target = [MPoly(2)] * 4
    for i, a in enumerate(lin):
        for j, b in enumerate(quad):
            target[i + j] = target[i + j] + a * b
    _check(
        divides_up_to_unit(rec.den, target),
        "denominator does not divide the closed-form denominator",
    )


@_criterion(13, "weyl-constant-term", 5.0)
def criterion_13():
    for d in (1, 2, 3):
        coeffs = geometric_torus_coefficients(d, 5)
        values = weyl_series(d, coeffs, 5)
        _check(values == [Fraction(1)] * 5, "constant-term pairing wrong at d={}", d)


def run_all() -> list[CriterionResult]:
    return [fn() for fn in ALL_CRITERIA]
