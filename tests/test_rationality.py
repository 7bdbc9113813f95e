import itertools
import random
from decimal import Decimal
from fractions import Fraction
from math import prod

import pytest

from segre_syzygies.acceptance import star_polynomial_coefficients
from segre_syzygies.errors import ConsistencyError, UnsupportedError
from segre_syzygies.partitions import partitions_of
from segre_syzygies.rationality import (
    MPoly,
    PoleFraction,
    RationalFunction,
    _expanded_denominator,
    _monomial_sum,
    discriminant_squared,
    divides_up_to_unit,
    geometric_torus_coefficients,
    multinomial_sum_rational,
    rational_reconstruct,
    weyl_series,
)
from segre_syzygies.schur_ring import SymFunc
from segre_syzygies.series import TruncationPolicy, exp_combination, small_p_exponential_form

from reference import direct_multinomial_sum


def test_rational_function_basics():
    f = RationalFunction([1], [1, -1])
    assert f.coefficients(4) == [1, 1, 1, 1]
    g = RationalFunction([0, 1], [1, -2, 1])
    assert g.coefficients(5) == [0, 1, 2, 3, 4]
    # reduction: (1 - t^2)/(1 - t) is a polynomial
    h = RationalFunction([1, 0, -1], [1, -1])
    assert h.num == [Fraction(1), Fraction(1)] and h.den == [Fraction(1)]


def test_zero_function_has_unit_denominator():
    assert RationalFunction([], [1, -2]).den == [Fraction(1)]
    assert RationalFunction([0, 0], [1, 0, 3]).den == [Fraction(1)]
    assert RationalFunction([], [0, 1]).den == [Fraction(1)]
    zero = multinomial_sum_rational({(1, 0): 1, (0, 1): -1}, (0, 0), 2)
    assert zero.num == [] and zero.den == [Fraction(1)]


def test_pole_fraction_arithmetic():
    f = PoleFraction([1], {1: 1})  # 1/(1 - t)
    g = PoleFraction([0, 1], {1: 2})  # t/(1 - t)^2
    assert g.shift(-1) == PoleFraction([1], {1: 2})
    assert f.euler_operator() == g
    assert f.to_rational() == RationalFunction([1], [1, -1])
    assert g.to_rational() == RationalFunction([0, 1], [1, -2, 1])
    # reduction: (1 - t^2)/(1 - t) is a polynomial
    h = PoleFraction([1, 0, -1], {1: 1}).to_rational()
    assert h.num == [Fraction(1), Fraction(1)] and h.den == [Fraction(1)]
    # a pole that cancels only in part: (1 - t)/(1 - t)^3
    assert PoleFraction([1, -1], {1: 3}).to_rational() == RationalFunction([1], [1, -2, 1])
    assert PoleFraction([1], {0: 2}).to_rational().den == [Fraction(1)]  # 1 - 0 t is no pole
    # sums take the larger exponent per pole: 1/(1 - t) + 1/(1 - 2t)^2
    s = (f + PoleFraction([1], {2: 2})).to_rational()
    assert s.den == [1, -5, 8, -4]
    assert s.coefficients(6) == [1 + (n + 1) * 2**n for n in range(6)]
    assert f - f == PoleFraction([]) and (f - f).to_rational().den == [Fraction(1)]
    # t d/dt multiplies the n-th coefficient by n, over several poles
    x = PoleFraction([2, Fraction(-1, 3), 5], {1: 2, 3: 1})
    coeffs = x.to_rational().coefficients(8)
    assert x.euler_operator().to_rational().coefficients(8) == [
        n * c for n, c in enumerate(coeffs)
    ]


def test_rational_function_errors():
    with pytest.raises(ValueError):
        RationalFunction([1], [0, 1])  # 1/t is not a power series
    with pytest.raises(ValueError):
        PoleFraction([1, 1]).shift(-1)


def test_multinomial_sum_rejects_a_negative_exponent():
    for poly in ({(-1,): 1}, MPoly(1, {(2,): 1, (-1,): Fraction(1, 2)})):
        with pytest.raises(ValueError, match="non-negative"):
            multinomial_sum_rational(poly, (0,), 1)


def test_multinomial_sum_rejects_a_fractional_shift():
    with pytest.raises(ValueError, match="integer"):
        multinomial_sum_rational(1, (1.5,), 1)
    assert multinomial_sum_rational(1, (1.0,), 1) == multinomial_sum_rational(1, (1,), 1)


def test_a_whole_float_variable_count_is_its_int():
    # d = 1.0 keys the sum cache as d = 1 does, so it must not store float poles
    _monomial_sum.cache_clear()
    with pytest.raises(ValueError, match="integer"):
        multinomial_sum_rational({(1,): 1}, (0,), 1.5)
    for d in (1.0, 1):
        f = multinomial_sum_rational({(1,): 1}, (0,), d)
        assert f.num == [0, 1] and f.den == [1, -2, 1]
        assert all(type(c) is Fraction for c in f.num + f.den)
        assert all(type(a) is int for a in _monomial_sum((1,), (0,), 1).poles)


def test_coefficients_must_be_exact_numbers():
    # a float is a binary approximation: only a whole-number one is taken, as its int
    with pytest.raises(ValueError, match="0.1"):
        MPoly(1, {(1,): 0.1})
    assert MPoly(1, {(1,): 2.0}) == MPoly(1, {(1,): 2}) and str(MPoly(1, {(1,): 2.0})) == "2*s"
    assert str(MPoly(1, {(1,): "1/2"})) == "1/2*s"
    for bad in (0.5, Decimal("0.5"), 1j):
        with pytest.raises(ValueError, match="integer or a Fraction"):
            multinomial_sum_rational(bad, (0,), 1)
    assert multinomial_sum_rational(2.0, (0,), 1) == multinomial_sum_rational(2, (0,), 1)
    with pytest.raises(ValueError, match="0.5"):
        RationalFunction([0.5])
    assert RationalFunction([1.0], [1, -1.0]).den == [1, -1]
    with pytest.raises(ValueError, match="0.25"):
        SymFunc({(1,): 0.25})
    with pytest.raises(ValueError, match="0.1"):
        MPoly.variable(1, 0).scale(0.1)
    with pytest.raises(ValueError, match="0.1"):
        exp_combination([(0.1, SymFunc.basis((2,)))], TruncationPolicy(1, 2))


def test_negative_shift_of_an_unused_variable_lifts_to_a_power_of_t():
    # k_2 >= s is forced, so the sum is t^s times the sum at shift 0
    poly = {(2, 0, 1): Fraction(3, 2), (0, 0, 1): -1}
    flat = multinomial_sum_rational(poly, (1, 0, -1), 3)
    for s in (1, 2, 3):
        lifted = multinomial_sum_rational(poly, (1, -s, -1), 3)
        assert lifted.num == [0] * s + flat.num and lifted.den == flat.den
        assert lifted.coefficients(12) == [0] * s + flat.coefficients(12 - s)


def test_permuted_twin_adds_no_cache_miss():
    _monomial_sum.cache_clear()
    first = multinomial_sum_rational({(2, 1, 0): 1}, (1, -2, 3), 3)
    misses = _monomial_sum.cache_info().misses
    twin = multinomial_sum_rational({(0, 2, 1): 1}, (3, 1, -2), 3)
    assert _monomial_sum.cache_info().misses == misses
    assert (twin.num, twin.den) == (first.num, first.den)


def test_coefficients_reject_negative_term_count():
    f = RationalFunction([1], [1, -1])
    assert f.coefficients(0) == []
    with pytest.raises(ValueError, match="non-negative"):
        f.coefficients(-1)
    s = MPoly.variable(1, 0)
    with pytest.raises(ValueError, match="non-negative"):
        RationalFunction([1], [1, -s]).coefficients(-3)


def fraction_coefficients(rf, n):
    """The series coefficients by the plain Fraction recurrence."""
    out = []
    for k in range(n):
        value = rf.num[k] if k < len(rf.num) else Fraction(0)
        for i in range(1, min(k, len(rf.den) - 1) + 1):
            value = value - rf.den[i] * out[k - i]
        out.append(value)
    return out


def test_coefficients_of_sums_match_the_fraction_recurrence():
    # a seeded sample of criterion 11's grid, with fractional coefficients
    rng = random.Random(11)
    grid = []
    for d in (1, 2, 3):
        monomials = [(0,) * d] + [tuple(int(j == i) for j in range(d)) for i in range(d)]
        monomials += [
            tuple(int(j == i) + int(j == k) for j in range(d))
            for i in range(d)
            for k in range(i, d)
        ]
        grid += [(d, e, x) for e in itertools.product((-2, 0, 2), repeat=d) for x in monomials]
    for d, e, expo in rng.sample(grid, 40):
        poly = {expo: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))}
        f = multinomial_sum_rational(poly, e, d)
        got = f.coefficients(10)
        assert got == fraction_coefficients(f, 10), (d, e, expo)
        assert all(type(c) is Fraction for c in got)
        got[0] = None  # the returned list is the caller's own
        assert f.coefficients(10) == fraction_coefficients(f, 10)


def test_pole_denominators_are_expanded_once():
    _expanded_denominator.cache_clear()
    first = PoleFraction([1, Fraction(1, 2)], {1: 2, 2: 1}).to_rational()
    misses = _expanded_denominator.cache_info().misses
    second = PoleFraction([3, 0, Fraction(-2, 7)], {2: 1, 1: 2}).to_rational()
    assert _expanded_denominator.cache_info().misses == misses
    assert first.den == second.den == [1, -4, 5, -2]
    # each value owns its lists
    first.den[1] = 0
    assert second.den[1] == -4
    assert PoleFraction([1], {1: 2, 2: 1}).to_rational().den == [1, -4, 5, -2]


def test_a_rational_function_holds_one_copy_of_its_value():
    # num and den build fresh lists: an edit to them changes no value, and
    # a function made of the edited lists expands as edited
    f = RationalFunction([1], [1, -1])
    assert f.coefficients(4) == [1, 1, 1, 1]
    den = f.den
    den[1] = Fraction(-2)
    assert f.den == [1, -1] and f.coefficients(4) == [1, 1, 1, 1]
    assert RationalFunction(f.num, den).coefficients(4) == [1, 2, 4, 8]
    g = multinomial_sum_rational(1, (0,), 1)
    num = g.num
    num[0] = 5
    assert g.num == [1] and g.coefficients(3) == [1, 1, 1]
    assert RationalFunction(num, g.den).coefficients(3) == [5, 5, 5]
    with pytest.raises(AttributeError):
        f.num = [2]


def test_coefficients_over_q_with_fractional_denominator():
    # den = B/E with E = 15 > 1: the integer recurrence carries powers of E
    f = RationalFunction([1, Fraction(1, 2)], [1, Fraction(-1, 3), Fraction(2, 5)])
    assert f.den == [1, Fraction(-1, 3), Fraction(2, 5)]
    got = f.coefficients(12)
    assert got == fraction_coefficients(f, 12)
    assert all(type(c) is Fraction for c in got)
    assert got[:3] == [1, Fraction(5, 6), Fraction(-11, 90)]
    assert f.coefficients(0) == []
    zero = RationalFunction([], [1, Fraction(-1, 3)])
    assert zero.coefficients(4) == [0] * 4
    assert all(type(c) is Fraction for c in zero.coefficients(4))


def test_sumlem_base_instances():
    f = multinomial_sum_rational(1, (0,), 1)
    assert f.num == [Fraction(1)] and f.den == [Fraction(1), Fraction(-1)]
    f = multinomial_sum_rational(1, (0, 0), 2)
    assert f.num == [Fraction(1)] and f.den == [Fraction(1), Fraction(-2)]
    f = multinomial_sum_rational({(1,): 1}, (0,), 1)
    assert f.num == [Fraction(0), Fraction(1)]
    assert f.den == [Fraction(1), Fraction(-2), Fraction(1)]


def test_sumlem_matches_direct_summation():
    for d in (1, 2, 3):
        monomials = [(0,) * d]
        monomials += [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]
        monomials += [
            tuple((1 if j == i else 0) + (1 if j == k else 0) for j in range(d))
            for i in range(d)
            for k in range(i, d)
        ]
        for e in itertools.product((-2, -1, 0, 1, 2), repeat=d):
            for expo in monomials[: 1 + d + 1]:
                poly = {expo: Fraction(1)}
                closed = multinomial_sum_rational(poly, e, d)
                assert closed.coefficients(10) == direct_multinomial_sum(poly, e, d, 10), (d, e, expo)


def test_sumlem_mixed_polynomial():
    poly = {(2, 0): Fraction(1, 3), (1, 1): Fraction(-2), (0, 0): Fraction(5)}
    e = (1, -2)
    closed = multinomial_sum_rational(poly, e, 2)
    assert closed.coefficients(12) == direct_multinomial_sum(poly, e, 2, 12)


def test_sumlem_large_shifts():
    # shifts beyond 2 exercise the higher-degree boundary expansions
    for d, e in [(2, (4, 3)), (3, (3, -2, 4)), (2, (-4, 5)), (1, (6,))]:
        for poly in [
            {(0,) * d: Fraction(1)},
            {tuple(2 if i == 0 else 0 for i in range(d)): Fraction(1, 3)},
        ]:
            closed = multinomial_sum_rational(poly, e, d)
            assert closed.coefficients(12) == direct_multinomial_sum(poly, e, d, 12), (d, e)


def poles_up_to(d, k):
    """The product over a = 1..d of (1 - a t)^k, as a coefficient list."""
    product = [1]
    for a in range(1, d + 1):
        for _ in range(k):
            product = [x - a * y for x, y in zip(product + [0], [0] + product)]
    return product


def constant_term(x):
    """The coefficient of the trivial character."""
    return x.terms.get((0,) * x.nvars, 0)


def test_sumlem_pole_locations():
    for d in (1, 2, 3):
        for e in itertools.product((-1, 0, 2), repeat=d):
            for expo in [(0,) * d, (1,) + (0,) * (d - 1)]:
                closed = multinomial_sum_rational({expo: 1}, e, d)
                k = len(closed.den) - 1
                assert divides_up_to_unit(closed.den, poles_up_to(d, k)), (d, e, expo)


def test_pole_factors_reject_unexpected_denominator():
    # 1 + t^2 has no factor 1 - a t with a real, let alone a in 1..d
    assert not divides_up_to_unit(RationalFunction([1], [1, 0, 1]).den, poles_up_to(2, 2))


def test_torus_constant_term():
    assert constant_term(MPoly.constant(2, 1)) == 1
    assert constant_term(MPoly(2, {(1, -1): 1})) == 0
    x = MPoly(2, {(1, 0): 1, (0, 1): -1})
    xbar = MPoly(2, {(-1, 0): 1, (0, -1): -1})
    assert constant_term(x * xbar) == 2
    assert constant_term(discriminant_squared(2)) == 2


def test_torus_constant_term_linearity_and_orthogonality():
    a = MPoly(3, {(1, 0, -1): Fraction(2, 3)})
    b = MPoly(3, {(0, 0, 0): Fraction(7)})
    assert constant_term(a + b) == constant_term(a) + constant_term(b)
    for e1 in [(1, 0, 0), (1, -1, 0), (2, 1, -1)]:
        m1 = MPoly(3, {e1: 1})
        neg = MPoly(3, {tuple(-x for x in e1): 1})
        assert constant_term(m1 * neg) == 1
        other = MPoly(3, {(0, 1, 0): 1})
        assert constant_term(m1 * other) == (
            1 if tuple(x + y for x, y in zip(e1, (0, 1, 0))) == (0, 0, 0) else 0
        )


def test_weyl_series_exponential_module():
    for d in (1, 2, 3):
        coeffs = geometric_torus_coefficients(d, 5)
        assert weyl_series(d, coeffs, 5) == [Fraction(1)] * 5


def test_weyl_series_fractional_coefficients():
    for d in (1, 2, 3):
        third = [c.scale(Fraction(1, 3)) for c in geometric_torus_coefficients(d, 5)]
        assert weyl_series(d, third, 5) == [Fraction(1, 3)] * 5
    # the Schur characters of degree 3 in 3 variables pair to the numbers of
    # standard tableaux, 1, 2 and 1; the products with the discriminant
    # have negative coefficients on non-negative monomials here
    schur = {
        (3,): {e: 1 for e in itertools.product(range(4), repeat=3) if sum(e) == 3},
        (2, 1): {e: 1 for e in itertools.permutations((2, 1, 0))} | {(1, 1, 1): 2},
        (1, 1, 1): {(1, 1, 1): 1},
    }
    for lam, tableaux in [((3,), 1), ((2, 1), 2), ((1, 1, 1), 1)]:
        coeff = MPoly(3, schur[lam]).scale(Fraction(1, 3))
        assert weyl_series(3, [MPoly(3)] * 3 + [coeff], 4)[3] == Fraction(tableaux, 3)


def test_weyl_series_rejects_a_coefficient_that_is_no_polynomial():
    with pytest.raises(ValueError, match="MPoly"):
        weyl_series(2, [MPoly(2, {(0, 0): 1}), 5], 2)
    with pytest.raises(ValueError, match="torus coefficient arity mismatch"):
        weyl_series(2, [MPoly(1, {(0,): 1})], 1)


def test_weyl_series_finite_module():
    one = [MPoly.constant(1, 1), MPoly(1), MPoly(1)]
    assert weyl_series(1, one, 3) == [Fraction(1), Fraction(0), Fraction(0)]
    assert weyl_series(1, one, 0) == []
    with pytest.raises(ValueError, match="non-negative"):
        weyl_series(1, one, -1)


def doubled_torus_coeffs(d, n_terms):
    # equivariant coefficients of a polynomial algebra with every torus
    # character doubled (a rank-two generator space)
    out = []
    for n in range(n_terms):
        terms = {}
        for v in itertools.product(range(n + 1), repeat=d):
            if sum(v) == n:
                terms[v] = prod(x + 1 for x in v)
        out.append(MPoly(d, terms))
    return out


def test_weyl_series_rank_two_generators():
    # faithful once the torus rank reaches the row bound: dimensions 2^n
    for d in (2, 3):
        got = weyl_series(d, doubled_torus_coeffs(d, 5), 5)
        assert got == [Fraction(2**n) for n in range(5)]
    # at rank one the two-row constituents are invisible: 1, 2, 3, ...
    assert weyl_series(1, doubled_torus_coeffs(1, 5), 5) == [
        Fraction(n + 1) for n in range(5)
    ]


def test_reconstruct_all_ones():
    rec = rational_reconstruct([Fraction(1)] * 4, 1)
    assert rec.num == [Fraction(1)] and rec.den == [Fraction(1), Fraction(-1)]


def test_reconstruct_fibonacci():
    rec = rational_reconstruct([1, 1, 2, 3, 5, 8], 2)
    assert rec.num == [Fraction(1)]
    assert rec.den == [Fraction(1), Fraction(-1), Fraction(-1)]


def test_reconstruct_with_fractional_recurrence():
    # generic integer data: the Hankel determinant 5^2 - 3 * 7 = 4 is not a
    # unit, so the recurrence coefficients 1/2 and 3/2 are not integers
    data = [1, 2, 3, 5, 7, 11]
    rec = rational_reconstruct(data, 2)
    assert rec.den == [1, Fraction(-1, 2), Fraction(-3, 2)]
    assert rec.num == [1, Fraction(3, 2), Fraction(1, 2), Fraction(1, 2)]
    assert rec.coefficients(6) == data


def test_reconstruct_insufficient_data():
    with pytest.raises(ValueError):
        rational_reconstruct([1, 1, 1], 1)


def test_reconstruct_takes_a_whole_number_degree_only():
    for n in (4, 6):
        with pytest.raises(ValueError, match="integer"):
            rational_reconstruct([1] * n, 1.5)
    rec = rational_reconstruct([1] * 4, 1.0)
    assert rec.num == [1] and rec.den == [1, -1]


def test_reconstruct_none_when_tail_fits_no_recurrence():
    data = [0, 0, 0, 0, 0, 0, 1, 1]
    assert rational_reconstruct(data, 2) is None


def test_reconstruct_absorbs_transient_into_numerator():
    # data with an arbitrary prefix and a genuinely recurrent tail still fits,
    # with the transient carried by the numerator
    data = [9, -4, 7, 1, 1, 1, 1, 1]
    rec = rational_reconstruct(data, 3)
    assert rec is not None
    assert rec.den == [Fraction(1), Fraction(-1)]
    assert rec.coefficients(8) == [Fraction(x) for x in data]


def test_reconstruct_round_trip_random():
    rng = random.Random(20240817)
    for _ in range(25):
        m = rng.randint(1, 3)
        den = [Fraction(1)] + [Fraction(rng.randint(-3, 3)) for _ in range(m)]
        while not den[-1]:
            den[-1] = Fraction(rng.randint(-3, 3))
        num = [Fraction(rng.randint(-4, 4)) for _ in range(rng.randint(1, m + 1))]
        if not any(num):
            num = [Fraction(1)]
        original = RationalFunction(num, den)
        data = original.coefficients(2 * 3 + 2)
        rec = rational_reconstruct(data, 3)
        assert rec is not None
        assert rec == original
        # lowest terms rest on the minimal degree, not on a GCD pass
        assert rec.num == original.num and rec.den == original.den


def test_mpoly_arithmetic():
    s, w = MPoly.variable(2, 0), MPoly.variable(2, 1)
    p = (s + w) * (s - w)
    assert p == s * s - w * w
    assert (p * p).exact_div(p) == p
    assert p.exact_div(s + 1) is None
    assert str(s * s - w * w) in ("s^2 - w^2", "-w^2 + s^2")
    # torus characters: every exponent other than one is printed
    assert str(MPoly(1, {(-1,): 1})) == "s^-1"
    assert str(MPoly(2, {(-2, 1): 3})) == "3*s^-2*w"


def fraction_product(p, q):
    """The product's terms by a plain Fraction double loop."""
    out = {}
    for e1, c1 in p.terms.items():
        for e2, c2 in q.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c}


def test_mpoly_products_match_the_fraction_double_loop():
    s, w = MPoly.variable(2, 0), MPoly.variable(2, 1)
    half, third = Fraction(1, 2), Fraction(1, 3)
    # cross terms cancel to zero
    p, q = s * half + w * third, s * half - w * third
    assert (p * q).terms == fraction_product(p, q) == {(2, 0): Fraction(1, 4), (0, 2): Fraction(-1, 9)}
    assert p * MPoly(2) == MPoly(2)
    rng = random.Random(77)
    for _ in range(20):
        p, q = (
            MPoly(
                2,
                {
                    (rng.randint(-2, 3), rng.randint(-2, 3)): Fraction(rng.randint(-5, 5), rng.randint(1, 6))
                    for _ in range(rng.randint(1, 6))
                },
            )
            for _ in range(2)
        )
        product = p * q
        assert product.terms == fraction_product(p, q)
        assert all(type(c) is Fraction for c in product.terms.values())


def test_mpoly_rejects_fractional_exponents():
    with pytest.raises(ValueError, match="integer"):
        MPoly(1, {(Fraction(5, 2),): 1})
    assert MPoly(1, {(Fraction(4, 2),): 1}) == MPoly(1, {(2,): 1})


def test_mpoly_floor_division_is_exact_or_faults():
    s, w = MPoly.variable(2, 0), MPoly.variable(2, 1)
    p = (s + w) * (s - w)
    assert p // (s + w) == s - w
    assert (2 * s) // 2 == s
    with pytest.raises(ConsistencyError):
        p // (s + 1)


def test_non_polynomial_results_are_unsupported():
    # the minimal denominator 1 - t/s and the unit s in den[0] both need
    # 1/s, which has no polynomial representation
    s, one = MPoly.variable(1, 0), MPoly.constant(1, 1)
    with pytest.raises(UnsupportedError):
        rational_reconstruct([one, one, s, one], 1)
    with pytest.raises(UnsupportedError):
        RationalFunction([s], [s, 1])
    # a constant den[0] is a unit of the polynomials
    f = RationalFunction([s], [2 * one, -s])
    assert f.num == [s * Fraction(1, 2)] and f.den == [one, s * Fraction(-1, 2)]


def test_reconstruct_polynomial_coefficients():
    s, w = MPoly.variable(2, 0), MPoly.variable(2, 1)
    # expand w^2 t^2 / ((1-st)((1-st)^2 - w^2 t^2)) and reconstruct it
    one = MPoly.constant(2, 1)
    den = [one, -3 * s, 3 * s * s - w * w, s * w * w - s * s * s]
    num = [MPoly(2), MPoly(2), w * w]
    original = RationalFunction(num, den)
    data = original.coefficients(8)
    rec = rational_reconstruct(data, 3)
    assert rec is not None
    assert rec.coefficients(8) == data
    assert rec.num == num[:3] or rec.num[:3] == [MPoly(2), MPoly(2), w * w]
    assert rec.den == den
    assert divides_up_to_unit(rec.den, den)


def test_reconstruct_f2_star():
    # the order-graded coefficients of f_2* in QQ[X_(3), X_(2,1), X_(1,1,1)]
    # come from four exponentials, so their denominator is prod (1 - l_i t)
    # over the four linear forms l_i of the exponential form
    coeffs = star_polynomial_coefficients(2, 10)
    rec = rational_reconstruct(coeffs, 4)
    assert rec is not None
    assert rec.coefficients(10) == coeffs
    index = {lam: i for i, lam in enumerate(partitions_of(3))}
    target = [MPoly.constant(3, 1)]
    for _, form in small_p_exponential_form(2):
        ell = MPoly(
            3, {tuple(int(i == index[lam]) for i in range(3)): c for lam, c in form.terms.items()}
        )
        target = [a - ell * b for a, b in zip(target + [0], [0] + target)]
    assert len(target) == 5
    assert rec.den == target


def test_divides_up_to_unit():
    assert divides_up_to_unit([1, -1], [1, 0, -1])  # (1-t) | (1-t^2)
    assert not divides_up_to_unit([1, -2], [1, 0, -1])
    s = MPoly.variable(1, 0)
    one = MPoly.constant(1, 1)
    assert divides_up_to_unit([one, -s], [one, MPoly(1), -(s * s)])
    # plain numbers beside polynomials are read as constant polynomials
    assert divides_up_to_unit([1, -s], [1, 0, -(s * s)])
    assert not divides_up_to_unit([1, -s], [1, 0, -s])


def test_coefficient_domain_is_read_off_the_coefficients():
    s, w = MPoly.variable(2, 0), MPoly.variable(2, 1)
    # plain ints beside polynomials become constant polynomials
    tail = [-3 * s, 3 * s * s - w * w, s * w * w - s * s * s]
    mixed = RationalFunction([0, 0, w * w], [1] + tail)
    lifted = RationalFunction([MPoly(2), MPoly(2), w * w], [MPoly.constant(2, 1)] + tail)
    assert all(isinstance(c, MPoly) for c in mixed.num + mixed.den)
    assert mixed.num == lifted.num and mixed.den == lifted.den
    assert mixed.coefficients(6) == lifted.coefficients(6)
    assert all(isinstance(c, MPoly) for c in mixed.coefficients(6))
    # numbers alone stay Fractions, in lowest terms with den[0] == 1
    plain = RationalFunction([2, -2], [2, 0, -2])
    assert plain.num == [1] and plain.den == [1, 1]
    assert all(type(c) is Fraction for c in plain.num + plain.den + plain.coefficients(4))
    # coefficients in different variable counts do not share a ring
    with pytest.raises(ValueError, match="variable count mismatch"):
        RationalFunction([s], [1, MPoly.variable(1, 0)])
    with pytest.raises(ValueError, match="variable count mismatch"):
        rational_reconstruct([s, MPoly.variable(3, 0), s, s], 1)
    with pytest.raises(ValueError, match="variable count mismatch"):
        divides_up_to_unit([1, s], [1, MPoly.variable(1, 0)])
