import itertools
from fractions import Fraction
from math import comb, factorial, prod

import pytest

from segre_syzygies.errors import ConsistencyError, UnsupportedError
from segre_syzygies.partitions import gl_dimension, partitions_of
from segre_syzygies.schur_ring import SymFunc, boxtimes
from segre_syzygies.series import (
    PartitionSeries,
    TruncationPolicy,
    _kronecker_orders,
    canonical_monomial,
    dimension_on_factors,
    euler_chi,
    exp_combination,
    exp_series,
    f4_degree5,
    f_segre,
    lascoux_leading,
    monomial_degree,
    order_normalize,
    series_from_json,
    series_to_json,
    small_p_exponential_form,
    tensor_schur_series_closed,
    tensor_schur_series_recurrence,
)

S = (2,)
W = (1, 1)


def mono(*parts):
    return canonical_monomial(parts)


def series(policy, mapping):
    return PartitionSeries(policy, mapping)


def test_series_mul_examples():
    pol = TruncationPolicy(4, 4)
    x = PartitionSeries.variable((2,), pol)
    y = PartitionSeries.variable((1, 1), pol)
    assert (x * y).terms == {mono((2,), (1, 1)): Fraction(1)}
    one = PartitionSeries.one(pol)
    a = x + y.scale(3)
    assert one * a == a
    sq = (one + x) * (one + x)
    assert sq.terms == {
        mono(): Fraction(1),
        mono((2,)): Fraction(2),
        mono((2,), (2,)): Fraction(1),
    }


def test_series_mul_policy_mismatch():
    a = PartitionSeries.one(TruncationPolicy(3, 3))
    b = PartitionSeries.one(TruncationPolicy(4, 3))
    with pytest.raises(ValueError):
        a * b


def test_truncation_policy():
    pol = TruncationPolicy(2, 2)
    x = PartitionSeries.variable((2,), pol)
    assert (x * x * x).terms == {}
    assert PartitionSeries(pol, {((3,),): Fraction(1)}).terms == {}


def test_exp_combination_single_exponential():
    pol = TruncationPolicy(4, 3)
    got = exp_series(SymFunc.basis((3,)), pol)
    expected = {
        mono(): Fraction(1),
        mono((3,)): Fraction(1),
        mono((3,), (3,)): Fraction(1, 2),
        mono((3,), (3,), (3,)): Fraction(1, 6),
        mono((3,), (3,), (3,), (3,)): Fraction(1, 24),
    }
    assert got.terms == expected


def test_exp_combination_constant_and_rejection():
    pol = TruncationPolicy(3, 3)
    assert exp_combination([(Fraction(1), SymFunc.zero())], pol) == PartitionSeries.one(pol)
    with pytest.raises(ValueError):
        exp_combination([(Fraction(1), SymFunc.unit())], pol)


def test_exp_combination_rejects_a_negative_order():
    with pytest.raises(ValueError, match="max_order"):
        exp_combination([(Fraction(1), SymFunc.basis((1,)))], TruncationPolicy(-1, 3))
    with pytest.raises(ValueError, match="max_part_size"):
        exp_combination([(Fraction(1), SymFunc.basis((1,)))], TruncationPolicy(3, -1))
    with pytest.raises(ValueError, match="max_part_size"):
        euler_chi(3, TruncationPolicy(4, -2))


def test_a_truncation_policy_takes_whole_numbers_only():
    # an order of 2.5 let the closed form's walk reach order 3, and a float
    # order stopped the recurrence with a TypeError
    builders = (
        lambda policy: euler_chi(2, policy),
        lambda policy: tensor_schur_series_recurrence((1, 1), policy),
    )
    for build in builders:
        for bad in (TruncationPolicy(2.5, 2), TruncationPolicy(2, 1.5)):
            with pytest.raises(ValueError, match="integer"):
                build(bad)
        result = build(TruncationPolicy(2.0, 2.0))
        assert result == build(TruncationPolicy(2, 2))
        assert all(type(v) is int for v in result.policy)
        # both sides of the tensor-Schur identity refuse a negative order
        with pytest.raises(ValueError, match="non-negative"):
            build(TruncationPolicy(-1, 2))
    with pytest.raises(ValueError, match="integer"):
        euler_chi(0, TruncationPolicy(2.5, 2))
    assert euler_chi(0, TruncationPolicy(2.0, 2)).policy == (2, 2)
    assert euler_chi(3.0, TruncationPolicy(2, 2)) == euler_chi(3, TruncationPolicy(2, 2))
    with pytest.raises(ValueError, match="integer"):
        euler_chi(2.5)
    assert lascoux_leading(2.0, 3.0) == lascoux_leading(2, 3)
    with pytest.raises(ValueError, match="integer"):
        lascoux_leading(2, 3.5)


def test_exp_combination_order2_example():
    pol = TruncationPolicy(2, 2)
    s = SymFunc.basis(S)
    w = SymFunc.basis(W)
    got = exp_combination(
        [(Fraction(1, 2), s + w), (Fraction(1, 2), s - w), (Fraction(-1), s)], pol
    )
    assert got.order_component(2).terms == {mono(W, W): Fraction(1, 2)}
    assert got.order_component(0).terms == {}
    assert got.order_component(1).terms == {}


def test_exp_additivity():
    pol = TruncationPolicy(5, 3)
    elements = [SymFunc.basis(lam) for n in range(1, 4) for lam in partitions_of(n)]
    for x, y in itertools.combinations(elements, 2):
        assert exp_series(x, pol) * exp_series(y, pol) == exp_series(x + y, pol)


def test_exp_of_boxtimes_matches_power_expansion():
    # order-n component of exp(z) is the n-th power of z over n factorial,
    # taken here by explicit PartitionSeries products
    pol = TruncationPolicy(4, 6)

    def power_components(z):
        linear = PartitionSeries(pol, {(lam,): c for lam, c in z.terms.items()})
        power = PartitionSeries.one(pol)
        out = [power]
        for n in range(1, pol.max_order + 1):
            power = (power * linear).scale(Fraction(1, n))
            out.append(power)
        return out

    x = SymFunc.basis((2,)) + SymFunc.basis((1,)).scale(2)
    y = SymFunc.basis((1, 1))
    z = boxtimes(x, y)
    expz = exp_series(z, pol)
    for n, power in enumerate(power_components(z)):
        assert expz.order_component(n) == power

    # signed, fractional multi-term combination; (4, 3) exceeds max_part_size
    u = (
        SymFunc.basis((3,)).scale(Fraction(-2, 3))
        + SymFunc.basis((2, 1)).scale(Fraction(1, 2))
        + SymFunc.basis((4, 3))
    )
    v = SymFunc.basis((1, 1)).scale(-3) + SymFunc.basis((2,)).scale(Fraction(5, 4))
    combo = [(Fraction(-3, 2), u), (Fraction(1, 3), v), (Fraction(2), u + v)]
    got = exp_combination(combo, pol)
    expected = [PartitionSeries.zero(pol)] * (pol.max_order + 1)
    for c, w in combo:
        for n, power in enumerate(power_components(w)):
            expected[n] = expected[n] + power.scale(c)
    for n, component in enumerate(expected):
        assert component
        assert got.order_component(n) == component


def test_euler_chi_examples():
    assert euler_chi(0, TruncationPolicy(3, 3)) == PartitionSeries.one(TruncationPolicy(3, 3))
    chi2 = euler_chi(2, TruncationPolicy(5, 4))
    assert chi2.order_component(2).terms == {mono(W, W): Fraction(-1, 2)}
    chi3 = euler_chi(3, TruncationPolicy(5, 5))
    assert chi3.order_component(2).terms == {mono((1, 1, 1), (2, 1)): Fraction(1)}


def test_euler_chi_vanishing_low_orders():
    for k in (2, 3, 4):
        chi = euler_chi(k, TruncationPolicy(3, k))
        assert chi.order_component(0).terms == {}
        assert chi.order_component(1).terms == {}


def test_euler_chi_matches_term_level_euler_characteristic():
    # evaluated on factors of sizes dims, the degree-k slice is the Euler
    # characteristic of the degree-k strand of the Koszul complex:
    # sum_j (-1)^j dim R_{k-j} C(N, j), with no homology computed
    for dims in [(2, 2), (3, 3), (2, 3), (2, 2, 2), (2, 3, 4), (3, 3, 3)]:
        n, big_n = len(dims), prod(dims)
        for k in range(2, 8):
            chi = euler_chi(k, TruncationPolicy(n, k))
            value = sum(
                coeff
                * sum(
                    prod(gl_dimension(lam, m) for lam, m in zip(assigned, dims))
                    for assigned in itertools.permutations(mono)
                )
                for mono, coeff in chi.terms.items()
                if len(mono) == n
            )
            expected = sum(
                (-1) ** j * prod(comb(m + k - j - 1, k - j) for m in dims) * comb(big_n, j)
                for j in range(k + 1)
            )
            assert value == expected, (dims, k)


def test_f_segre_examples():
    pol2 = TruncationPolicy(2, 2)
    assert f_segre(1, pol2).terms == {mono(W, W): Fraction(1, 2)}
    pol3 = TruncationPolicy(3, 2)
    assert f_segre(1, pol3).order_component(3).terms == {
        mono(S, W, W): Fraction(1, 2)
    }
    assert f_segre(2, TruncationPolicy(2, 3)).terms == {
        mono((1, 1, 1), (2, 1)): Fraction(1)
    }
    with pytest.raises(UnsupportedError):
        f_segre(4)
    with pytest.raises(UnsupportedError):
        f_segre(0)


def test_order_normalize_examples():
    pol = TruncationPolicy(3, 2)
    f1 = f_segre(1, pol)
    star = order_normalize(f1)
    assert star.order_component(2).terms == {mono(W, W): Fraction(1)}
    assert star.order_component(3).terms == {mono(S, W, W): Fraction(3)}
    one = PartitionSeries.one(pol)
    assert order_normalize(one) == one


def test_exponential_forms_match_euler_slices():
    for p in (1, 2, 3):
        pol = TruncationPolicy(5, p + 1)
        assert exp_combination(small_p_exponential_form(p), pol) == f_segre(p, pol)
    with pytest.raises(UnsupportedError):
        small_p_exponential_form(4)


def test_exponential_form_coefficients():
    assert [c for c, _ in small_p_exponential_form(1)] == [
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(-1),
    ]
    assert [c for c, _ in small_p_exponential_form(2)] == [
        Fraction(1, 3),
        Fraction(-1, 3),
        Fraction(-1),
        Fraction(1),
    ]
    assert [c for c, _ in small_p_exponential_form(3)] == [
        Fraction(1, 8),
        Fraction(-1, 8),
        Fraction(1, 4),
        Fraction(-1, 4),
        Fraction(1, 2),
        Fraction(-1, 2),
        Fraction(1),
        Fraction(-1),
    ]


def test_degree_homogeneity_of_syzygy_series():
    for p in (1, 2, 3):
        series_p = f_segre(p, TruncationPolicy(4, 2 * p + 2))
        for m in series_p.terms:
            d = monomial_degree(m)
            assert d is not None and d == p + 1


def test_tensor_schur_examples():
    pol = TruncationPolicy(3, 1)
    got = tensor_schur_series_closed((1,), pol)
    assert got.terms == {
        mono(): Fraction(1),
        mono((1,)): Fraction(1),
        mono((1,), (1,)): Fraction(1, 2),
        mono((1,), (1,), (1,)): Fraction(1, 6),
    }
    pol = TruncationPolicy(4, 2)
    assert tensor_schur_series_closed((2,), pol).order_component(0) == PartitionSeries.one(pol)
    assert tensor_schur_series_closed((1, 1), pol).order_component(0).terms == {}
    rec = tensor_schur_series_recurrence((1, 1), pol)
    assert rec.order_component(1).terms == {mono((1, 1)): Fraction(1)}
    assert rec.order_component(2).terms == {mono((2,), (1, 1)): Fraction(1)}


def test_tensor_schur_closed_equals_recurrence():
    pol = TruncationPolicy(4, 3)
    for p in (1, 2, 3):
        for lam in partitions_of(p):
            assert tensor_schur_series_closed(lam, pol) == tensor_schur_series_recurrence(lam, pol)
    pol = TruncationPolicy(4, 4)
    for p in range(1, 5):
        for lam in partitions_of(p):
            assert tensor_schur_series_closed(lam, pol) == tensor_schur_series_recurrence(lam, pol)
    # parts of size p are cut by the policy: only the order-0 term is left
    pol = TruncationPolicy(3, 2)
    for lam in partitions_of(3):
        rec = tensor_schur_series_recurrence(lam, pol)
        assert tensor_schur_series_closed(lam, pol) == rec
        assert rec.terms == ({mono(): Fraction(1)} if lam == (3,) else {})


def test_kronecker_recurrence_runs_once_per_size():
    pol = TruncationPolicy(3, 4)
    for p in range(1, 5):
        before = _kronecker_orders.cache_info().misses
        for lam in partitions_of(p):
            tensor_schur_series_recurrence(lam, pol)
        assert _kronecker_orders.cache_info().misses - before <= 1


def test_tensor_schur_recurrence_is_not_changed_by_its_callers():
    pol = TruncationPolicy(3, 3)
    for lam in partitions_of(3):
        first = tensor_schur_series_recurrence(lam, pol)
        expected = dict(first.terms)
        for mono_key in first.terms:
            first.terms[mono_key] += 1
        first.terms[mono(S, W)] = Fraction(7)
        assert tensor_schur_series_recurrence(lam, pol).terms == expected


def test_lascoux_examples():
    assert lascoux_leading(1, 2).terms == {mono(W, W): Fraction(1, 2)}
    assert lascoux_leading(2, 3).terms == {mono((1, 1, 1), (2, 1)): Fraction(1)}
    assert lascoux_leading(1, 3).terms == {}
    assert lascoux_leading(3, 4).terms == {
        mono((1, 1, 1, 1), (3, 1)): Fraction(1),
        mono((2, 1, 1), (2, 1, 1)): Fraction(1, 2),
    }


def test_lascoux_matches_series_slices():
    for p in (1, 2, 3):
        full = f_segre(p, TruncationPolicy(2, 2 * p + 1))
        for d in range(0, 2 * p + 2):
            assert lascoux_leading(p, d) == full.degree_slice(d, order=2)
    f45 = f4_degree5(TruncationPolicy(2, 5))
    assert lascoux_leading(4, 5) == f45.degree_slice(5, order=2)


def test_dimension_on_factors():
    star1 = order_normalize(f_segre(1, TruncationPolicy(3, 2)))
    assert dimension_on_factors(star1, (2, 2), 2) == 1
    assert dimension_on_factors(star1, (2, 2, 2), 2) == 9
    assert dimension_on_factors(star1, (1, 2), 2) == 0
    star2 = order_normalize(f_segre(2, TruncationPolicy(2, 3)))
    assert dimension_on_factors(star2, (2, 3), 3) == 2
    assert dimension_on_factors(star2, (3, 2), 3) == 2


def test_dimension_on_factors_rejects_non_integer():
    third = PartitionSeries(TruncationPolicy(1, 1), {((1,),): Fraction(1, 3)})
    with pytest.raises(ConsistencyError):
        dimension_on_factors(third, (1,), 1)
    negative = PartitionSeries(TruncationPolicy(1, 1), {((1,),): Fraction(-1)})
    with pytest.raises(ConsistencyError, match="-2"):
        dimension_on_factors(negative, (2,), 1)


def reference_dimension(star, dims, degree):
    """Fraction sum of each coefficient times its average over the assignments."""
    n = len(dims)
    total = Fraction(0)
    for m, c in star.terms.items():
        if len(m) == n and monomial_degree(m) == degree:
            for sigma in itertools.permutations(range(n)):
                value = prod(gl_dimension(m[i], dim) for i, dim in zip(sigma, dims))
                total += c * Fraction(value, factorial(n))
    return total


def all_dims():
    for n in (1, 2, 3):
        yield from itertools.product((1, 2, 3), repeat=n)


def test_dimension_on_factors_matches_the_fraction_reference():
    for p in (1, 2, 3):
        star = order_normalize(f_segre(p, TruncationPolicy(3, p + 1)))
        for dims in all_dims():
            expected = reference_dimension(star, dims, p + 1)
            assert expected.denominator == 1
            assert dimension_on_factors(star, dims, p + 1) == expected


def test_dimension_on_factors_of_fractional_coefficients():
    pol = TruncationPolicy(3, 2)
    star = series(
        pol,
        {
            mono(S, S): Fraction(1, 2),
            mono(W, W): Fraction(3, 2),
            mono(S, W): Fraction(-7, 3),
            mono(S, S, W): Fraction(1, 6),
            mono(W, W, W): Fraction(-2, 5),
            mono(S): Fraction(1, 4),
        },
    )
    outcomes = set()
    for dims in all_dims():
        expected = reference_dimension(star, dims, 2)
        if expected.denominator == 1 and expected >= 0:
            assert dimension_on_factors(star, dims, 2) == expected
            outcomes.add("dimension")
        else:
            with pytest.raises(ConsistencyError, match=str(expected)):
                dimension_on_factors(star, dims, 2)
            outcomes.add("negative" if expected < 0 else "fraction")
    assert outcomes == {"dimension", "negative", "fraction"}


def test_monomial_degree_mixed_is_none():
    assert monomial_degree(mono((2,), (1, 1))) == 2
    assert monomial_degree(mono((2,), (1,))) is None
    assert monomial_degree(mono()) is None


def test_variable_rejects_zero_partition():
    with pytest.raises(ValueError):
        PartitionSeries.variable((), TruncationPolicy(2, 2))


def test_checked_terms_reject_the_zero_partition():
    # the order-0 monomial () is the constant term, but () is no monomial part
    policy = TruncationPolicy(2, 2)
    with pytest.raises(ValueError, match="zero partition"):
        series_from_json([{"monomial": [[]], "coeff": "1"}], policy)
    with pytest.raises(ValueError, match="zero partition"):
        PartitionSeries(policy, {((), (1,)): 1})
    assert PartitionSeries.one(policy).terms == {(): 1}
    assert series_from_json([{"monomial": [], "coeff": "2"}], policy).terms == {(): 2}


def test_series_json_round_trip():
    pol = TruncationPolicy(3, 3)
    a = f_segre(1, TruncationPolicy(3, 2))
    data = series_to_json(a)
    assert data == [
        {"monomial": [[1, 1], [1, 1]], "coeff": "1/2"},
        {"monomial": [[1, 1], [1, 1], [2]], "coeff": "1/2"},
    ]
    rebuilt = series_from_json(data, pol)
    assert rebuilt == a
