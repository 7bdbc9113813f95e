import itertools
from fractions import Fraction

import pytest

from segre_syzygies.partitions import partitions_of
from segre_syzygies.schur_ring import (
    SymFunc,
    boxtimes,
    evaluate_dimension,
    power_sum,
    sym_from_json,
    sym_to_json,
    to_power_sum_basis,
)


def s(*parts):
    return SymFunc.basis(tuple(parts))


def test_boxtimes_examples():
    assert boxtimes(s(1), s(1)) == s(2) + s(1, 1)
    x = s(3, 1) + power_sum((2,)).scale(Fraction(5, 7))
    assert boxtimes(SymFunc.unit(), x) == x
    assert boxtimes(s(2), s(1)) == s(3) + s(2, 1)


def test_boxtimes_commutative_associative():
    generators = [SymFunc.basis(lam) for n in range(0, 4) for lam in partitions_of(n)]
    for x, y in itertools.product(generators, repeat=2):
        assert boxtimes(x, y) == boxtimes(y, x)
    for x, y, z in itertools.combinations(generators, 3):
        assert boxtimes(boxtimes(x, y), z) == boxtimes(x, boxtimes(y, z))


def test_power_sum_examples():
    assert power_sum((1, 1)) == s(2) + s(1, 1)
    assert power_sum((2,)) == s(2) - s(1, 1)
    assert power_sum((1,)) == s(1)
    assert power_sum(()) == SymFunc.unit()


def test_power_sums_multiply_by_concatenation():
    parts = [lam for n in range(1, 5) for lam in partitions_of(n)]
    for lam, mu in itertools.product(parts, repeat=2):
        concatenated = tuple(sorted(lam + mu, reverse=True))
        assert boxtimes(power_sum(lam), power_sum(mu)) == power_sum(concatenated)


def test_to_power_sum_basis_examples():
    assert to_power_sum_basis(s(2) + s(1, 1)) == {(1, 1): Fraction(1)}
    assert to_power_sum_basis(s(1)) == {(1,): Fraction(1)}
    assert to_power_sum_basis(s(2)) == {
        (1, 1): Fraction(1, 2),
        (2,): Fraction(1, 2),
    }


def test_power_sum_basis_round_trip():
    for n in range(1, 7):
        for lam in partitions_of(n):
            coeffs = to_power_sum_basis(SymFunc.basis(lam))
            rebuilt = SymFunc.zero()
            for mu, c in coeffs.items():
                rebuilt = rebuilt + power_sum(mu).scale(c)
            assert rebuilt == SymFunc.basis(lam)


def test_to_power_sum_basis_mixed_degrees():
    x = s(2).scale(3) + s(1)
    coeffs = to_power_sum_basis(x)
    assert coeffs[(1,)] == 1
    assert coeffs[(2,)] == Fraction(3, 2)
    assert coeffs[(1, 1)] == Fraction(3, 2)


def test_evaluate_dimension_examples():
    assert evaluate_dimension(s(1, 1), 2) == 1
    assert evaluate_dimension(s(2) + s(1, 1), 2) == 4
    assert evaluate_dimension(power_sum((2,)), 1) == 1


def test_evaluate_dimension_multiplicative():
    elements = [SymFunc.basis(lam) for n in range(1, 4) for lam in partitions_of(n)]
    for x, y in itertools.product(elements, repeat=2):
        for m in range(4):
            lhs = evaluate_dimension(boxtimes(x, y), m)
            assert lhs == evaluate_dimension(x, m) * evaluate_dimension(y, m)


def test_evaluate_dimension_rejects_negative_rank():
    with pytest.raises(ValueError):
        evaluate_dimension(s(1), -1)


def test_zero_coefficients_dropped():
    x = s(2) - s(2)
    assert not x
    assert x.terms == {}


def test_json_round_trip():
    x = s(2, 1).scale(Fraction(-3, 2)) + SymFunc.unit() + s(1)
    data = sym_to_json(x)
    assert data == {"": "1", "1": "1", "2,1": "-3/2"}
    assert sym_from_json(data) == x


def test_json_sums_keys_naming_one_partition():
    assert sym_from_json({"2": "1/2", "02": "1/3"}) == s(2).scale(Fraction(5, 6))
    assert sym_from_json({"1": "1", "01": "-1", "2,1": "2"}) == s(2, 1).scale(2)
