import itertools
from fractions import Fraction

from segre_syzygies.characters import character_table, class_data
from segre_syzygies.partitions import gl_dimension, partitions_of
from segre_syzygies.schur_ring import SymFunc, boxtimes, power_sum, sym_to_json


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


def test_power_sum_basis_round_trip():
    for n in range(1, 7):
        for lam in partitions_of(n):
            # s_lam = sum over mu of chi^lam(mu) / z_mu p_mu (Macdonald I.7)
            coeffs = {
                mu: Fraction(character_table(n).entry(lam, mu), class_data(mu).centralizer_order)
                for mu in partitions_of(n)
            }
            rebuilt = SymFunc()
            for mu, c in coeffs.items():
                rebuilt = rebuilt + power_sum(mu).scale(c)
            assert rebuilt == SymFunc.basis(lam)


def test_evaluate_dimension_multiplicative():
    def dimension(x, m):
        return sum(c * gl_dimension(lam, m) for lam, c in x.terms.items())

    elements = [SymFunc.basis(lam) for n in range(1, 4) for lam in partitions_of(n)]
    for x, y in itertools.product(elements, repeat=2):
        for m in range(4):
            assert dimension(boxtimes(x, y), m) == dimension(x, m) * dimension(y, m)


def test_zero_coefficients_dropped():
    x = s(2) - s(2)
    assert not x
    assert x.terms == {}


def test_json_round_trip():
    x = s(2, 1).scale(Fraction(-3, 2)) + SymFunc.unit() + s(1)
    data = sym_to_json(x)
    assert data == {"": "1", "1": "1", "2,1": "-3/2"}
