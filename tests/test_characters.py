import itertools
from fractions import Fraction
from math import factorial

import pytest

from segre_syzygies.characters import (
    CharacterTable,
    character_table,
    class_data,
    kronecker_coefficient,
    mn_character,
)
from segre_syzygies.errors import CapacityError, ConsistencyError
from segre_syzygies.partitions import dimension_sn, partitions_of


def fixed_points(mu):
    return sum(1 for part in mu if part == 1)


def test_class_data_examples():
    c = class_data((1, 1))
    assert (c.class_size, c.centralizer_order, c.sign) == (1, 2, 1)
    c = class_data((2,))
    assert (c.class_size, c.centralizer_order, c.sign) == (1, 2, -1)
    c = class_data((3,))
    assert (c.class_size, c.centralizer_order, c.sign) == (2, 3, 1)


def test_class_sizes_sum_to_group_order():
    for p in range(1, 9):
        total = sum(class_data(mu).class_size for mu in partitions_of(p))
        assert total == factorial(p)
        for mu in partitions_of(p):
            c = class_data(mu)
            assert c.class_size * c.centralizer_order == factorial(p)


def test_mn_trivial_and_sign():
    for p in range(1, 7):
        for mu in partitions_of(p):
            assert mn_character((p,), mu) == 1
            assert mn_character((1,) * p, mu) == class_data(mu).sign


def test_mn_standard_representation_oracle():
    # the (p-1,1) character counts fixed points minus one
    for p in range(2, 7):
        for mu in partitions_of(p):
            assert mn_character((p - 1, 1), mu) == fixed_points(mu) - 1


def test_mn_regular_character_oracle():
    for p in range(1, 6):
        for mu in partitions_of(p):
            total = sum(
                dimension_sn(lam) * mn_character(lam, mu) for lam in partitions_of(p)
            )
            assert total == (factorial(p) if mu == (1,) * p else 0)


def test_mn_s3_example():
    assert mn_character((2, 1), (3,)) == -1


def test_mn_dimension_at_identity():
    for n in range(1, 8):
        for lam in partitions_of(n):
            assert mn_character(lam, (1,) * n) == dimension_sn(lam)


def test_mn_size_mismatch():
    with pytest.raises(ValueError):
        mn_character((2, 1), (2,))


def test_character_table_small():
    assert character_table(1).values == ((1,),)
    t2 = character_table(2)
    assert t2.row((2,)) == (1, 1)
    assert t2.entry((1, 1), (1, 1)) == 1
    assert t2.entry((1, 1), (2,)) == -1
    t3 = character_table(3)
    assert [t3.entry((2, 1), mu) for mu in ((1, 1, 1), (2, 1), (3,))] == [2, 0, -1]


def test_character_table_orthonormality_up_to_6():
    for p in range(1, 7):
        table = character_table(p)
        zs = [class_data(mu).centralizer_order for mu in table.labels]
        n = len(table.labels)
        for i in range(n):
            for j in range(n):
                s = sum(
                    Fraction(table.values[i][k] * table.values[j][k], zs[k])
                    for k in range(n)
                )
                assert s == (1 if i == j else 0)


def test_character_table_bounds():
    with pytest.raises(ValueError):
        character_table(0)
    with pytest.raises(CapacityError):
        character_table(99)


def test_character_table_validation_catches_bad_table():
    with pytest.raises(ConsistencyError):
        CharacterTable(2, ((2,), (1, 1)), ((1, 1), (1, 1)))


def test_character_table_csv():
    csv_text = character_table(3).to_csv()
    lines = csv_text.strip().splitlines()
    assert lines[0] == 'lambda\\mu,3,"2,1","1,1,1"'
    assert lines[1] == "3,1,1,1"


def test_kronecker_examples():
    assert kronecker_coefficient((1, 1), (1, 1), (2,)) == 1
    assert kronecker_coefficient((2,), (2,), (1, 1)) == 0
    assert kronecker_coefficient((2, 1), (2, 1), (2, 1)) == 1


def test_kronecker_with_trivial_is_delta():
    for p in range(1, 6):
        for lam in partitions_of(p):
            for mu in partitions_of(p):
                assert kronecker_coefficient(lam, mu, (p,)) == (1 if lam == mu else 0)


def test_kronecker_full_symmetry():
    for p in range(1, 6):
        labels = partitions_of(p)
        for lam, mu, nu in itertools.product(labels, repeat=3):
            base = kronecker_coefficient(lam, mu, nu)
            for perm in itertools.permutations((lam, mu, nu)):
                assert kronecker_coefficient(*perm) == base


def test_kronecker_size_mismatch():
    with pytest.raises(ValueError):
        kronecker_coefficient((2,), (1,), (2,))


def test_tensor_diagonalization_identity():
    # Expanding products of characters through Kronecker coefficients and
    # pairing with the table must reproduce the centralizer diagonal:
    # sum_nu A[lam][nu](zeta) * B[nu][mu] == B[lam][mu] * z_mu * [zeta == mu]
    for p in range(1, 5):
        table = character_table(p)
        labels = table.labels
        for lam, mu in itertools.product(labels, repeat=2):
            z_mu = class_data(mu).centralizer_order
            for zeta in labels:
                lhs = 0
                for nu in labels:
                    a_entry = sum(
                        kronecker_coefficient(lam, nu, rho) * table.entry(rho, zeta)
                        for rho in labels
                    )
                    lhs += a_entry * table.entry(nu, mu)
                rhs = table.entry(lam, mu) * z_mu * (1 if zeta == mu else 0)
                assert lhs == rhs
