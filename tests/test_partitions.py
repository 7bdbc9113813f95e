import itertools
from math import comb, factorial

import pytest
from reference import lr_product

from segre_syzygies.partitions import (
    _complete,
    check_partition,
    conjugate,
    dimension_sn,
    gl_dimension,
    kostka,
    lr_coefficient,
    partitions_of,
    schur_product,
)


def ssyt_count(lam, m):
    """Independent oracle: enumerate semistandard tableaux with entries <= m."""
    rows = len(lam)
    if rows == 0:
        return 1
    if rows > m:
        return 0

    def fill(r, c, current):
        if r == rows:
            return 1
        if c == lam[r]:
            return fill(r + 1, 0, current)
        lo = 1
        if c > 0:
            lo = max(lo, current[r][c - 1])
        if r > 0:
            lo = max(lo, current[r - 1][c] + 1)
        total = 0
        for v in range(lo, m + 1):
            current[r].append(v)
            total += fill(r, c + 1, current)
            current[r].pop()
        return total

    return fill(0, 0, [[] for _ in range(rows)])


def content_count(lam, content):
    """Independent oracle: enumerate semistandard tableaux of shape lam in
    which each entry v occurs content[v - 1] times."""
    cells = [(r, c) for r, row in enumerate(lam) for c in range(row)]
    if len(cells) != sum(content):
        return 0
    left = list(content)
    filling = {}

    def fill(pos):
        if pos == len(cells):
            return 1
        r, c = cells[pos]
        lo = max(filling.get((r, c - 1), 1), filling.get((r - 1, c), 0) + 1)
        total = 0
        for v in range(lo, len(content) + 1):
            if left[v - 1]:
                left[v - 1] -= 1
                filling[r, c] = v
                total += fill(pos + 1)
                left[v - 1] += 1
        filling.pop((r, c), None)
        return total

    return fill(0)


def pieri_expected(lam, k, nu):
    """Independent oracle for one-row products: horizontal-strip condition."""
    if sum(nu) != sum(lam) + k:
        return 0
    if len(nu) > len(lam) + 1 or len(nu) < len(lam):
        return 0
    lamp = tuple(lam) + (0,) * (len(nu) - len(lam))
    if any(nu[i] < lamp[i] for i in range(len(nu))):
        return 0
    # no two added cells in one column: nu_{i+1} <= lam_i
    if any(nu[i + 1] > lamp[i] for i in range(len(nu) - 1)):
        return 0
    return 1


def test_conjugate_examples():
    assert conjugate((2, 1)) == (2, 1)
    assert conjugate(()) == ()
    assert conjugate((3, 1)) == (2, 1, 1)


def test_conjugate_involution():
    for n in range(8):
        for lam in partitions_of(n):
            assert conjugate(conjugate(lam)) == lam


def test_partitions_of_examples():
    assert partitions_of(0) == ((),)
    assert partitions_of(3) == ((3,), (2, 1), (1, 1, 1))
    assert partitions_of(4, 2) == ((4,), (3, 1), (2, 2))


def test_partitions_of_reverse_lex():
    for n in range(9):
        parts = partitions_of(n)
        assert list(parts) == sorted(parts, reverse=True)
        assert len(set(parts)) == len(parts)


def test_check_partition_rejects():
    with pytest.raises(ValueError):
        check_partition((1, 2))
    with pytest.raises(ValueError):
        check_partition((2, 0))


def test_dimension_sn_examples():
    for n in range(1, 7):
        assert dimension_sn((n,)) == 1
    assert dimension_sn((2, 1)) == 2
    assert dimension_sn((2, 2)) == 2
    assert dimension_sn(()) == 1


def test_dimension_squares_sum_to_group_order():
    for n in range(1, 9):
        assert sum(dimension_sn(lam) ** 2 for lam in partitions_of(n)) == factorial(n)


def test_kostka_examples():
    assert kostka((2,), (1, 1)) == 1
    assert kostka((1, 1), (2, 0)) == 0
    assert kostka((2, 1), (1, 1, 1)) == 2


def test_kostka_regular_weight_is_dimension():
    for n in range(1, 7):
        for lam in partitions_of(n):
            assert kostka(lam, (1,) * n) == dimension_sn(lam)


def test_kostka_content_permutation_invariance():
    for lam in partitions_of(4):
        for mu in set(itertools.permutations((2, 1, 1, 0))):
            assert kostka(lam, mu) == kostka(lam, (2, 1, 1))


def test_kostka_matches_tableau_count():
    # every composition of n with at most 4 parts, zeros included
    for n in range(7):
        for length in range(5):
            contents = [c for c in itertools.product(range(n + 1), repeat=length) if sum(c) == n]
            for lam in partitions_of(n):
                for content in contents:
                    assert kostka(lam, content) == content_count(lam, content), (lam, content)


def test_kostka_size_mismatch():
    with pytest.raises(ValueError):
        kostka((2, 1), (1, 1))


def test_kostka_checks_its_shape():
    for lam, content in [((1.5, 1.5), (3,)), ((1, 2), (2, 1)), ((0,), (0,))]:
        with pytest.raises(ValueError, match="partition parts"):
            kostka(lam, content)
    assert kostka([2, 1], [1, 1, 1]) == 2


def test_lr_examples():
    assert lr_coefficient((1,), (1,), (2,)) == 1
    assert lr_coefficient((1,), (1,), (1, 1)) == 1
    assert lr_coefficient((2,), (1,), (3,)) == 1
    assert lr_coefficient((2,), (1,), (2, 1)) == 1
    assert lr_coefficient((2,), (1,), (1, 1, 1)) == 0


def test_lr_checks_its_partitions():
    for args in [((1, 2), (1,), (2, 2)), ((1,), (0,), (1,)), ((1,), (1,), (1, 2))]:
        with pytest.raises(ValueError, match="partition parts"):
            lr_coefficient(*args)
    assert lr_coefficient([2, 1], [1], [2, 2]) == 1


def test_lr_pieri_oracle():
    for n in range(0, 5):
        for lam in partitions_of(n):
            for k in range(1, 4):
                for nu in partitions_of(n + k):
                    assert lr_coefficient(lam, (k,), nu) == pieri_expected(lam, k, nu)


def test_lr_commutativity():
    parts = [lam for n in range(0, 5) for lam in partitions_of(n)]
    for lam, mu in itertools.product(parts, repeat=2):
        if sum(lam) + sum(mu) > 6:
            continue
        for nu in partitions_of(sum(lam) + sum(mu)):
            assert lr_coefficient(lam, mu, nu) == lr_coefficient(mu, lam, nu)


def test_lr_dimension_identity():
    parts = [lam for n in range(0, 5) for lam in partitions_of(n)]
    for lam, mu in itertools.product(parts, repeat=2):
        total = sum(lam) + sum(mu)
        if total > 6:
            continue
        for m in range(5):
            lhs = sum(
                lr_coefficient(lam, mu, nu) * gl_dimension(nu, m)
                for nu in partitions_of(total)
            )
            assert lhs == gl_dimension(lam, m) * gl_dimension(mu, m)


def test_gl_dimension_examples():
    assert gl_dimension((1, 1), 2) == 1
    assert gl_dimension((1, 1, 1), 2) == 0
    assert gl_dimension((2, 1), 2) == 2


def test_gl_dimension_ssyt_oracle():
    for n in range(0, 6):
        for lam in partitions_of(n):
            for m in range(0, 4):
                assert gl_dimension(lam, m) == ssyt_count(lam, m)


def test_schur_product_matches_lr():
    expansion = schur_product((2, 1), (2, 1))
    for nu, coeff in expansion.items():
        assert coeff == lr_coefficient((2, 1), (2, 1), nu)
    assert sum(c * gl_dimension(nu, 3) for nu, c in expansion.items()) == 8 * 8


SMALL_PARTITIONS = [lam for n in range(0, 5) for lam in partitions_of(n)]


def test_schur_product_commutes():
    for lam, mu in itertools.product(SMALL_PARTITIONS, repeat=2):
        assert schur_product(lam, mu) == schur_product(mu, lam)


def test_schur_product_commutes_with_conjugation():
    for lam, mu in itertools.product(SMALL_PARTITIONS, repeat=2):
        conjugated = {conjugate(nu): c for nu, c in schur_product(lam, mu).items()}
        assert conjugated == schur_product(conjugate(lam), conjugate(mu))


def test_schur_product_induction_dimension():
    # inducing from S_a x S_b to S_(a+b) multiplies dimensions by C(a+b, a)
    for lam, mu in itertools.product(SMALL_PARTITIONS, repeat=2):
        total = sum(c * dimension_sn(nu) for nu, c in schur_product(lam, mu).items())
        a, b = sum(lam), sum(mu)
        assert total == comb(a + b, a) * dimension_sn(lam) * dimension_sn(mu)


def test_schur_product_matches_lattice_filling_reference():
    for a in range(11):
        for b in range(11 - a):
            for lam in partitions_of(a):
                for mu in partitions_of(b):
                    assert schur_product(lam, mu) == lr_product(lam, mu), (lam, mu)


def test_cached_products_are_read_only():
    # lr_coefficient and kostka read these caches, so an edit must not reach them
    with pytest.raises(TypeError):
        schur_product((1,), (1,))[(2,)] = 5
    with pytest.raises(TypeError):
        _complete((1, 1))[(2,)] = 5
    assert dict(schur_product((1,), (1,))) == {(2,): 1, (1, 1): 1}
    assert lr_coefficient((1,), (1,), (2,)) == 1 and kostka((2,), (1, 1)) == 1
