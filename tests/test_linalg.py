import random
from fractions import Fraction

from segre_syzygies.linalg import rank

from reference import columns, gauss_jordan


def rank_fraction_oracle(matrix):
    """Independent rank via plain rational elimination."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    return len(gauss_jordan(rows, len(matrix[0]) if matrix else 0))


def test_rank_random_matrices_match_oracle():
    rng = random.Random(11)
    for trial in range(60):
        nrows = rng.randint(1, 7)
        ncols = rng.randint(1, 7)
        m = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
        assert rank(columns(m, ncols)) == rank_fraction_oracle(m), m


def test_rank_edge_cases():
    assert rank([]) == 0
    assert rank([{}, {}]) == 0
    assert rank(columns([[0, 0], [0, 0]], 2)) == 0
    assert rank(columns([[0, 3]], 2)) == 1
    assert rank(columns([[2], [4], [6]], 1)) == 1


def test_rank_does_not_mutate_input():
    # the second column reduces against a non-unit pivot
    m = [{0: 1, 1: 3}, {0: 2, 1: 4}]
    assert rank(m) == 2
    assert m == [{0: 1, 1: 3}, {0: 2, 1: 4}]
    m = [{0: 2, 1: 4}, {0: 3, 1: 0}, {0: 6, 1: 12}]
    assert rank(m) == 2
    assert m == [{0: 2, 1: 4}, {0: 3, 1: 0}, {0: 6, 1: 12}]
