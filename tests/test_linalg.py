import random
from fractions import Fraction

from segre_syzygies.linalg import nullspace, rank


def rank_fraction_oracle(matrix):
    """Independent rank via plain rational elimination."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    r = 0
    ncols = len(matrix[0]) if matrix else 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def test_rank_random_matrices_match_oracle():
    rng = random.Random(11)
    for trial in range(60):
        nrows = rng.randint(1, 7)
        ncols = rng.randint(1, 7)
        m = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
        assert rank(m) == rank_fraction_oracle(m), m


def test_rank_edge_cases():
    assert rank([]) == 0
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[0, 3]]) == 1
    assert rank([[2], [4], [6]]) == 1


def test_rank_does_not_mutate_input():
    m = [[1, 2], [3, 4]]
    rank(m)
    assert m == [[1, 2], [3, 4]]


def test_nullspace_random_matrices():
    rng = random.Random(13)
    for trial in range(40):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        m = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        basis = nullspace(m, ncols)
        assert len(basis) == ncols - rank(m)
        for vec in basis:
            assert any(vec)
            for row in m:
                assert sum(a * b for a, b in zip(row, vec)) == 0
        if basis:
            assert rank(basis) == len(basis)
