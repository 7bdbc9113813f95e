"""Exact linear algebra over the integers and rationals.

Ranks are computed by fraction-free (Bareiss) elimination on
arbitrary-precision integers; kernels by rational Gauss-Jordan with the
result cleared to integer vectors.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


def rank(matrix: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free Gaussian elimination."""
    if not matrix or not matrix[0]:
        return 0
    nrows, ncols = len(matrix), len(matrix[0])
    if nrows > ncols:
        matrix = [[matrix[i][j] for i in range(nrows)] for j in range(ncols)]
        nrows, ncols = ncols, nrows
    m = [row[:] for row in matrix]
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = None
        for i in range(r, nrows):
            if m[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
        pivot = m[r][c]
        row_r = m[r]
        trivial = pivot == prev
        for i in range(r + 1, nrows):
            row_i = m[i]
            head = row_i[c]
            if not head:
                if not trivial:
                    m[i] = [(pivot * x) // prev for x in row_i]
                continue
            m[i] = [
                (pivot * x - head * y) // prev
                for x, y in zip(row_i, row_r)
            ]
            m[i][c] = 0
        prev = pivot
        r += 1
    return r


def nullspace(matrix: list[list[int]], ncols: int) -> list[list[int]]:
    """Integer basis of the right kernel of an integer matrix with ncols columns."""
    rows = [[Fraction(x) for x in row] for row in matrix if any(row)]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for pr, pc in enumerate(pivots):
            vec[pc] = -rows[pr][free]
        scale = lcm(*(x.denominator for x in vec)) if vec else 1
        basis.append([int(x * scale) for x in vec])
    return basis
