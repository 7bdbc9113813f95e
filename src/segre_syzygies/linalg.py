"""Exact linear algebra over the integers and rationals.

One field elimination, `gauss_jordan`, works over any exact field (Fractions,
or fractions of polynomials) and serves both integer kernels, whose rational
basis is cleared to integer vectors, and the recurrence solving of rational
reconstruction.  Ranks stay separate: `rank` uses fraction-free (Bareiss)
elimination on arbitrary-precision integers, because it is the Koszul
oracle's hot path, sees only integer blocks, and needs no division.
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


def gauss_jordan(rows: list[list], ncols: int) -> list[int]:
    """Reduce rows in place to reduced row echelon form on the first ncols columns.

    Entries lie in an exact field; columns past ncols (an augmented side)
    are carried along but never pivoted.  Returns the pivot columns: row k
    has a one at column pivots[k] and zeros there elsewhere, and the rows
    after the last pivot vanish on the first ncols columns.
    """
    pivots: list[int] = []
    for c in range(ncols):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        lead = rows[r][c]
        rows[r] = row = [x / lead for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], row)]
        pivots.append(c)
    return pivots


def nullspace(matrix: list[list[int]], ncols: int) -> list[list[int]]:
    """Integer basis of the right kernel of an integer matrix with ncols columns."""
    rows = [[Fraction(x) for x in row] for row in matrix if any(row)]
    pivots = gauss_jordan(rows, ncols)
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
