"""Exact linear algebra over the integers and rationals.

`rank` uses fraction-free (Bareiss) elimination on arbitrary-precision
integers.  It is the Koszul oracle's only elimination: every homology and
new-syzygy dimension is a difference of ranks of integer blocks, so no
division and no kernel basis is needed there.  `gauss_jordan` is the one
field elimination, over any exact field (Fractions, or fractions of
polynomials), and serves the recurrence solving of rational reconstruction.
"""

from __future__ import annotations


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
