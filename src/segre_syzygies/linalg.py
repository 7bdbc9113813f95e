"""Exact linear algebra by one fraction-free elimination.

`echelon` is Bareiss elimination: every division in it is exact, so it runs
on any integral domain whose `//` is exact division, without forming a
fraction.  It serves the Koszul oracle through `rank` on arbitrary-precision
integers (every homology and new-syzygy dimension is a difference of ranks
of integer blocks), and rational reconstruction on integers or on
multivariate polynomials.
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
    return len(echelon([row[:] for row in matrix], ncols))


def echelon(rows: list[list], ncols: int) -> list[int]:
    """Reduce rows in place to fraction-free echelon form on the first ncols columns.

    Columns past ncols (an augmented side) are carried along but never
    pivoted.  Returns the pivot columns: row k has its first non-zero entry
    at column pivots[k], equal to the determinant of the input's minor on
    the rows now at 0..k and the columns pivots[:k + 1]; the rows after the
    last pivot vanish on the first ncols columns.
    """
    nrows = len(rows)
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r][c]
        row_r = rows[r]
        trivial = pivot == prev
        for i in range(r + 1, nrows):
            row_i = rows[i]
            head = row_i[c]
            if not head:
                if not trivial:
                    rows[i] = [(pivot * x) // prev for x in row_i]
                continue
            rows[i] = [
                (pivot * x - head * y) // prev
                for x, y in zip(row_i, row_r)
            ]
            rows[i][c] = 0
        prev = pivot
        pivots.append(c)
        r += 1
    return pivots
