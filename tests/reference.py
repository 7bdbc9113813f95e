"""The tests' independent references: field elimination over Fractions;
the wedges that fit under a weight, by filtering all of them;
Littlewood-Richardson coefficients, by a search over the fillings of each
target shape; and multinomial sums, term by term.

The library eliminates without fractions in `segre_syzygies.linalg`:
sparse integer vectors for `rank`, Bareiss rows for `echelon`.  These
routines divide by every pivot of a dense matrix instead, so a check built
on them does not share that code path.  The library grows the wedges that
fit under a weight level by level, on a packed weight; here every subset of
labels is tried on the weight's tuple of entries.  The library grows a
Schur product strip by strip, building only the shapes that occur; here
every partition of the right size is a candidate, and each one's lattice
fillings are counted by backtracking, cell by cell.  The library sums a
multinomial series in closed form; here its coefficients are added up term
by term, by the gate's brute-force `_direct_monomial_sums`.
"""

import itertools
from fractions import Fraction

from segre_syzygies.acceptance import _direct_monomial_sums


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


def kernel_basis(matrix, ncols):
    """Fraction basis of the right kernel of a matrix with ncols columns."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    pivots = gauss_jordan(rows, ncols)
    basis = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -rows[r][free]
        basis.append(vec)
    return basis


def columns(matrix, ncols):
    """The columns of a dense matrix with ncols columns, as the sparse
    vectors `rank` takes, keeping zero entries so that it must drop them."""
    return [{i: row[c] for i, row in enumerate(matrix)} for c in range(ncols)]


def leftover(positions, weight, wedge):
    """The weight a wedge leaves over: one off each entry that a label of the
    wedge covers, at the fine label positions."""
    left = list(weight)
    for k in wedge:
        for q in positions[k]:
            left[q] -= 1
    return tuple(left)


def filtered_wedges(positions, j, weight):
    """Every j-subset of labels whose fine weight fits under weight, with the
    weight left over, by filtering all of them, in decreasing order."""
    out = []
    for wedge in itertools.combinations(range(len(positions)), j):
        left = leftover(positions, weight, wedge)
        if min(left) >= 0:
            out.append((wedge, left))
    return out[::-1]


def lr_fillings(outer, inner, content) -> int:
    """Count the lattice semistandard fillings of outer/inner with the content.

    Cells are visited row by row, right to left, so the prefix of the filling
    seen so far is exactly a prefix of the reverse reading word.
    """
    if len(inner) > len(outer) or any(a < b for a, b in zip(outer, inner)):
        return 0
    inner = tuple(inner) + (0,) * (len(outer) - len(inner))
    cells = [(r, c) for r in range(len(outer)) for c in range(outer[r] - 1, inner[r] - 1, -1)]
    filling: dict[tuple[int, int], int] = {}
    counts = [0] * (len(content) + 1)

    def backtrack(pos: int) -> int:
        if pos == len(cells):
            return 1
        r, c = cells[pos]
        total = 0
        for v in range(1, len(content) + 1):
            if counts[v] >= content[v - 1]:
                continue
            if v >= 2 and counts[v] >= counts[v - 1]:
                continue  # lattice word condition
            right = filling.get((r, c + 1))
            if right is not None and v > right:
                continue  # rows weakly increase
            above = filling.get((r - 1, c))
            if above is not None and v <= above:
                continue  # columns strictly increase
            counts[v] += 1
            filling[(r, c)] = v
            total += backtrack(pos + 1)
            del filling[(r, c)]
            counts[v] -= 1
        return total

    return backtrack(0)


def partitions(n, largest=None):
    """Every partition of n with parts at most largest (default n)."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, n if largest is None else largest), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


def lr_product(lam, mu) -> dict:
    """The Schur product of lam and mu by trying every partition of its size,
    each coefficient counted by `lr_fillings`; zeros are dropped."""
    out = {}
    for nu in partitions(sum(lam) + sum(mu)):
        n = lr_fillings(nu, lam, mu)
        if n:
            out[nu] = n
    return out


def direct_multinomial_sum(poly, e, d, nterms):
    """The first nterms coefficients of sum_k p(k) C_{k+e} t^{|k|}, by brute
    force, for p given as {expo: coefficient}."""
    e = tuple(e)
    sums = _direct_monomial_sums(poly, [e], d, nterms)[e]
    return [
        sum((Fraction(c) * sums[expo][n] for expo, c in poly.items()), Fraction(0))
        for n in range(nterms)
    ]
