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
by term, by the gate's brute-force `_direct_monomial_sums`.  The library
builds a merged Koszul complex at a fine weight as subcomplexes of the fine
block, one per merged weight; here `_MergedMap` builds it on its own ring,
pairing each wedge with every merged monomial over what it leaves, and
merges any grouping of the factors, not only pairs.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from math import prod

from segre_syzygies.acceptance import _direct_monomial_sums
from segre_syzygies.koszul import _Complex
from segre_syzygies.partitions import compositions


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


def _unpack(packed: int, n: int) -> tuple[int, ...]:
    """The n entries of a packed weight whose guards are all set: the top
    guard is its highest bit, so it fixes the digit width."""
    width = packed.bit_length() // n
    mask = (1 << (width - 1)) - 1
    return tuple(packed >> (width * q) & mask for q in range(n))


class _MergedMap(_Complex):
    """The complex of a merged grouping, with its chain map into the fine complex.

    Each merged factor is a tensor product of fine factors; its basis is
    enumerated by lexicographic tuples, so every merged ring coordinate
    decodes to fine ones.  The wedge labels are the fine ones: label k sits
    at the merged ring coordinates of its fine index tuple, one per block of
    the grouping.  The chain map keeps the wedge and sends each merged
    factor's exponent vector to its margins, the rows of its fine factors.
    A wedge pairs with several merged monomials, so blocks key each element
    by (merged ring exponents, wedge), and `images` names each target by the
    ring monomial bumped at the dropped label's merged coordinates.  An
    element's image under the chain map is the fine element named by its
    wedge.
    """

    def __init__(self, fine: _Complex, blocks: tuple[tuple[int, ...], ...]):
        dims = fine.dims
        # _Complex.__init__ is skipped: its positions would be the merged
        # product basis, and the labels here are the fine ones
        self.dims = tuple(prod(dims[x] for x in block) for block in blocks)
        self.capacity = fine.capacity
        offsets = list(itertools.accumulate(dims, initial=0))
        # the fine weight positions of each merged ring coordinate
        self.coordinate_images = [
            tuple(offsets[x] + a for x, a in zip(block, t))
            for block in blocks
            for t in itertools.product(*(range(dims[x]) for x in block))
        ]
        # the labels stay the fine ones, at the merged coordinates they lie in
        coordinate = {qs: c for c, qs in enumerate(self.coordinate_images)}
        self.positions = [
            tuple(coordinate[tuple(qs[x] for x in block)] for block in blocks)
            for qs in fine.positions
        ]
        self.width = offsets[-1]
        # each merged factor's fine rows of a flat weight, which are its margins
        self.rows = [
            operator.itemgetter(*(offsets[x] + a for x in block for a in range(dims[x])))
            for block in blocks
        ]
        self._tables: dict[int, list[tuple[dict, operator.itemgetter]]] = {}

    def blocks(self, pieces, weight, levels) -> list[dict]:
        # as the fine complex's, with the ring degree i passed on, since it
        # names the merged monomials that pair with each wedge
        return [self.level_block(i, levels[j] if 0 <= j < len(levels) else ()) for i, j in pieces]

    def level_block(self, i: int, level) -> dict:
        # the merged monomials over a fine weight: a product over the merged
        # factors of their vectors of degree i with its rows, in table order;
        # each distinct packed weight left over is unpacked once
        if level and i not in self._tables:
            self._tables[i] = [({}, rows) for rows in self.rows]
            starts = itertools.accumulate(self.dims, initial=0)
            for (table, rows), n, start in zip(self._tables[i], self.dims, starts):
                for c in compositions(i, n):
                    table.setdefault(rows(self.map_ring((0,) * start + c)), []).append(c)
        over: dict[int, list[tuple[int, ...]]] = {}
        block: dict = {}
        for left, wedge in level:
            ring = over.get(left)
            if ring is None:
                flat = _unpack(left, self.width)
                parts = itertools.product(*(t.get(rows(flat), ()) for t, rows in self._tables[i]))
                ring = over[left] = [tuple(itertools.chain(*c)) for c in parts]
            for r in ring:
                block[(r, wedge)] = len(block)
        return block

    def images(self, source: dict, target: dict) -> list[dict[int, int]]:
        # as the fine complex's, with each target named by the ring monomial
        # bumped at the dropped label's merged coordinates and the wedge left
        rows = [{} for _ in range(len(target))]
        for s, (r, wedge) in enumerate(source):
            for t, k in enumerate(wedge):
                bumped = list(r)
                for q in self.positions[k]:
                    bumped[q] += 1
                row = rows[target[(tuple(bumped), wedge[:t] + wedge[t + 1 :])]]
                row[s] = -1 if t % 2 else 1
        return rows

    def map_ring(self, r: tuple[int, ...]) -> tuple[int, ...]:
        fine = [0] * self.width
        for c, e in enumerate(r):
            if e:
                for q in self.coordinate_images[c]:
                    fine[q] += e
        return tuple(fine)


def _merged_maps(fine: _Complex) -> list[_MergedMap]:
    """The merged complexes of the groupings that merge exactly two factors.

    These suffice: a grouping with a block holding factors i and j has a
    coordinate ring that surjects onto the one merging only i and j, which
    surjects onto the fine one, so its chain map into the fine complex
    factors through the complex of that pair.
    """
    n = len(fine.dims)
    return [
        _MergedMap(fine, (pair, *((k,) for k in range(n) if k not in pair)))
        for pair in itertools.combinations(range(n), 2)
    ]
