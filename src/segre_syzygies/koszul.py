"""Brute-force syzygy spaces of Segre embeddings at fixed dimensions.

The degree-d part of the p-th syzygy space is the middle homology of the
three-term slice of the Koszul complex over the ambient polynomial ring,
with terms built from graded pieces of the Segre coordinate ring tensored
with exterior powers of the space of degree-one coordinates.  Differentials
never mix torus weights, so the slice splits into one block per weight, and
every rank is taken there, exactly over Z, on the sparse rows of a transposed
differential: one per target element, keyed by source position, with one
entry +-1 per wedge label of each source element.  The outgoing
differential is eliminated first, and the cycles are as many as the middle
positions at which none of its pivots leads.  On the leads the pivots are
triangular, so a cycle that vanishes at every free position vanishes, and
the boundaries, which are cycles, are ranked on the free positions alone.

Each block is built from its weight alone.  The wedges that fit under w grow
level by level, degree j from degree j - 1, and each is paired with the one
ring monomial that makes up the difference, the weight the wedge leaves
over, so no ring basis and no whole exterior power is ever enumerated, the
wedge alone names its element, and the differential finds each image by
dropping a label.
The walk carries the weight left over as one packed int, whose guard bits
tell in one subtraction whether a label still fits.  The homology is a
representation of GL(d_1) x ... x GL(d_n), fixed by its multiplicities at
dominant weights (each factor weakly decreasing).  Only the canonical ones,
with equal-size factors in non-increasing order, are computed and copied to
their factor swaps; the Schur decomposition is peeled over dominant weights
alone, and the dimension is summed over Weyl orbits.

The "new syzygy" computation quotients the homology by everything induced
from coarser groupings of the tensor factors.  Every coarser grouping's
chain map factors through the complex that merges just two of its factors,
so only the C(n, 2) pair merges are built.  A merged Segre variety lies in
the same projective space as the fine one, on the same wedge labels, so at
a fine weight w a merge's complex is a direct sum of subcomplexes of w's
block, one per merged weight W: a d_i x d_j table whose row and column sums
are w's rows of the two factors, beside w's other rows.  The summand at W
holds the wedges of w's block with no more labels at each table cell than
W, its differential is the fine one restricted to them, and the chain map
is the inclusion of wedges.  If one W holds every middle wedge, every cycle
is old.  Integer ranks of one stacked set of rows count the old classes,
with no kernel basis, numbering a merge's elements by their wedge's position
in the fine block, then by W, where elimination fills in less than W by W.
The old classes are cycles too, so the stack also keeps only the free
positions' rows.
"""

from __future__ import annotations

import itertools
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field
from math import factorial, prod

from .errors import CapacityError, ConsistencyError
from .linalg import leads, rank, whole, wholes
from .partitions import Partition, _complete, compositions, gl_dimension, partitions_of

DEFAULT_CAPACITY = 200_000

Dims = tuple[int, ...]
Weight = tuple[tuple[int, ...], ...]
FlatWeight = tuple[int, ...]  # the factors' rows of a weight, concatenated
Wedge = tuple[int, ...]  # increasing labels of tensor basis elements
# a basis element is named by its wedge alone, since its ring monomial is the
# weight the wedge leaves over
Block = dict[Wedge, int]  # wedge -> position


def check_dims(dims) -> Dims:
    dims = wholes(dims, "dims", 1)
    if not dims:
        raise ValueError("dims must be a non-empty tuple of positive integers")
    return dims


def decomposition_json(decomposition: dict[tuple[Partition, ...], int]) -> list[dict]:
    """Schur-tuple multiplicities as JSON records, in tuple order."""
    return [
        {"lambdas": [list(lam) for lam in lams], "mult": mult}
        for lams, mult in sorted(decomposition.items())
    ]


@dataclass(frozen=True)
class HomologyReport:
    """The syzygy space at bidegree (p, d).  weight_table holds the non-zero
    multiplicities at dominant weights only (each factor weakly decreasing);
    any other weight has the multiplicity of its factors sorted decreasingly."""

    p: int
    d: int
    dims: Dims
    dimension: int
    weight_table: dict[Weight, int] = field(compare=False)
    decomposition: dict[tuple[Partition, ...], int] = field(compare=False)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "d": self.d,
            "dims": list(self.dims),
            "dimension": self.dimension,
            "decomposition": decomposition_json(self.decomposition),
        }

    def weights_csv(self) -> str:
        """Every weight with a non-zero multiplicity, in weight order."""
        lines = ["weight,multiplicity"]
        for w in sorted(itertools.product(*(compositions(self.d, n) for n in self.dims))):
            mult = self.weight_table.get(tuple(tuple(sorted(comp, reverse=True)) for comp in w))
            if mult:
                label = ";".join(",".join(map(str, comp)) for comp in w)
                lines.append(f"{label},{mult}")
        return "\n".join(lines) + "\n"


class _Complex:
    """The Koszul complex of a Segre ring, built a weight's blocks at a time.

    Tensor basis elements are labelled by lexicographic position of their
    fine index tuples.  Label k is the degree-one coordinate whose exponents
    sit at `positions[k]` of a flat ring exponent vector (one per factor).
    In the fine complex a ring monomial is its own weight, and the weight a
    wedge leaves over is the ring monomial of its block element, so a block
    keys each element by its wedge alone.
    """

    def __init__(self, dims: Dims, capacity: int):
        self.dims = dims
        self.capacity = whole(capacity, "capacity", 1)
        offsets = list(itertools.accumulate(dims, initial=0))
        self.positions = [
            tuple(offsets[f] + a for f, a in enumerate(idx))
            for idx in itertools.product(*(range(n) for n in dims))
        ]

    def blocks(self, pieces, weight: FlatWeight, levels) -> list[Block]:
        """The bases of the pieces (i, j) at a weight, numbered in order, over
        the levels of `_wedge_levels` at that weight."""
        out = []
        for i, j in pieces:
            block = self.level_block(levels[j] if 0 <= j < len(levels) else ())
            if len(block) > self.capacity:
                raise CapacityError(
                    f"block of piece {(i, j)} at weight {weight} has {len(block)} elements, "
                    f"over capacity {self.capacity} for dims {self.dims}"
                )
            out.append(block)
        return out

    def level_block(self, level) -> Block:
        """The block over a level: each wedge names its element, whose ring
        monomial is the weight the wedge leaves over."""
        return {wedge: s for s, (_, wedge) in enumerate(level)}

    def images(self, source: Block, target: Block) -> list[dict[int, int]]:
        """The Koszul differential from a block to the block of the next piece
        at the same weight, transposed: one row per target element, in block
        order, as {s: coefficient} for source position s.  Dropping label t
        of a wedge names its image, whose ring monomial takes up the label's
        content, so each source element has one entry +-1 per label.  `rank`
        leads each row at its latest source element."""
        rows = [{} for _ in range(len(target))]
        for t in range(len(next(iter(source), ()))):  # a block's wedges share a degree
            sign = -1 if t % 2 else 1
            for s, wedge in enumerate(source):
                rows[target[wedge[:t] + wedge[t + 1 :]]][s] = sign
        return rows


def _pack(weight: FlatWeight, width: int) -> int:
    """A flat weight of entries below 2**(width - 1) as one int: entry q is
    digit q, of width bits, with its top bit, the guard, set."""
    top = 1 << (width - 1)
    return sum((top | x) << (width * q) for q, x in enumerate(weight))


def _wedge_levels(positions, weight: FlatWeight, top: int) -> list[list[tuple[int, Wedge]]]:
    """The wedges that fit under a weight, by degree 0..top, over the fine
    complex's label positions; the walk stops early at an empty level.
    Level j holds the wedges of degree j that fit, as (packed weight left
    over, wedge), in decreasing lexicographic order, which ranks faster.
    Label k goes before the wedges of level j - 1 that start above k: they
    lead it.

    The weight is packed by `_pack` in digits of max(weight).bit_length() + 1
    bits, and a label's content as a 1 in the digit of each of its
    coordinates, one per factor.  Subtracting a content borrows from no
    neighbouring digit and clears a digit's guard exactly where its entry
    was 0, so a label fits exactly when every guard survives.  Labels that do
    not fit under the weight itself are dropped before the walk."""
    n = len(weight)
    width = max(weight).bit_length() + 1
    guard = _pack((0,) * n, width)
    packed = _pack(weight, width)
    contents = ((k, sum(1 << (width * q) for q in qs)) for k, qs in enumerate(positions))
    labels = [(k, c) for k, c in contents if (packed - c) & guard == guard]
    levels = [[(packed, ())]]
    while len(levels) <= top and levels[-1]:
        j = len(levels) - 1
        grown = []
        for k, content in reversed(labels[: max(len(labels) - j, 0)]):
            for left, rest in levels[-1]:
                if rest and rest[0] <= k:
                    break
                if (fit := left - content) & guard == guard:
                    grown.append((fit, (k, *rest)))
        levels.append(grown)
    return levels


def _slice(dims: Dims, p: int, d: int, capacity: int):
    """The bidegree (p, d) as ints, the three pieces (ring degree, wedge
    degree) of its slice and the fine complex, after the argument check."""
    p, d = wholes((p, d), "p and d", 0)
    pieces = [(d - p - 1, p + 1), (d - p, p), (d - p + 1, p - 1)]
    return p, d, pieces, _Complex(dims, capacity)


def _canonical_weights(dims: Dims, d: int):
    """Dominant weights of total d per factor, with equal-size factors in
    non-increasing order."""
    rows = [[lam + (0,) * (n - len(lam)) for lam in partitions_of(d, n)] for n in dims]
    later = [
        next((g for g in range(f + 1, len(dims)) if dims[g] == dims[f]), None)
        for f in range(len(dims))
    ]
    for weight in itertools.product(*rows):
        if all(g is None or weight[f] >= weight[g] for f, g in enumerate(later)):
            yield weight


def _weight_table(dims: Dims, d: int, value) -> dict[Weight, int]:
    """Non-zero values of an orbit-invariant weight function at the dominant
    weights of total d per factor, in weight order: computed at the canonical
    ones and copied to the weights reached by swapping equal-size factors."""
    positions = itertools.permutations(range(len(dims)))
    swaps = [s for s in positions if all(dims[f] == dims[g] for f, g in enumerate(s))]
    table = {}
    for weight in _canonical_weights(dims, d):
        v = value(tuple(itertools.chain.from_iterable(weight)))
        if v:
            for s in swaps:
                table[tuple(weight[g] for g in s)] = v
    return dict(sorted(table.items()))


def _orbit_size(weight: Weight) -> int:
    """The number of distinct rearrangements of a weight's factors."""
    return prod(factorial(len(c)) // prod(factorial(c.count(x)) for x in set(c)) for c in weight)


def _dimension_and_decomposition(
    table: dict[Weight, int], dims: Dims
) -> tuple[int, dict[tuple[Partition, ...], int]]:
    """Dimension, summed over the Weyl orbits of a dominant weight table, and
    Schur-tuple decomposition, cross-checked by the Weyl dimension formula."""
    decomposition = schur_extract(table, dims)
    dimension = sum(m * _orbit_size(w) for w, m in table.items())
    check = sum(
        mult * prod(gl_dimension(lam, dims[f]) for f, lam in enumerate(lams))
        for lams, mult in decomposition.items()
    )
    if check != dimension:
        raise ConsistencyError(f"decomposition sums to {check}, weight orbits to {dimension}")
    return dimension, decomposition


def koszul_homology(
    dims, p: int, d: int, capacity: int = DEFAULT_CAPACITY
) -> HomologyReport:
    """Middle homology of the three-term Koszul slice at bidegree (p, d)."""
    dims = check_dims(dims)
    p, d, pieces, fine = _slice(dims, p, d, capacity)
    weight_table = _weight_table(dims, d, lambda w: _block_new_dimension(fine, pieces, [], w))
    dimension, decomposition = _dimension_and_decomposition(weight_table, dims)
    return HomologyReport(p, d, dims, dimension, weight_table, decomposition)


def schur_extract(
    weight_table: dict[Weight, int], dims
) -> dict[tuple[Partition, ...], int]:
    """Peel a product-of-GLs weight table, at dominant weights only, into
    Schur-tuple multiplicities.  The largest weight left is a highest weight;
    its Schur tuple is subtracted at every dominant weight, with the product
    of the factors' Kostka numbers."""
    dims = check_dims(dims)
    table = {w: m for w, m in weight_table.items() if m}
    for w in table:
        if len(w) != len(dims) or any(len(comp) != n for comp, n in zip(w, dims)):
            raise ValueError(f"weight {w} does not have the shape of dims {dims}")
    for w, m in table.items():
        if m < 0 or any(list(comp) != sorted(comp, reverse=True) or min(comp) < 0 for comp in w):
            raise ConsistencyError(f"multiplicity {m} at weight {w}; not a polynomial character")
    decomposition: dict[tuple[Partition, ...], int] = {}
    while table:
        top = max(table)
        mult = table[top]
        lams = tuple(tuple(x for x in comp if x) for comp in top)
        decomposition[lams] = decomposition.get(lams, 0) + mult
        # lam and mu are partitions by construction, so the Kostka numbers
        # are read off the cached product unchecked
        diagrams = [
            [
                (mu + (0,) * (n - len(mu)), k)
                for mu in partitions_of(sum(lam), n)
                if (k := _complete(mu).get(lam, 0))
            ]
            for lam, n in zip(lams, dims)
        ]
        for combo in itertools.product(*diagrams):
            w = tuple(comp for comp, _ in combo)
            k = prod(k for _, k in combo)
            remaining = table.get(w, 0) - mult * k
            if remaining < 0:
                raise ConsistencyError(
                    f"negative multiplicity at weight {w}; not a polynomial character"
                )
            if remaining:
                table[w] = remaining
            else:
                table.pop(w, None)
    return decomposition


def _tables(rows, cols):
    """The tables of non-negative integers with the given row and column
    sums, flat row by row, in decreasing lexicographic order."""
    if not rows:
        if not any(cols):
            yield ()
        return
    for first in compositions(rows[0], len(cols)):
        if all(x <= c for x, c in zip(first, cols)):
            left = tuple(c - x for c, x in zip(cols, first))
            for rest in _tables(rows[1:], left):
                yield first + rest


class _Merge:
    """The complex that merges tensor factors i < j, on the fine labels.

    A merged weight over a fine weight w is a d_i x d_j table whose row and
    column sums are w's rows of factors i and j, beside w's other rows.
    Label k sits at the cell that its indices in factors i and j name.
    """

    def __init__(self, fine: _Complex, i: int, j: int):
        dims = fine.dims
        offsets = list(itertools.accumulate(dims, initial=0))
        self.margins = [range(offsets[f], offsets[f + 1]) for f in (i, j)]
        self.cells = [(qs[i] - offsets[i]) * dims[j] + qs[j] - offsets[j] for qs in fine.positions]

    def fits(self, weight: FlatWeight) -> Callable[[Block], list[tuple[int, int]]]:
        """The lister, for a fine weight, of the pairs (s, W) of a fine
        block's position s and merged weight index W, in `_tables` order,
        where the wedge at s fits under W; by s, then W.  A wedge that fits
        under the weight fits under W exactly when it holds no more labels
        at each cell than W.  The tables are packed once per weight, as
        `_wedge_levels` packs a weight, and a wedge's content is a 1 in the
        digit of each label's cell; a cell holds no more labels than the
        weight's entry at its row, so no digit borrows.  Each distinct
        content is tested once."""
        rows, cols = ([weight[q] for q in margin] for margin in self.margins)
        width = max(weight).bit_length() + 1
        guard = _pack((0,) * (len(rows) * len(cols)), width)
        tables = [_pack(table, width) for table in _tables(rows, cols)]
        cell = [1 << (width * c) for c in self.cells]
        fit: dict[int, list[int]] = {}  # content -> the tables it fits under

        def pairs(block: Block) -> list[tuple[int, int]]:
            listed = []
            for wedge in block:
                content = sum([cell[k] for k in wedge])
                if content not in fit:
                    fit[content] = [
                        x for x, t in enumerate(tables) if (t - content) & guard == guard
                    ]
                listed.append(fit[content])
            return [(s, x) for s, xs in enumerate(listed) for x in xs]

        return pairs


def _block_new_dimension(
    fine: _Complex, pieces, merges: list[_Merge], weight: FlatWeight
) -> int:
    """Dimension of the middle homology of the slice at one weight, modulo
    the images of merged cycles; with no merges, the homology itself.

    With B the boundaries into the middle block, and M_k and D_k the chain
    map and the differential of merge k, the old classes span
    B + sum_k M_k ker D_k, of dimension
    rank [[B, M_1, M_2, ...], [0, D_1, 0, ...], [0, 0, D_2, ...], ...] - sum_k rank D_k.
    Each matrix is held as its rows, as `images` gives them: the rows are the
    middle block's free positions, then each merge's target elements; the
    columns are the boundaries, then each merge's source elements.  A
    merge's elements are the pairs that `_Merge.fits` lists over the middle
    and right blocks, from one packing of the Ws, and its differential is
    the fine one restricted to each W; a source element's column holds its
    chain map image, a 1 in the row of its position, over its differential.
    Every merge is stacked: one with no cycles at the weight raises the
    stack's rank by exactly rank D_k.  If one W holds every middle wedge,
    every cycle is old.

    The free positions are those at which no pivot of the outgoing
    differential leads, one per cycle.  On the leads its pivots are
    triangular, so a cycle is fixed by its free coordinates.  Boundaries
    are cycles, since the differential squares to zero, and so are the
    stack's top parts over merged cycles, since the inclusion is a chain
    map; so dropping the rows at the leads changes no rank, and neither
    dimension can come out negative.
    """
    p = pieces[1][1]
    levels = _wedge_levels(fine.positions, weight, p + 1)
    left, mid, right = fine.blocks(pieces, weight, levels)
    differential = fine.images(mid, right)
    pivots = leads(differential)
    cycles = len(mid) - len(pivots)
    if not cycles:
        return 0
    # the kept boundary rows grow in place into the stack, a merge at a
    # time; a chain-map 1 at a lead falls in a dropped row
    boundaries = fine.images(left, mid)
    stack = [row for s, row in enumerate(boundaries) if s not in pivots]
    homology = cycles - rank(stack)
    if not homology:  # new syzygies are a quotient of the homology
        return 0
    if not merges:
        return homology
    if not p:  # only the unit, at d = 0, has homology, and every merge has it
        return 0
    offset, diff_ranks = len(left), 0
    for merge in merges:
        fits = merge.fits(weight)
        sources = fits(mid)
        if len(mid) in Counter(x for _, x in sources).values():
            return 0
        column = {pair: offset + c for c, pair in enumerate(sources)}
        for (s, _), c in column.items():
            boundaries[s][c] = 1
        diff = [
            {column[s, x]: e for s, e in differential[r].items() if (s, x) in column}
            for r, x in fits(right)
        ]
        stack += diff
        offset += len(column)
        diff_ranks += rank(diff)
    return cycles - (rank(stack) - diff_ranks)


def new_syzygy_dimension(
    dims, p: int, d: int, capacity: int = DEFAULT_CAPACITY
) -> tuple[int, dict[tuple[Partition, ...], int]]:
    """Dimension and decomposition of the syzygies not induced from merges.

    Quotients the cycles of each weight block by the boundaries together
    with the images of the cycles of every complex that merges two tensor
    factors; every dimension is an integer rank.
    """
    dims = check_dims(dims)
    if len(dims) < 2:
        raise ValueError("need at least two tensor factors")
    p, d, pieces, fine = _slice(dims, p, d, capacity)
    # a grouping with factors i and j in one block has a ring that surjects
    # onto the pair merge's, so its chain map factors through that merge
    merges = [_Merge(fine, i, j) for i, j in itertools.combinations(range(len(dims)), 2)]
    table = _weight_table(dims, d, lambda w: _block_new_dimension(fine, pieces, merges, w))
    return _dimension_and_decomposition(table, dims)
