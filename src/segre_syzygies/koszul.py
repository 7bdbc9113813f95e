"""Brute-force syzygy spaces of Segre embeddings at fixed dimensions.

The degree-d part of the p-th syzygy space is the middle homology of the
three-term slice of the Koszul complex over the ambient polynomial ring,
with terms built from graded pieces of the Segre coordinate ring tensored
with exterior powers of the space of degree-one coordinates.  Differentials
never mix torus weights, so the slice splits into one small dense integer
block per weight, and every rank is taken on such a block.

Each block is built from its weight.  The wedges of each exterior degree are
grouped by weight once; the block of a piece at weight w pairs each wedge
whose weight fits under w with the one ring monomial that makes up the
difference, so the ring basis is never enumerated.  The homology is a
representation of GL(d_1) x ... x GL(d_n), and factors of equal dimension
may be swapped, so its weight multiplicities are constant on orbits of the
Weyl group and of those swaps.  Only canonical dominant weights are computed
(each factor weakly decreasing, equal-size factors in non-increasing order),
and the weight table is filled by orbit.

The "new syzygy" computation quotients the homology by everything induced
from coarser groupings of the tensor factors.  A merged coordinate ring
surjects onto the fine one, and the induced chain map carries merged cycles
onto the old classes.  Every coarser grouping's chain map factors through
the complex that merges just two of its factors, so only the C(n, 2) pair
merges are built.  The dimension of the old classes is read off integer
ranks of one stacked matrix, with no kernel basis.  The merged complexes use
the same block builder, with their ring monomials and wedges grouped by the
fine weight of their image.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb, prod
from operator import sub

from .errors import CapacityError, ConsistencyError
from .linalg import rank
from .partitions import Partition, compositions, gl_dimension, kostka, partitions_of

DEFAULT_CAPACITY = 200_000

Dims = tuple[int, ...]
Weight = tuple[tuple[int, ...], ...]
FlatWeight = tuple[int, ...]  # the factors' rows of a weight, concatenated
Wedge = tuple[int, ...]  # increasing labels of tensor basis elements
Element = tuple[tuple[int, ...], Wedge]  # (flat ring exponents, wedge)
Block = dict[Element, int]  # basis element -> position


def check_dims(dims) -> Dims:
    out = tuple(int(x) for x in dims)
    if not out or any(x < 1 for x in out):
        raise ValueError(f"dims must be a non-empty tuple of positive integers: {dims}")
    return out


def graded_ring_dimension(dims: Dims, i: int) -> int:
    """Dimension of the degree-i piece of the Segre coordinate ring."""
    if i < 0:
        raise ValueError("i must be non-negative")
    return prod(comb(d + i - 1, i) for d in dims)


@dataclass(frozen=True)
class HomologyReport:
    p: int
    d: int
    dims: Dims
    dimension: int
    weight_table: dict[Weight, int] = field(compare=False)
    decomposition: dict[tuple[Partition, ...], int] = field(compare=False)

    def to_json(self) -> dict:
        decomposition = [
            {"lambdas": [list(lam) for lam in lams], "mult": mult}
            for lams, mult in sorted(self.decomposition.items())
        ]
        return {
            "p": self.p,
            "d": self.d,
            "dims": list(self.dims),
            "dimension": self.dimension,
            "decomposition": decomposition,
        }

    def weights_csv(self) -> str:
        lines = ["weight,multiplicity"]
        for w in sorted(self.weight_table):
            label = ";".join(",".join(map(str, comp)) for comp in w)
            lines.append(f"{label},{self.weight_table[w]}")
        return "\n".join(lines) + "\n"


class _Complex:
    """The Koszul complex of a Segre ring, with its bases grouped by fine weight.

    Tensor basis elements are labelled by lexicographic position.  Label k is
    the degree-one coordinate whose exponents sit at `positions[k]` of a flat
    ring exponent vector (one per factor) and whose fine weight sits at
    `weight_positions[k]`.  In the fine complex the two agree, so a ring
    monomial is its own weight.
    """

    def __init__(self, dims: Dims, capacity: int):
        self.dims = dims
        self.capacity = capacity
        offsets = list(itertools.accumulate(dims, initial=0))
        self.positions = [
            tuple(offsets[f] + a for f, a in enumerate(idx))
            for idx in itertools.product(*(range(n) for n in dims))
        ]
        self.weight_positions = self.positions
        self.width = offsets[-1]
        self._wedges: dict[int, dict[FlatWeight, list[Wedge]]] = {}

    def _check_capacity(self, what: str, size: int) -> None:
        if size > self.capacity:
            raise CapacityError(
                f"{what} has {size} elements, over capacity {self.capacity} "
                f"for dims {self.dims}"
            )

    def live(self, i: int, j: int) -> bool:
        return i >= 0 and 0 <= j <= len(self.positions)

    def prepare(self, pieces) -> None:
        """Build the tables of the non-empty pieces, checking their sizes."""
        for i, j in pieces:
            if self.live(i, j):
                self.wedge_table(j)

    def wedge_table(self, j: int) -> dict[FlatWeight, list[Wedge]]:
        """The wedges of degree j, grouped by fine weight."""
        if j not in self._wedges:
            self._check_capacity(f"wedge table of degree {j}", comb(len(self.positions), j))
            table: dict[FlatWeight, list[Wedge]] = {}
            for wedge in itertools.combinations(range(len(self.positions)), j):
                w = [0] * self.width
                for k in wedge:
                    for q in self.weight_positions[k]:
                        w[q] += 1
                table.setdefault(tuple(w), []).append(wedge)
            self._wedges[j] = table
        return self._wedges[j]

    def rings(self, i: int, weight: FlatWeight):
        """The ring monomials of degree i and the given fine weight."""
        return (weight,) if min(weight) >= 0 else ()

    def block(self, i: int, j: int, weight: FlatWeight) -> Block:
        """The basis of piece (i, j) at a fine weight, numbered in order."""
        if not self.live(i, j):
            return {}
        block: Block = {}
        for ww, wedges in self.wedge_table(j).items():
            for r in self.rings(i, tuple(map(sub, weight, ww))):
                for wedge in wedges:
                    block[(r, wedge)] = len(block)
        self._check_capacity(f"block of piece {(i, j)} at weight {weight}", len(block))
        return block

    def differential(self, source: Block, target: Block) -> list[list[int]]:
        """Dense matrix of the Koszul differential from a block to the block
        of the next piece at the same weight."""
        rows = [[0] * len(source) for _ in range(len(target))]
        for (r, wedge), col in source.items():
            for t, k in enumerate(wedge):
                bumped = list(r)
                for q in self.positions[k]:
                    bumped[q] += 1
                row = target[(tuple(bumped), wedge[:t] + wedge[t + 1 :])]
                rows[row][col] += -1 if t % 2 else 1
        return rows


def _slice(dims: Dims, p: int, d: int, capacity: int):
    """The three pieces (ring degree, wedge degree) of the bidegree (p, d)
    slice and the fine complex, after the argument and capacity checks."""
    if p < 0 or d < 0:
        raise ValueError("p and d must be non-negative")
    pieces = [(d - p - 1, p + 1), (d - p, p), (d - p + 1, p - 1)]
    fine = _Complex(dims, capacity)
    fine.prepare(pieces)
    return pieces, fine


def _block_homology(fine: _Complex, pieces, weight: FlatWeight) -> int:
    """Dimension of the middle homology of the slice at one weight."""
    left, mid, right = (fine.block(i, j, weight) for i, j in pieces)
    if not mid:
        return 0
    out_rank = rank(fine.differential(mid, right))
    in_rank = rank(fine.differential(left, mid))
    h = len(mid) - out_rank - in_rank
    if h < 0:
        raise ConsistencyError(f"negative homology dimension at weight {weight}")
    return h


def _canonical_weights(dims: Dims, d: int):
    """Weights with every factor a partition of d, padded to the factor's
    dimension, and equal-size factors in non-increasing order."""
    rows = [[lam + (0,) * (n - len(lam)) for lam in partitions_of(d, n)] for n in dims]
    later = [
        next((g for g in range(f + 1, len(dims)) if dims[g] == dims[f]), None)
        for f in range(len(dims))
    ]
    for weight in itertools.product(*rows):
        if all(g is None or weight[f] >= weight[g] for f, g in enumerate(later)):
            yield weight


def _arrangements(items):
    """The distinct orderings of a sequence."""
    if not items:
        yield ()
        return
    for x in sorted(set(items)):
        rest = list(items)
        rest.remove(x)
        for tail in _arrangements(rest):
            yield (x,) + tail


def _orbit(weight: Weight, dims: Dims):
    """The weights reached by permuting each factor's entries and swapping
    factors of equal size."""
    groups = [[f for f, n in enumerate(dims) if n == size] for size in set(dims)]
    for arranged in itertools.product(*(_arrangements([weight[f] for f in g]) for g in groups)):
        rows = [()] * len(dims)
        for g, group_rows in zip(groups, arranged):
            for f, row in zip(g, group_rows):
                rows[f] = row
        yield from itertools.product(*(_arrangements(row) for row in rows))


def _weight_table(dims: Dims, d: int, value) -> dict[Weight, int]:
    """Non-zero values of an orbit-invariant weight function, computed at the
    canonical dominant weights of total d per factor, in weight order."""
    table = {}
    for weight in _canonical_weights(dims, d):
        v = value(tuple(itertools.chain.from_iterable(weight)))
        if v:
            for image in _orbit(weight, dims):
                table[image] = v
    return dict(sorted(table.items()))


def koszul_homology(
    dims, p: int, d: int, capacity: int = DEFAULT_CAPACITY
) -> HomologyReport:
    """Middle homology of the three-term Koszul slice at bidegree (p, d)."""
    dims = check_dims(dims)
    pieces, fine = _slice(dims, p, d, capacity)
    weight_table = _weight_table(dims, d, lambda w: _block_homology(fine, pieces, w))
    decomposition = schur_extract(weight_table, dims)
    dimension = sum(weight_table.values())
    check = sum(
        mult * prod(gl_dimension(lam, dims[f]) for f, lam in enumerate(lams))
        for lams, mult in decomposition.items()
    )
    if check != dimension:
        raise ConsistencyError(
            f"decomposition sums to {check}, homology dimension is {dimension}"
        )
    return HomologyReport(p, d, dims, dimension, weight_table, decomposition)


def _weight_diagram(lam: Partition, dim: int) -> dict[tuple[int, ...], int]:
    """Weight multiplicities of the Schur functor for lam on C^dim."""
    out = {}
    for comp in compositions(sum(lam), dim):
        k = kostka(lam, comp)
        if k:
            out[comp] = k
    return out


def schur_extract(
    weight_table: dict[Weight, int], dims
) -> dict[tuple[Partition, ...], int]:
    """Peel a product-of-GLs weight table into Schur-tuple multiplicities."""
    dims = check_dims(dims)
    table = {w: m for w, m in weight_table.items() if m}
    if any(m < 0 for m in table.values()):
        raise ConsistencyError("weight table has negative multiplicities")
    decomposition: dict[tuple[Partition, ...], int] = {}
    while table:
        top = max(table)
        for comp in top:
            if any(comp[i] < comp[i + 1] for i in range(len(comp) - 1)):
                raise ConsistencyError(
                    f"maximal weight {top} is not dominant; not a polynomial character"
                )
        mult = table[top]
        lams = tuple(tuple(x for x in comp if x) for comp in top)
        decomposition[lams] = decomposition.get(lams, 0) + mult
        diagrams = [_weight_diagram(lam, dims[f]) for f, lam in enumerate(lams)]
        for combo in itertools.product(*(dg.items() for dg in diagrams)):
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


class _MergedMap(_Complex):
    """The complex of a merged grouping, with its chain map into the fine complex.

    Each merged factor is a tensor product of fine factors; its basis is
    enumerated by lexicographic tuples, so every merged basis datum decodes
    to fine data.  On ring elements the map expands merged monomials
    factor-wise; on wedge elements it relabels and sorts, tracking parity.
    Ring monomials and wedges are grouped by the fine weight of their image.
    """

    def __init__(self, fine: _Complex, blocks: tuple[tuple[int, ...], ...]):
        dims = fine.dims
        block_tuples = [
            list(itertools.product(*(range(dims[x]) for x in block))) for block in blocks
        ]
        super().__init__(tuple(len(bt) for bt in block_tuples), fine.capacity)
        offsets = list(itertools.accumulate(dims, initial=0))
        # the fine weight positions of each merged ring coordinate
        self.coordinate_images = [
            tuple(offsets[x] + a for x, a in zip(block, t))
            for block, tuples in zip(blocks, block_tuples)
            for t in tuples
        ]
        strides = [prod(dims[x + 1 :]) for x in range(len(dims))]
        self.fine_labels = [
            sum(
                a * strides[x]
                for block, tuples, m in zip(blocks, block_tuples, idx)
                for x, a in zip(block, tuples[m])
            )
            for idx in itertools.product(*(range(n) for n in self.dims))
        ]
        self.weight_positions = [fine.positions[k] for k in self.fine_labels]
        self.width = fine.width
        self._rings: dict[int, dict[FlatWeight, list[tuple[int, ...]]]] = {}

    def prepare(self, pieces) -> None:
        super().prepare(pieces)
        for i, j in pieces:
            if self.live(i, j):
                self.ring_table(i)

    def ring_table(self, i: int) -> dict[FlatWeight, list[tuple[int, ...]]]:
        """The merged ring monomials of degree i, grouped by fine weight."""
        if i not in self._rings:
            self._check_capacity(f"ring table of degree {i}", graded_ring_dimension(self.dims, i))
            table: dict[FlatWeight, list[tuple[int, ...]]] = {}
            for combo in itertools.product(*(compositions(i, n) for n in self.dims)):
                r = tuple(itertools.chain.from_iterable(combo))
                table.setdefault(self.map_ring(r), []).append(r)
            self._rings[i] = table
        return self._rings[i]

    def rings(self, i: int, weight: FlatWeight):
        return self.ring_table(i).get(weight, ())

    def map_ring(self, r: tuple[int, ...]) -> FlatWeight:
        fine = [0] * self.width
        for c, e in enumerate(r):
            if e:
                for q in self.coordinate_images[c]:
                    fine[q] += e
        return tuple(fine)

    def map_element(self, r: tuple[int, ...], wedge: Wedge) -> tuple[int, Element]:
        images = [self.fine_labels[k] for k in wedge]
        keyed = sorted(range(len(images)), key=images.__getitem__)
        return _permutation_sign(keyed), (self.map_ring(r), tuple(images[t] for t in keyed))


def _permutation_sign(perm: list[int]) -> int:
    sign = 1
    seen = [False] * len(perm)
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        x = start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _merged_maps(fine: _Complex, pieces) -> list[_MergedMap]:
    """The merged complexes of the groupings that merge exactly two factors,
    with the tables of the slice's middle and right pieces built.

    These suffice: a grouping with a block holding factors i and j has a
    coordinate ring that surjects onto the one merging only i and j, which
    surjects onto the fine one, so its chain map into the fine complex
    factors through the complex of that pair.
    """
    n = len(fine.dims)
    merges = []
    for pair in itertools.combinations(range(n), 2):
        mm = _MergedMap(fine, (pair, *((k,) for k in range(n) if k not in pair)))
        mm.prepare(pieces[1:])
        merges.append(mm)
    return merges


def _block_new_dimension(
    fine: _Complex, pieces, merges: list[_MergedMap], weight: FlatWeight
) -> int:
    """Dimension of the new syzygies at one weight: cycles modulo boundaries
    and the images of merged cycles.

    With B the boundaries into the middle block, and M_k and D_k the chain
    map and the differential of merge k, the old classes span
    B + sum_k M_k ker D_k, of dimension
    rank [[B, M_1, M_2, ...], [0, D_1, 0, ...], [0, 0, D_2, ...], ...] - sum_k rank D_k.
    """
    left, mid, right = (fine.block(i, j, weight) for i, j in pieces)
    if not mid:
        return 0
    cycles = len(mid) - rank(fine.differential(mid, right))
    if not cycles:
        return 0
    # merges with cycles at this weight: (merge, source block, D, rank D)
    merged = []
    for mm in merges:
        source, target = (mm.block(i, j, weight) for i, j in pieces[1:])
        if source:
            diff = mm.differential(source, target)
            diff_rank = rank(diff)
            if diff_rank < len(source):
                merged.append((mm, source, diff, diff_rank))
    width = len(left) + sum(len(source) for _, source, _, _ in merged)
    rows = [row + [0] * (width - len(left)) for row in fine.differential(left, mid)]
    offset = len(left)
    for mm, source, diff, _ in merged:
        for elem, col in source.items():
            sign, image = mm.map_element(*elem)
            rows[mid[image]][offset + col] += sign
        tail = width - offset - len(source)
        rows.extend([0] * offset + row + [0] * tail for row in diff)
        offset += len(source)
    old = rank(rows) - sum(diff_rank for *_, diff_rank in merged)
    new_dim = cycles - old
    if new_dim < 0:
        raise ConsistencyError(f"old classes exceed cycles at weight {weight}")
    return new_dim


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
    pieces, fine = _slice(dims, p, d, capacity)
    merges = _merged_maps(fine, pieces)
    table = _weight_table(
        dims, d, lambda w: _block_new_dimension(fine, pieces, merges, w)
    )
    return sum(table.values()), schur_extract(table, dims)
