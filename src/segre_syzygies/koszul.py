"""Brute-force syzygy spaces of Segre embeddings at fixed dimensions.

The degree-d part of the p-th syzygy space is the middle homology of the
three-term slice of the Koszul complex over the ambient polynomial ring,
with terms built from graded pieces of the Segre coordinate ring tensored
with exterior powers of the space of degree-one coordinates.  The whole
computation is blocked by torus weight: differentials never mix weights, so
every rank is taken on a small dense integer block.

The "new syzygy" computation quotients the homology by everything induced
from coarser groupings of the tensor factors: for each non-discrete set
partition of the factors, the merged coordinate ring surjects onto the fine
one, and the induced chain map carries merged cycles onto the old classes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from math import comb, prod

from .errors import CapacityError, ConsistencyError
from .linalg import nullspace, rank
from .partitions import Partition, compositions, gl_dimension, kostka

DEFAULT_CAPACITY = 200_000

Dims = tuple[int, ...]
Weight = tuple[tuple[int, ...], ...]
RingElem = tuple[tuple[int, ...], ...]  # one exponent vector per factor
TensorIndex = tuple[int, ...]  # one basis index per factor
Wedge = tuple[TensorIndex, ...]  # strictly increasing in lex order


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


def _ring_basis(dims: Dims, i: int) -> list[RingElem]:
    if i < 0:
        return []
    factors = [list(compositions(i, d)) for d in dims]
    return [tuple(combo) for combo in itertools.product(*factors)]


def _tensor_basis(dims: Dims) -> list[TensorIndex]:
    return [tuple(t) for t in itertools.product(*(range(d) for d in dims))]


def _wedge_basis(tensor: list[TensorIndex], j: int) -> list[Wedge]:
    if j < 0 or j > len(tensor):
        return []
    return [tuple(c) for c in itertools.combinations(tensor, j)]


def _tensor_weight(idx: TensorIndex, dims: Dims) -> Weight:
    return tuple(
        tuple(1 if a == idx[f] else 0 for a in range(dims[f])) for f in range(len(dims))
    )


def _add_weights(a: Weight, b: Weight) -> Weight:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _element_weight(r: RingElem, wedge: Wedge, dims: Dims) -> Weight:
    w: Weight = tuple(tuple(v) for v in r)
    for idx in wedge:
        w = _add_weights(w, _tensor_weight(idx, dims))
    return w


def _multiply_variable(r: RingElem, idx: TensorIndex) -> RingElem:
    return tuple(
        tuple(v + 1 if a == idx[f] else v for a, v in enumerate(row))
        for f, row in enumerate(r)
    )


def differential_terms(r: RingElem, wedge: Wedge):
    """Koszul differential of a basis element, as (sign, ring-part, wedge-part)."""
    for t in range(len(wedge)):
        sign = 1 if t % 2 == 0 else -1
        yield sign, _multiply_variable(r, wedge[t]), wedge[:t] + wedge[t + 1 :]


def _wedge_weight(wedge: Wedge, dims: Dims) -> Weight:
    counts = [[0] * d for d in dims]
    for idx in wedge:
        for f, a in enumerate(idx):
            counts[f][a] += 1
    return tuple(tuple(v) for v in counts)


class _Term:
    """One graded piece of the complex, with its basis grouped by weight."""

    def __init__(self, dims: Dims, i: int, j: int):
        self.dims = dims
        self.i = i
        self.j = j
        self.basis: list[tuple[RingElem, Wedge]] = []
        self.by_weight: dict[Weight, dict[tuple[RingElem, Wedge], int]] = {}
        tensor = _tensor_basis(dims)
        if i < 0 or j < 0 or j > len(tensor):
            return
        ring = _ring_basis(dims, i)
        wedge_weights = [
            (wedge, _wedge_weight(wedge, dims)) for wedge in _wedge_basis(tensor, j)
        ]
        append = self.basis.append
        for r in ring:
            for wedge, ww in wedge_weights:
                elem = (r, wedge)
                append(elem)
                w = _add_weights(r, ww)
                group = self.by_weight.setdefault(w, {})
                group[elem] = len(group)

    def size(self) -> int:
        return len(self.basis)


def _term_size(dims: Dims, i: int, j: int) -> int:
    n_tensor = prod(dims)
    if i < 0 or j < 0 or j > n_tensor:
        return 0
    return graded_ring_dimension(dims, i) * comb(n_tensor, j)


def _check_capacity(dims: Dims, pieces, capacity: int) -> None:
    sizes = {(i, j): _term_size(dims, i, j) for i, j in pieces}
    too_big = {k: v for k, v in sizes.items() if v > capacity}
    if too_big:
        raise CapacityError(
            f"graded pieces exceed capacity {capacity} for dims {dims}: {too_big}"
        )


def _slice(dims: Dims, p: int, d: int, capacity: int):
    """The three pieces (ring degree, wedge degree) of the bidegree (p, d)
    slice, and their terms, after the argument and capacity checks."""
    if p < 0 or d < 0:
        raise ValueError("p and d must be non-negative")
    pieces = [(d - p - 1, p + 1), (d - p, p), (d - p + 1, p - 1)]
    _check_capacity(dims, pieces, capacity)
    return pieces, [_Term(dims, i, j) for i, j in pieces]


def _differential_matrix(
    source: dict[tuple[RingElem, Wedge], int],
    target: dict[tuple[RingElem, Wedge], int],
) -> list[list[int]]:
    """Dense matrix of the Koszul differential between two weight blocks."""
    rows = [[0] * len(source) for _ in range(len(target))]
    for (r, wedge), col in source.items():
        for sign, new_r, rest in differential_terms(r, wedge):
            row = target.get((new_r, rest))
            if row is not None:
                rows[row][col] += sign
    return rows


def koszul_homology(
    dims, p: int, d: int, capacity: int = DEFAULT_CAPACITY
) -> HomologyReport:
    """Middle homology of the three-term Koszul slice at bidegree (p, d)."""
    dims = check_dims(dims)
    _, (left, mid, right) = _slice(dims, p, d, capacity)

    def block_dimension(weight: Weight) -> int:
        mid_block = mid.by_weight[weight]
        out_rank = rank(
            _differential_matrix(mid_block, right.by_weight.get(weight, {}))
        )
        in_rank = rank(
            _differential_matrix(left.by_weight.get(weight, {}), mid_block)
        )
        h = len(mid_block) - out_rank - in_rank
        if h < 0:
            raise ConsistencyError(f"negative homology dimension at weight {weight}")
        return h

    weight_table = {w: h for w in sorted(mid.by_weight) if (h := block_dimension(w))}
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


def set_partitions(n: int):
    """All set partitions of range(n), blocks sorted by least element."""
    if n == 0:
        yield ()
        return
    for rest in set_partitions(n - 1):
        last = n - 1
        yield rest + ((last,),)
        for k in range(len(rest)):
            yield rest[:k] + (rest[k] + (last,),) + rest[k + 1 :]


def _nondiscrete_partitions(n: int) -> list[tuple[tuple[int, ...], ...]]:
    out = [
        u
        for u in set_partitions(n)
        if any(len(block) > 1 for block in u)
    ]
    out.sort(
        key=lambda u: (
            tuple(sorted((len(b) for b in u), reverse=True)),
            u,
        )
    )
    return out


class _MergedMap:
    """Chain map from the complex of a merged grouping into the fine complex.

    Each merged factor is a tensor product of fine factors; its basis is
    enumerated by lexicographic tuples, so every merged basis datum decodes
    to fine data.  On ring elements the map expands merged monomials
    factor-wise; on wedge elements it relabels and sorts, tracking parity.
    """

    def __init__(self, dims: Dims, blocks: tuple[tuple[int, ...], ...]):
        self.dims = dims
        self.blocks = blocks
        self.block_tuples = [
            [tuple(t) for t in itertools.product(*(range(dims[x]) for x in block))]
            for block in blocks
        ]
        self.merged_dims = tuple(len(bt) for bt in self.block_tuples)
        self._fine_order = {idx: pos for pos, idx in enumerate(_tensor_basis(dims))}
        self._n = len(dims)

    def fine_tensor_index(self, merged_idx: TensorIndex) -> TensorIndex:
        fine = [0] * self._n
        for b, i in enumerate(merged_idx):
            for x, a in zip(self.blocks[b], self.block_tuples[b][i]):
                fine[x] = a
        return tuple(fine)

    def map_ring(self, r: RingElem) -> RingElem:
        fine = [[0] * d for d in self.dims]
        for b, expo in enumerate(r):
            for i, e in enumerate(expo):
                if e:
                    for x, a in zip(self.blocks[b], self.block_tuples[b][i]):
                        fine[x][a] += e
        return tuple(tuple(v) for v in fine)

    def map_wedge(self, wedge: Wedge) -> tuple[int, Wedge]:
        images = [self.fine_tensor_index(idx) for idx in wedge]
        keyed = sorted(range(len(images)), key=lambda t: self._fine_order[images[t]])
        sign = _permutation_sign(keyed)
        return sign, tuple(images[t] for t in keyed)

    def map_element(self, r: RingElem, wedge: Wedge) -> tuple[int, RingElem, Wedge]:
        sign, fine_wedge = self.map_wedge(wedge)
        return sign, self.map_ring(r), fine_wedge

    def fine_weight(self, r: RingElem, wedge: Wedge) -> Weight:
        return _element_weight(self.map_ring(r), self.map_wedge(wedge)[1], self.dims)

    def by_fine_weight(
        self, term: _Term
    ) -> dict[Weight, dict[tuple[RingElem, Wedge], int]]:
        """A merged term's basis grouped by the fine weight of its image."""
        groups: dict[Weight, dict[tuple[RingElem, Wedge], int]] = {}
        for elem in term.basis:
            group = groups.setdefault(self.fine_weight(*elem), {})
            group[elem] = len(group)
        return groups


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


def new_syzygy_dimension(
    dims, p: int, d: int, capacity: int = DEFAULT_CAPACITY
) -> tuple[int, dict[tuple[Partition, ...], int]]:
    """Dimension and decomposition of the syzygies not induced from merges.

    Computes explicit cycle representatives of the homology, then quotients
    by the boundaries together with the images of cycles from every merged
    (non-discrete) grouping of the tensor factors.
    """
    dims = check_dims(dims)
    if len(dims) < 2:
        raise ValueError("need at least two tensor factors")
    pieces, (left, mid, right) = _slice(dims, p, d, capacity)

    merges = []
    for blocks in _nondiscrete_partitions(len(dims)):
        mm = _MergedMap(dims, blocks)
        _check_capacity(mm.merged_dims, pieces[1:], capacity)
        # the merged middle and right terms, regrouped by fine weight
        fine_groups, right_groups = [
            mm.by_fine_weight(_Term(mm.merged_dims, i, j)) for i, j in pieces[1:]
        ]
        merges.append((mm, fine_groups, right_groups))

    def block_new_dimension(weight: Weight) -> int:
        mid_block = mid.by_weight[weight]
        out_rank_matrix = _differential_matrix(
            mid_block, right.by_weight.get(weight, {})
        )
        cycles = nullspace(out_rank_matrix, len(mid_block))
        if not cycles:
            return 0
        boundary_matrix = _differential_matrix(
            left.by_weight.get(weight, {}), mid_block
        )
        old_columns: list[list[int]] = []
        # boundaries, as vectors in the middle block
        ncols_in = len(left.by_weight.get(weight, {}))
        for col in range(ncols_in):
            old_columns.append([boundary_matrix[row][col] for row in range(len(mid_block))])
        for mm, fine_groups, right_groups in merges:
            source = fine_groups.get(weight, {})
            if not source:
                continue
            merged_out = _differential_matrix(source, right_groups.get(weight, {}))
            merged_cycles = nullspace(merged_out, len(source))
            if not merged_cycles:
                continue
            images = {}
            for elem, col in source.items():
                sign, r, wedge = mm.map_element(*elem)
                images[col] = (sign, mid_block[(r, wedge)])
            for vec in merged_cycles:
                out = [0] * len(mid_block)
                for col, value in enumerate(vec):
                    if value:
                        sign, row = images[col]
                        out[row] += sign * value
                old_columns.append(out)
        old_rank = rank([[col[i] for col in old_columns] for i in range(len(mid_block))])
        new_dim = len(cycles) - old_rank
        if new_dim < 0:
            raise ConsistencyError(f"old classes exceed cycles at weight {weight}")
        return new_dim

    table = {w: v for w in sorted(mid.by_weight) if (v := block_new_dimension(w))}
    decomposition = schur_extract(table, dims)
    return sum(table.values()), decomposition
