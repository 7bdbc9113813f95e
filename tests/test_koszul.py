import itertools
import json
import random
import tracemalloc
from fractions import Fraction
from math import comb, prod

import pytest

from segre_syzygies.errors import CapacityError, ConsistencyError
from segre_syzygies.koszul import (
    DEFAULT_CAPACITY,
    _block_new_dimension,
    _Complex,
    _Merge,
    _slice,
    _wedge_levels,
    koszul_homology,
    new_syzygy_dimension,
    schur_extract,
)
from segre_syzygies.linalg import rank
from segre_syzygies.partitions import compositions, gl_dimension

from reference import (
    _merged_maps,
    _MergedMap,
    _unpack,
    columns,
    filtered_wedges,
    gauss_jordan,
    kernel_basis,
    leftover,
    merged_weights,
)


def all_weights(dims, total):
    """Every flat weight whose factors each sum to total."""
    for rows in itertools.product(*(compositions(total, n) for n in dims)):
        yield tuple(itertools.chain.from_iterable(rows))


def nest(flat, dims):
    out, start = [], 0
    for n in dims:
        out.append(tuple(flat[start : start + n]))
        start += n
    return tuple(out)


def dominant(weight):
    """A nested weight with each factor sorted in decreasing order."""
    return tuple(tuple(sorted(comp, reverse=True)) for comp in weight)


def full_table(report):
    """Every weight's non-zero multiplicity, read back from the report's CSV."""
    table = {}
    for line in report.weights_csv().splitlines()[1:]:
        label, mult = line.rsplit(",", 1)
        table[tuple(tuple(map(int, comp.split(","))) for comp in label.split(";"))] = int(mult)
    return table


def matmul(a, b, inner):
    cols = len(b[0]) if b else 0
    return [[sum(a[r][k] * b[k][c] for k in range(inner)) for c in range(cols)] for r in range(len(a))]


def dense(cx, source, target):
    """The Koszul differential between two blocks as a dense matrix, rows
    indexed by target and columns by source, read off the transposed rows
    of `images`, keyed by source position."""
    rows = cx.images(source, target)
    assert len(rows) == len(target)
    m = [[0] * len(source) for _ in range(len(target))]
    for row, image in zip(m, rows):
        for col, x in image.items():
            assert 0 <= col < len(source)
            row[col] += x
    return m


def map_matrix(fine, mm, weight, merged_block, fine_block):
    """The merged-to-fine chain map between two blocks at one fine weight:
    the ring map on the ring part, the wedge kept, with coefficient 1.  A
    fine element is named by its wedge, so the ring map must give the weight
    that the wedge leaves over."""
    m = [[0] * len(merged_block) for _ in range(len(fine_block))]
    for (r, wedge), col in merged_block.items():
        assert mm.map_ring(r) == leftover(fine.positions, weight, wedge), (weight, r, wedge)
        m[fine_block[wedge]][col] += 1
    return m


def inclusion(block, fine_block):
    """A merged block's chain map into the fine block at the same fine
    weight: each wedge to itself, with coefficient 1."""
    m = [[0] * len(block) for _ in range(len(fine_block))]
    for wedge, col in block.items():
        m[fine_block[wedge]][col] += 1
    return m


def raised(positions, r, wedge):
    """The weight of an element: its ring exponents, one up at each
    coordinate of each label of its wedge."""
    weight = list(r)
    for k in wedge:
        for q in positions[k]:
            weight[q] += 1
    return tuple(weight)


def pair_merges(fine):
    """The library's merges of two factors, in pair order, as the cosocle
    builds them."""
    return [_Merge(fine, i, j) for i, j in itertools.combinations(range(len(fine.dims)), 2)]


def merged_blocks(merge, fine_blocks, weight, count):
    """The blocks of each of count merged weights over a fine weight: the
    wedges of each fine block that `fits` lists under it, numbered in the
    fine block's order."""
    out = [[{} for _ in fine_blocks] for _ in range(count)]
    for piece, fine_block in enumerate(fine_blocks):
        wedges = list(fine_block)
        for s, x in merge.fits(weight)(fine_block):
            out[x][piece][wedges[s]] = len(out[x][piece])
    return out


def set_partitions(n):
    """All set partitions of range(n), blocks sorted by least element."""
    if n == 0:
        yield ()
        return
    for rest in set_partitions(n - 1):
        yield rest + ((n - 1,),)
        for k in range(len(rest)):
            yield rest[:k] + (rest[k] + (n - 1,),) + rest[k + 1 :]


def nondiscrete_groupings(n):
    return [u for u in set_partitions(n) if any(len(block) > 1 for block in u)]


def reference_new_dimension(fine, pieces, groupings, weight):
    """New syzygies at one weight from explicit kernel bases: cycles modulo
    the boundaries and the images of the cycles of every given grouping."""
    levels = _wedge_levels(fine.positions, weight, pieces[0][1])
    left, mid, right = fine.blocks(pieces, weight, levels)
    cycles = kernel_basis(dense(fine, mid, right), len(mid))
    old = [[Fraction(x) for x in col] for col in zip(*dense(fine, left, mid))]
    for mm in groupings:
        source, target = mm.blocks(pieces[1:], weight, levels)
        images = map_matrix(fine, mm, weight, source, mid)
        for vec in kernel_basis(dense(mm, source, target), len(source)):
            old.append([sum(a * b for a, b in zip(row, vec)) for row in images])
    return len(cycles) - len(gauss_jordan(old, len(mid)))


def grown_levels(positions, top, weight):
    """The levels 0..top of wedges that the walk grows at a weight, as
    (wedge, unpacked weight left over); the levels after an empty one are
    empty."""
    levels = _wedge_levels(positions, weight, top)
    assert len(levels) == top + 1 or not levels[-1]
    levels += [[]] * (top + 1 - len(levels))
    return [[(wedge, _unpack(left, len(weight))) for left, wedge in level] for level in levels]


def test_wedges_match_filtered_combinations():
    # the one walk, over the fine labels at balanced and unbalanced weights;
    # the wedges of each level that each merge lists under each merged
    # weight over the balanced ones, against all wedges filtered on the
    # merged labels; a piece of negative wedge degree is empty
    for dims in [(2, 3), (2, 2, 2)]:
        fine = _Complex(dims, DEFAULT_CAPACITY)
        balanced = [w for total in (1, 2, 3) for w in all_weights(dims, total)]
        weights = balanced + list(itertools.product((0, 1, 2), repeat=sum(dims)))[::7]
        pairs = list(itertools.combinations(range(len(dims)), 2))
        merges = list(zip(pairs, pair_merges(fine), _merged_maps(fine)))
        for w in weights:
            levels = grown_levels(fine.positions, 4, w)
            for j in range(5):
                assert levels[j] == filtered_wedges(fine.positions, j, w), (dims, w, j)
            walked = _wedge_levels(fine.positions, w, 4)
            assert fine.blocks([(0, -1)], w, walked) == [{}]
            if w not in balanced:
                continue
            blocks = [{wedge: s for s, (wedge, _) in enumerate(level)} for level in levels]
            for pair, merge, mm in merges:
                tables = merged_weights(dims, pair, w)
                for merged, by_level in zip(tables, merged_blocks(merge, blocks, w, len(tables))):
                    for j, block in enumerate(by_level):
                        expected = filtered_wedges(mm.positions, j, merged)
                        assert list(block) == [wedge for wedge, _ in expected], (dims, w, j)


def test_differential_squares_to_zero():
    # every basis element of piece (i, j), as the union of its weight blocks;
    # a fine element is named by its weight and its block key, the wedge
    for dims in [(2, 2), (2, 3), (2, 2, 2)]:
        cx = _Complex(dims, DEFAULT_CAPACITY)
        for i in range(0, 3):
            for j in range(2, 4):
                seen = set()
                for w in all_weights(dims, i + j):
                    levels = _wedge_levels(cx.positions, w, j)
                    source, mid, target = cx.blocks([(i + k, j - k) for k in range(3)], w, levels)
                    seen.update((w, key) for key in source)
                    once = dense(cx, source, mid)
                    twice = matmul(dense(cx, mid, target), once, len(mid))
                    assert all(not any(row) for row in twice), (dims, i, j, w)
                ring = prod(comb(n + i - 1, i) for n in dims)
                assert len(seen) == ring * comb(len(cx.positions), j)


def test_ground_truth_p1():
    report = koszul_homology((2, 2), 1, 2)
    assert report.dimension == 1
    assert report.decomposition == {((1, 1), (1, 1)): 1}
    report = koszul_homology((2, 2, 2), 1, 2)
    assert report.dimension == 9
    assert report.decomposition == {
        ((2,), (1, 1), (1, 1)): 1,
        ((1, 1), (2,), (1, 1)): 1,
        ((1, 1), (1, 1), (2,)): 1,
    }
    for d in (3, 4):
        assert koszul_homology((2, 2), 1, d).dimension == 0


def test_ground_truth_p2():
    report = koszul_homology((2, 3), 2, 3)
    assert report.dimension == 2
    assert report.decomposition == {((2, 1), (1, 1, 1)): 1}


def test_single_factor_and_ones_vanish():
    for dims in [(1,), (3,), (1, 1), (1, 1, 1)]:
        for p in (1, 2):
            for d in range(0, 5):
                assert koszul_homology(dims, p, d).dimension == 0, (dims, p, d)


def test_p0_is_the_ground_field():
    assert koszul_homology((2, 2), 0, 0).dimension == 1
    for d in (1, 2, 3):
        assert koszul_homology((2, 2), 0, d).dimension == 0


def test_report_dimension_matches_decomposition():
    report = koszul_homology((2, 2, 2), 2, 3)
    total = 0
    for lams, mult in report.decomposition.items():
        prod = mult
        for f, lam in enumerate(lams):
            prod *= gl_dimension(lam, report.dims[f])
        total += prod
    assert total == report.dimension


def test_weight_table_symmetry():
    table = full_table(koszul_homology((2, 3), 1, 2))
    for weight, mult in table.items():
        for f in range(2):
            comp = weight[f]
            for a, b in itertools.combinations(range(len(comp)), 2):
                swapped = list(comp)
                swapped[a], swapped[b] = swapped[b], swapped[a]
                permuted = weight[:f] + (tuple(swapped),) + weight[f + 1 :]
                assert table.get(permuted, 0) == mult


def symmetry_guard_cases():
    # criterion 6 and 7's grid, then three larger dims at p = 2, 3 in the
    # first two degrees of the support ((2, 2, 3) at p = 3, d = 6 alone
    # would take seconds at every weight)
    for p in (1, 2):
        for n in (1, 2, 3):
            for dims in itertools.product((1, 2), repeat=n):
                for d in range(0, 2 * p + 3):
                    yield dims, p, d
    for dims in [(2, 3), (3, 3), (2, 2, 3)]:
        for p in (2, 3):
            for d in (p + 1, p + 2):
                yield dims, p, d


def test_weight_table_matches_every_block():
    # the report computes canonical dominant weights only and its CSV reads
    # every other weight off them; here every weight of the middle piece is
    # computed directly
    for dims, p, d in symmetry_guard_cases():
        report = koszul_homology(dims, p, d)
        _, _, pieces, fine = _slice(dims, p, d, DEFAULT_CAPACITY)
        direct = {}
        for w in all_weights(dims, d):
            h = _block_new_dimension(fine, pieces, [], w)
            if h:
                direct[nest(w, dims)] = h
        assert direct == full_table(report), (dims, p, d)
        expected = {w: h for w, h in direct.items() if dominant(w) == w}
        assert report.weight_table == expected, (dims, p, d)


def unrestricted_new_dimension(fine, pieces, merges, weight):
    """`_block_new_dimension` with every middle row kept and no early exit:
    the cycles less the rank of the whole stack of boundaries and merged
    chain maps over their differentials, plus the differentials' ranks."""
    levels = _wedge_levels(fine.positions, weight, pieces[1][1] + 1)
    left, mid, right = fine.blocks(pieces, weight, levels)
    differential = fine.images(mid, right)
    stack = fine.images(left, mid)
    offset, diff_ranks = len(left), 0
    for merge in merges:
        fits = merge.fits(weight)
        column = {pair: offset + c for c, pair in enumerate(fits(mid))}
        for (s, _), c in column.items():
            stack[s][c] = 1
        diff = [
            {column[s, x]: e for s, e in differential[r].items() if (s, x) in column}
            for r, x in fits(right)
        ]
        stack += diff
        offset += len(column)
        diff_ranks += rank(diff)
    return len(mid) - rank(differential) - rank(stack) + diff_ranks


def test_ranks_on_free_coordinates_match_the_unrestricted_ranks():
    # the library ranks the boundaries, and the cosocle's stack, only at the
    # middle positions where no pivot of the outgoing differential leads;
    # every rank, and so every dimension, is that of the whole rows: for the
    # homology on the grid, and for the cosocle of two factors or more in
    # the grid's first degree, d = p + 1, and at (2, 2, 2), p = 2, d = 3
    for dims, p, d in [*symmetry_guard_cases(), ((2, 2, 2), 2, 3)]:
        _, _, pieces, fine = _slice(dims, p, d, DEFAULT_CAPACITY)
        stacks = [[], pair_merges(fine)] if len(dims) > 1 and d == p + 1 else [[]]
        for w in all_weights(dims, d):
            for merges in stacks:
                expected = unrestricted_new_dimension(fine, pieces, merges, w)
                got = _block_new_dimension(fine, pieces, merges, w)
                assert got == expected, (dims, p, d, w, len(merges))


def test_new_syzygies_agree_at_non_dominant_weights():
    for dims in [(2, 3), (2, 2, 2)]:
        _, _, pieces, fine = _slice(dims, 2, 3, DEFAULT_CAPACITY)
        merges = pair_merges(fine)
        direct = {}
        for w in all_weights(dims, 3):
            v = _block_new_dimension(fine, pieces, merges, w)
            nested = nest(w, dims)
            if v:
                direct[nested] = v
            top = dominant(nested)
            if top != nested:
                flat = tuple(itertools.chain.from_iterable(top))
                assert v == _block_new_dimension(fine, pieces, merges, flat), (dims, w)
        dim, decomp = new_syzygy_dimension(dims, 2, 3)
        assert sum(direct.values()) == dim
        assert schur_extract({w: v for w, v in direct.items() if dominant(w) == w}, dims) == decomp


def test_new_syzygies_match_kernel_reference():
    # the library merges two factors at a time, as subcomplexes of the fine
    # blocks, and takes integer ranks; the reference builds kernel bases and
    # merges over every non-discrete grouping, each on its own ring
    cases = [
        ((2, 2), 1, 2),
        ((2, 3), 2, 3),
        ((2, 2, 2), 1, 2),
        ((2, 2, 2), 2, 3),
        ((2, 2, 3), 2, 3),
        ((2, 2, 2, 2), 1, 2),
    ]
    assert len(nondiscrete_groupings(4)) == 14  # Bell(4) - 1
    for dims, p, d in cases:
        _, _, pieces, fine = _slice(dims, p, d, DEFAULT_CAPACITY)
        merges = pair_merges(fine)
        groupings = [_MergedMap(fine, u) for u in nondiscrete_groupings(len(dims))]
        for w in all_weights(dims, d):
            expected = reference_new_dimension(fine, pieces, groupings, w)
            assert _block_new_dimension(fine, pieces, merges, w) == expected, (dims, p, d, w)


def test_factor_permutation_equivariance():
    base = koszul_homology((2, 3), 2, 3)
    swapped = koszul_homology((3, 2), 2, 3)
    assert swapped.dimension == base.dimension
    expected = {tuple(reversed(lams)): m for lams, m in base.decomposition.items()}
    assert swapped.decomposition == expected


def test_rank_invariant_under_basis_order():
    rng = random.Random(7)
    m = [[rng.randint(-3, 3) for _ in range(8)] for _ in range(6)]
    base = rank(columns(m, 8))
    for _ in range(5):
        rows = m[:]
        rng.shuffle(rows)
        cols = list(range(8))
        rng.shuffle(cols)
        shuffled = [[row[c] for c in cols] for row in rows]
        assert rank(columns(shuffled, 8)) == base


def test_schur_extract_examples():
    # C^2 (x) C^2: its one dominant weight
    assert schur_extract({((1, 0), (1, 0)): 1}, (2, 2)) == {((1,), (1,)): 1}
    assert schur_extract({((1, 1), (1, 1)): 1}, (2, 2)) == {((1, 1), (1, 1)): 1}
    sym2 = {((2, 0),): 1, ((1, 1),): 1}
    assert schur_extract(sym2, (2,)) == {((2,),): 1}


def test_schur_extract_rejects_bad_tables():
    with pytest.raises(ConsistencyError):
        schur_extract({((0, 1),): 1}, (2,))  # lone non-dominant weight
    with pytest.raises(ConsistencyError):
        # missing middle weight of Sym^2: subtraction goes negative
        schur_extract({((2, 0),): 1}, (2,))


def test_schur_extract_checks_the_shape_against_dims():
    with pytest.raises(ValueError, match="shape"):
        schur_extract({((1, 0),): 1, ((0, 1),): 1}, (2, 7))  # one factor for two
    with pytest.raises(ValueError, match="shape"):
        schur_extract({((1, 0, 0),): 1}, (2,))  # three entries on C^2


def test_capacity_error_reports_sizes():
    with pytest.raises(CapacityError) as err:
        koszul_homology((2, 2), 1, 2, capacity=3)
    assert "capacity 3" in str(err.value)
    with pytest.raises(CapacityError):
        new_syzygy_dimension((2, 2), 1, 2, capacity=3)


@pytest.mark.parametrize(
    "dims, p, d, capacity, expected",
    [
        ((2, 2, 2), 1, 2, 8, (0, {})),
        ((2, 3), 2, 3, 9, (2, {((2, 1), (1, 1, 1)): 1})),
        ((2, 2, 3), 2, 3, 27, (0, {})),
        ((3, 3), 3, 4, 24, (9, {((2, 1, 1), (2, 1, 1)): 1})),
        ((2, 5), 3, 4, 24, (15, {((3, 1), (1, 1, 1, 1)): 1})),
    ],
)
def test_capacity_bounds_blocks_alone(dims, p, d, capacity, expected):
    # the smallest capacity the homology's own blocks admit; each merged
    # block is a subset of a fine one, so the cosocle needs no more
    with pytest.raises(CapacityError):
        koszul_homology(dims, p, d, capacity=capacity - 1)
    koszul_homology(dims, p, d, capacity=capacity)
    assert new_syzygy_dimension(dims, p, d, capacity=capacity) == expected


@pytest.mark.parametrize("capacity", [0, -5])
def test_capacity_below_one_is_a_usage_error(capacity):
    # not a capacity limit: no block, however small, could be admitted
    with pytest.raises(ValueError, match="capacity must be at least 1"):
        koszul_homology((2, 2), 1, 2, capacity=capacity)
    with pytest.raises(ValueError, match="capacity must be at least 1"):
        new_syzygy_dimension((2, 2), 1, 2, capacity=capacity)


def test_new_syzygy_examples():
    dim, decomp = new_syzygy_dimension((2, 2), 1, 2)
    assert dim == 1
    assert decomp == {((1, 1), (1, 1)): 1}
    dim, decomp = new_syzygy_dimension((2, 2, 2), 1, 2)
    assert dim == 0 and decomp == {}
    dim, decomp = new_syzygy_dimension((2, 2, 3), 2, 3)
    assert dim == 0 and decomp == {}


def test_new_syzygy_master_relation_for_p2():
    # the 2-syzygy of a product of two lines is new at two factors
    dim, decomp = new_syzygy_dimension((2, 3), 2, 3)
    assert dim == 2
    assert decomp == {((2, 1), (1, 1, 1)): 1}


def test_new_syzygy_requires_two_factors():
    with pytest.raises(ValueError):
        new_syzygy_dimension((4,), 1, 2)


def test_new_syzygy_single_merge_keeps_everything():
    # with two factors the only merge is a single projective space, whose
    # higher syzygies vanish, so nothing is old
    full = koszul_homology((2, 4), 1, 2).dimension
    assert new_syzygy_dimension((2, 4), 1, 2)[0] == full == 6


def test_new_syzygy_two_factor_generator_covers_three_factors():
    assert koszul_homology((2, 2, 2), 2, 3).dimension == 16
    assert new_syzygy_dimension((2, 2, 2), 2, 3)[0] == 0


def test_new_syzygy_zero_homology_needs_no_merge():
    # the homology is zero at every weight here, so no merged block is built
    assert koszul_homology((2, 2, 2, 2), 3, 5).dimension == 0
    assert new_syzygy_dimension((2, 2, 2, 2), 3, 5) == (0, {})


def test_former_limits_of_the_oracle():
    # answers taken from the dense Bareiss ranks the oracle used before its
    # sparse elimination, where each case took 7-24 s
    report = koszul_homology((5, 5), 4, 6)
    assert report.dimension == 2500
    assert report.decomposition == {((2, 2, 2), (2, 2, 2)): 1}
    assert koszul_homology((3, 3, 3), 3, 5).dimension == 0
    dim, decomp = new_syzygy_dimension((3, 3, 3), 3, 4)
    assert dim == 351
    assert decomp == {
        ((2, 2), (2, 2), (2, 1, 1)): 1,
        ((2, 2), (2, 1, 1), (2, 2)): 1,
        ((2, 1, 1), (2, 2), (2, 2)): 1,
        ((2, 1, 1), (2, 1, 1), (2, 1, 1)): 1,
    }
    # the cosocle merging factors of unequal size has the same Schur tuples
    dim, decomp = new_syzygy_dimension((3, 3, 4), 3, 4)
    assert dim == 1395
    assert decomp == {
        ((2, 2), (2, 2), (2, 1, 1)): 1,
        ((2, 2), (2, 1, 1), (2, 2)): 1,
        ((2, 1, 1), (2, 2), (2, 2)): 1,
        ((2, 1, 1), (2, 1, 1), (2, 1, 1)): 1,
    }
    assert new_syzygy_dimension((2, 2, 2, 2), 3, 4)[0] == 0
    # the sparse elimination's own former limits, 2-5 s each when ranked as columns
    for dims, d in [((4, 4, 4), 5), ((3, 3, 3), 6)]:
        report = koszul_homology(dims, 3, d)
        assert (report.dimension, report.decomposition) == (0, {})


def test_first_cosocle_at_p4():
    # the merges at p = 4 of three equal factors; the Schur tuples are
    # invariant under permuting the factors
    dim, decomp = new_syzygy_dimension((3, 3, 3), 4, 5)
    assert dim == 5832
    assert len(decomp) == 22 and sum(decomp.values()) == 30
    assert decomp[(2, 2, 1), (2, 2, 1), (2, 2, 1)] == 3
    assert decomp[(4, 1), (2, 2, 1), (2, 2, 1)] == 1
    for s in itertools.permutations(range(3)):
        assert {tuple(lams[f] for f in s): m for lams, m in decomp.items()} == decomp


def test_merged_chain_map_commutes_with_differentials():
    # every merged basis element of piece (i, j), as the union of its blocks,
    # each named by its fine weight, its merged weight and its wedge
    for dims in [(2, 2), (2, 3), (2, 2, 2)]:
        fine = _Complex(dims, DEFAULT_CAPACITY)
        pairs = itertools.combinations(range(len(dims)), 2)
        for (a, b), merge in zip(pairs, pair_merges(fine)):
            merged_dims = [dims[a] * dims[b]] + [n for f, n in enumerate(dims) if f not in (a, b)]
            for i, j in [(1, 2), (0, 2), (2, 1)]:
                pieces = [(i + k, j - k) for k in range(2)]
                seen = set()
                for w in all_weights(dims, i + j):
                    ends = fine.blocks(pieces, w, _wedge_levels(fine.positions, w, j))
                    tables = merged_weights(dims, (a, b), w)
                    for merged, blocks in zip(tables, merged_blocks(merge, ends, w, len(tables))):
                        seen.update((w, merged, wedge) for wedge in blocks[0])
                        mapped_then_diff = matmul(
                            dense(fine, *ends), inclusion(blocks[0], ends[0]), len(ends[0])
                        )
                        diff_then_mapped = matmul(
                            inclusion(blocks[1], ends[1]), dense(fine, *blocks), len(blocks[1])
                        )
                        assert mapped_then_diff == diff_then_mapped, (dims, a, b, i, j, merged)
                ring = prod(comb(n + i - 1, i) for n in merged_dims)
                assert len(seen) == ring * comb(len(fine.positions), j)


def test_merged_blocks_keep_the_product_order():
    # a merge lists the (position, W) pairs of a fine block by position,
    # then by the merged weight's place among the merged factor's
    # compositions with the right margins; named by (merged weight, wedge),
    # they are the reference's (ring exponents, wedge) keys in its order,
    # whose pair groupings put the merged factor's coordinates first, as
    # `_Merge` does
    for dims in [(2, 2, 2), (2, 3)]:
        fine = _Complex(dims, DEFAULT_CAPACITY)
        pairs = itertools.combinations(range(len(dims)), 2)
        for pair, merge, mm in zip(pairs, pair_merges(fine), _merged_maps(fine)):
            for total in range(4):
                for w in all_weights(dims, total):
                    tables = merged_weights(dims, pair, w)
                    levels = _wedge_levels(fine.positions, w, total)
                    for j, level in enumerate(levels):
                        fine_block = fine.level_block(level)
                        wedges = list(fine_block)
                        listed = merge.fits(w)(fine_block)
                        assert listed == sorted(set(listed)), (dims, pair, w, j)
                        stacked = [(tables[x], wedges[s]) for s, x in listed]
                        (reference,) = mm.blocks([(total - j, j)], w, levels)
                        assert stacked == [
                            (raised(mm.positions, r, wedge), wedge) for r, wedge in reference
                        ], (dims, pair, w, j)


class _ListsMiddleWedges:
    """A stand-in merge that lists the first `count` wedges of a middle block
    of wedge degree p under one merged weight, and no target wedge.  It
    records the wedge degree of each block its lister is called on."""

    def __init__(self, p, count):
        self.p, self.count = p, count
        self.listed = []

    def fits(self, weight):
        return self.pairs

    def pairs(self, block):
        degree = len(next(iter(block), ()))
        self.listed.append(degree)
        if degree != self.p:
            return []
        return [(s, 0) for s in range(min(self.count, len(block)))]


def test_only_a_merged_weight_holding_every_middle_wedge_skips_the_ranks():
    # at (1, 1, 1, 1) of the quadric's slice the homology is one class in 3
    # cycles of 4 middle wedges; a merged weight with every middle wedge
    # makes every cycle old before the right block is listed, while one
    # with all but one goes on to list it and rank the stack
    _, _, pieces, fine = _slice((2, 2), 1, 2, DEFAULT_CAPACITY)
    weight = (1, 1, 1, 1)
    assert _block_new_dimension(fine, pieces, [], weight) == 1
    every = _ListsMiddleWedges(1, 4)
    assert _block_new_dimension(fine, pieces, [every], weight) == 0
    assert every.listed == [1]
    all_but_one = _ListsMiddleWedges(1, 3)
    _block_new_dimension(fine, pieces, [all_but_one], weight)
    assert all_but_one.listed == [1, 0]


def test_merged_blocks_table_only_the_factors_pieces():
    # a merged ring of dims (16, 4, 4) has 326400 monomials of degree 3; a
    # merge lists only pairs of a fine block's wedges and the merged weights
    # they fit under, as many as that ring pairs with over the weight
    tracemalloc.start()
    try:
        _, _, pieces, fine = _slice((4, 4, 4, 4), 4, 6, DEFAULT_CAPACITY)
        weight = (3, 3, 0, 0) * 4
        blocks = fine.blocks(pieces[1:], weight, _wedge_levels(fine.positions, weight, 4))
        listers = [merge.fits(weight) for merge in pair_merges(fine)]
        sizes = [[len(fits(block)) for block in blocks] for fits in listers]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes == [[1544, 912]] * 6
    assert peak < 64 * 2**20


def test_bidegree_takes_whole_numbers_only():
    # a float p or d once failed deep in the blocks, or reached the report
    report = koszul_homology((2, 2), 1, 2)
    for p, d in ((1.0, 2), (1, 2.0)):
        other = koszul_homology((2, 2), p, d)
        assert type(other.p) is int and type(other.d) is int
        assert json.dumps(other.to_json()) == json.dumps(report.to_json())
    assert new_syzygy_dimension((2, 2, 2), 1.0, 2.0) == new_syzygy_dimension((2, 2, 2), 1, 2)
    for p, d in ((1.5, 2), (1, 2.5)):
        with pytest.raises(ValueError, match="integer"):
            koszul_homology((2, 2), p, d)
        with pytest.raises(ValueError, match="integer"):
            new_syzygy_dimension((2, 2, 2), p, d)


def test_report_json_shape():
    report = koszul_homology((2, 2), 1, 2)
    payload = report.to_json()
    assert payload == {
        "p": 1,
        "d": 2,
        "dims": [2, 2],
        "dimension": 1,
        "decomposition": [{"lambdas": [[1, 1], [1, 1]], "mult": 1}],
    }
    csv_text = report.weights_csv()
    assert csv_text.splitlines()[0] == "weight,multiplicity"
    assert len(csv_text.splitlines()) == 2


def test_series_oracle_agreement_spot():
    from segre_syzygies.series import TruncationPolicy, dimension_on_factors, f_segre, order_normalize

    star = order_normalize(f_segre(1, TruncationPolicy(3, 2)))
    for dims in [(1, 1), (2, 1), (2, 2), (3, 2), (2, 2, 2), (3, 1, 2)]:
        got = koszul_homology(dims, 1, 2).dimension
        assert got == dimension_on_factors(star, dims, 2), dims


def test_quadric_resolution():
    # the two-factor product of lines is a quadric hypersurface: one
    # generator in degree 2 and nothing after
    assert koszul_homology((2, 2), 1, 2).dimension == 1
    for p in (2, 3):
        for d in range(8):
            assert koszul_homology((2, 2), p, d).dimension == 0, (p, d)


def test_scroll_resolution():
    # P^1 x P^2: Eagon-Northcott complex, Betti numbers (1, 3, 2)
    assert koszul_homology((2, 3), 1, 2).dimension == 3
    assert koszul_homology((2, 3), 2, 3).dimension == 2
    for d in range(8):
        assert koszul_homology((2, 3), 3, d).dimension == 0, d


def test_cube_resolution_is_gorenstein():
    # P^1 x P^1 x P^1 in P^7: Betti numbers (1, 9, 16, 9, 1) in degrees
    # 0, 2, 3, 4, 6, with a one-dimensional socle
    assert koszul_homology((2, 2, 2), 1, 2).dimension == 9
    assert koszul_homology((2, 2, 2), 2, 3).dimension == 16
    assert koszul_homology((2, 2, 2), 3, 4).dimension == 9
    assert koszul_homology((2, 2, 2), 3, 5).dimension == 0
    socle = koszul_homology((2, 2, 2), 4, 6)
    assert socle.dimension == 1
    assert socle.decomposition == {((3, 3), (3, 3), (3, 3)): 1}
    assert koszul_homology((2, 2, 2), 4, 5).dimension == 0
    for d in (6, 7):
        assert koszul_homology((2, 2, 2), 5, d).dimension == 0


def test_series_oracle_agreement_p3():
    from segre_syzygies.series import TruncationPolicy, dimension_on_factors, f_segre, order_normalize

    star = order_normalize(f_segre(3, TruncationPolicy(4, 6)))
    expected = {(2, 2): 0, (2, 3): 0, (3, 3): 9, (2, 2, 2): 9, (2, 2, 3): 126}
    for dims, value in expected.items():
        assert dimension_on_factors(star, dims, 4) == value
    for dims in [*expected, (2, 2, 2, 2), (4, 4)]:
        for d in (4, 5):
            predicted = dimension_on_factors(star, dims, d)
            assert koszul_homology(dims, 3, d).dimension == predicted, (dims, d)
    # past the whole-piece budget: the largest piece of this slice has
    # 224000 elements, but no weight block comes near it
    assert koszul_homology((4, 4), 3, 6).dimension == dimension_on_factors(star, (4, 4), 6) == 0


def test_series_oracle_agreement_full_grid():
    from segre_syzygies.series import TruncationPolicy, dimension_on_factors, f_segre, order_normalize

    stars = {p: order_normalize(f_segre(p, TruncationPolicy(3, 2 * p))) for p in (1, 2)}
    for p in (1, 2):
        for n in (2, 3):
            for dims in itertools.product((1, 2, 3), repeat=n):
                for d in range(p + 1, 2 * p + 1):
                    predicted = dimension_on_factors(stars[p], dims, d)
                    actual = koszul_homology(dims, p, d).dimension
                    assert predicted == actual, (dims, p, d)


def test_oracle_matches_lascoux_order_two_slice():
    # Lascoux's resolution of the 2x2 minors gives the whole order-two slice
    # at every p; each ordering of a monomial's partitions whose rows fit
    # the dims is one Schur tuple of the two-factor homology
    from segre_syzygies.series import lascoux_leading

    cases = [
        ((4, 4), 4, 6, 100),
        ((3, 5), 4, 6, 50),
        ((3, 6), 5, 7, 630),
        ((6, 6), 4, 6, 30625),  # weights up to 6, packed in 4-bit digits
    ]
    for dims, p, d, dimension in cases:
        expected = {}
        for mono, coeff in lascoux_leading(p, d).terms.items():
            for tup in itertools.permutations(mono):
                if all(len(lam) <= n for lam, n in zip(tup, dims)):
                    expected[tup] = expected.get(tup, 0) + coeff
        report = koszul_homology(dims, p, d)
        assert report.decomposition == expected, (dims, p, d)
        assert report.dimension == dimension, (dims, p, d)


def test_oracle_matches_f4_degree5():
    # the Euler slice determines the degree-5 part of f_4 at every order
    from segre_syzygies.series import dimension_on_factors, f4_degree5, order_normalize

    star = order_normalize(f4_degree5())
    expected = {(2, 2, 3): 84, (2, 2, 2, 2): 1408, (4, 4): 288, (3, 3, 3): 30456}
    for dims, dimension in expected.items():
        assert dimension_on_factors(star, dims, 5) == dimension
        assert koszul_homology(dims, 4, 5).dimension == dimension, dims


def test_oracle_is_gorenstein_self_dual():
    # a Segre product of polynomial rings with equal dims is Gorenstein
    # (Goto and Watanabe), so the minimal resolution of (2,2,2,2) is
    # self-dual: (p, d) pairs with (11 - p, 14 - d), and each factor's Schur
    # label (a, b) with (7 - b, 7 - a)
    def dual(lam):
        a, b = (lam + (0,))[:2]
        return tuple(x for x in (7 - b, 7 - a) if x)

    for (p, d), (q, c), dimension in [((5, 7), (6, 7), 192), ((4, 6), (7, 8), 28)]:
        report = koszul_homology((2, 2, 2, 2), p, d)
        mirror = koszul_homology((2, 2, 2, 2), q, c)
        dualized = {tuple(map(dual, tup)): n for tup, n in report.decomposition.items()}
        assert dualized == mirror.decomposition, (p, d)
        assert report.dimension == mirror.dimension == dimension, (p, d)
