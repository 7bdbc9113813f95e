import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from segre_syzygies.errors import CapacityError, ConsistencyError
from segre_syzygies.koszul import (
    DEFAULT_CAPACITY,
    _block_homology,
    _block_new_dimension,
    _Complex,
    _merged_maps,
    _MergedMap,
    _slice,
    graded_ring_dimension,
    koszul_homology,
    new_syzygy_dimension,
    schur_extract,
)
from segre_syzygies.linalg import gauss_jordan, rank
from segre_syzygies.partitions import compositions, gl_dimension


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


def matmul(a, b, inner):
    cols = len(b[0]) if b else 0
    return [[sum(a[r][k] * b[k][c] for k in range(inner)) for c in range(cols)] for r in range(len(a))]


def map_matrix(mm, merged_block, fine_block):
    """The merged-to-fine chain map between two blocks at one fine weight."""
    m = [[0] * len(merged_block) for _ in range(len(fine_block))]
    for elem, col in merged_block.items():
        sign, image = mm.map_element(*elem)
        m[fine_block[image]][col] += sign
    return m


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


def reference_new_dimension(fine, pieces, groupings, weight):
    """New syzygies at one weight from explicit kernel bases: cycles modulo
    the boundaries and the images of the cycles of every given grouping."""
    left, mid, right = (fine.block(i, j, weight) for i, j in pieces)
    cycles = kernel_basis(fine.differential(mid, right), len(mid))
    old = [[Fraction(x) for x in col] for col in zip(*fine.differential(left, mid))]
    for mm in groupings:
        source, target = (mm.block(i, j, weight) for i, j in pieces[1:])
        images = map_matrix(mm, source, mid)
        for vec in kernel_basis(mm.differential(source, target), len(source)):
            old.append([sum(a * b for a, b in zip(row, vec)) for row in images])
    return len(cycles) - len(gauss_jordan(old, len(mid)))


def test_graded_ring_dimension():
    assert graded_ring_dimension((2, 2), 1) == 4
    assert graded_ring_dimension((2, 2), 2) == 9
    assert graded_ring_dimension((3, 2, 2), 0) == 1
    assert graded_ring_dimension((2, 3), 2) == 3 * 6


def test_differential_squares_to_zero():
    # every basis element of piece (i, j), as the union of its weight blocks
    for dims in [(2, 2), (2, 3), (2, 2, 2)]:
        cx = _Complex(dims, DEFAULT_CAPACITY)
        for i in range(0, 3):
            for j in range(2, 4):
                seen = set()
                for w in all_weights(dims, i + j):
                    source, mid, target = (cx.block(i + k, j - k, w) for k in range(3))
                    seen.update(source)
                    once = cx.differential(source, mid)
                    twice = matmul(cx.differential(mid, target), once, len(mid))
                    assert all(not any(row) for row in twice), (dims, i, j, w)
                assert len(seen) == graded_ring_dimension(dims, i) * comb(len(cx.positions), j)


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
    report = koszul_homology((2, 3), 1, 2)
    for weight, mult in report.weight_table.items():
        for f in range(2):
            comp = weight[f]
            for a, b in itertools.combinations(range(len(comp)), 2):
                swapped = list(comp)
                swapped[a], swapped[b] = swapped[b], swapped[a]
                permuted = weight[:f] + (tuple(swapped),) + weight[f + 1 :]
                assert report.weight_table.get(permuted, 0) == mult


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
    # the report computes dominant weights only and fills the rest by orbit;
    # here every weight of the middle piece is computed directly
    for dims, p, d in symmetry_guard_cases():
        report = koszul_homology(dims, p, d)
        pieces, fine = _slice(dims, p, d, DEFAULT_CAPACITY)
        direct = {}
        for w in all_weights(dims, d):
            h = _block_homology(fine, pieces, w)
            if h:
                direct[nest(w, dims)] = h
        assert direct == report.weight_table, (dims, p, d)


def test_new_syzygies_agree_at_non_dominant_weights():
    for dims in [(2, 3), (2, 2, 2)]:
        pieces, fine = _slice(dims, 2, 3, DEFAULT_CAPACITY)
        merges = _merged_maps(fine, pieces)
        direct = {}
        for w in all_weights(dims, 3):
            v = _block_new_dimension(fine, pieces, merges, w)
            nested = nest(w, dims)
            if v:
                direct[nested] = v
            dominant = tuple(tuple(sorted(row, reverse=True)) for row in nested)
            if dominant != nested:
                flat = tuple(itertools.chain.from_iterable(dominant))
                assert v == _block_new_dimension(fine, pieces, merges, flat), (dims, w)
        dim, decomp = new_syzygy_dimension(dims, 2, 3)
        assert sum(direct.values()) == dim
        assert schur_extract(direct, dims) == decomp


def test_new_syzygies_match_kernel_reference():
    # the library merges two factors at a time and takes integer ranks; the
    # reference builds kernel bases and merges over every non-discrete grouping
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
        pieces, fine = _slice(dims, p, d, DEFAULT_CAPACITY)
        merges = _merged_maps(fine, pieces)
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
    base = rank(m)
    for _ in range(5):
        rows = m[:]
        rng.shuffle(rows)
        cols = list(range(8))
        rng.shuffle(cols)
        shuffled = [[row[c] for c in cols] for row in rows]
        assert rank(shuffled) == base


def test_schur_extract_examples():
    # C^2 (x) C^2: all four unit weight pairs
    table = {}
    for a in range(2):
        for b in range(2):
            w = ((1 - a, a), (1 - b, b))
            table[w] = 1
    assert schur_extract(table, (2, 2)) == {((1,), (1,)): 1}
    assert schur_extract({((1, 1), (1, 1)): 1}, (2, 2)) == {((1, 1), (1, 1)): 1}
    sym2 = {((2, 0),): 1, ((1, 1),): 1, ((0, 2),): 1}
    assert schur_extract(sym2, (2,)) == {((2,),): 1}


def test_schur_extract_rejects_bad_tables():
    with pytest.raises(ConsistencyError):
        schur_extract({((0, 1),): 1}, (2,))  # lone non-dominant weight
    with pytest.raises(ConsistencyError):
        # missing middle weight of Sym^2: subtraction goes negative
        schur_extract({((2, 0),): 1, ((0, 2),): 1}, (2,))


def test_capacity_error_reports_sizes():
    with pytest.raises(CapacityError) as err:
        koszul_homology((2, 2), 1, 2, capacity=3)
    assert "capacity 3" in str(err.value)
    with pytest.raises(CapacityError):
        new_syzygy_dimension((2, 2), 1, 2, capacity=3)


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


def test_merged_chain_map_commutes_with_differentials():
    # every merged basis element of piece (i, j), as the union of its blocks
    for dims in [(2, 2), (2, 3), (2, 2, 2)]:
        fine = _Complex(dims, DEFAULT_CAPACITY)
        for blocks in nondiscrete_groupings(len(dims)):
            mm = _MergedMap(fine, blocks)
            for i, j in [(1, 2), (0, 2), (2, 1)]:
                seen = set()
                for w in all_weights(dims, i + j):
                    merged = [mm.block(i + k, j - k, w) for k in range(2)]
                    ends = [fine.block(i + k, j - k, w) for k in range(2)]
                    seen.update(merged[0])
                    mapped_then_diff = matmul(
                        fine.differential(*ends), map_matrix(mm, merged[0], ends[0]), len(ends[0])
                    )
                    diff_then_mapped = matmul(
                        map_matrix(mm, merged[1], ends[1]),
                        mm.differential(*merged),
                        len(merged[1]),
                    )
                    assert mapped_then_diff == diff_then_mapped, (dims, blocks, i, j, w)
                assert len(seen) == graded_ring_dimension(mm.dims, i) * comb(len(mm.positions), j)


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
    # 224000 elements, but no wedge table or weight block comes near it
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
