"""Property tests of the exact core: polynomial pseudo-division, torus characters,
sparse integer ranks of columns and of transposes with their columns
numbered either way, the rank of kernel vectors off the leads of a matrix's
pivots, the rank identity behind the new-syzygy dimension,
the lowest-terms form of multinomial sums and their sharing across
permuted variables, the integer pole fractions
behind them, the gate's brute-force sums against a term-by-term loop,
the integer exponential kernel and tensor-Schur recurrence,
the arithmetic of series, Schur-ring elements and polynomials that skips
re-canonicalisation, fraction-free reconstruction over polynomial
coefficients, the Schur peel of a dominant weight table, the numbering of
Koszul weight blocks, the packed walk that grows their wedges, and the
wedges each merge of two factors lists under each merged weight.

Examples are derandomized and no example database is kept, so every run
checks the same inputs.
"""

import copy
import tempfile
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, groupby, product
from math import factorial, lcm, prod

from hypothesis import configuration, example, given, settings, strategies as st

from segre_syzygies.acceptance import _direct_monomial_sums
from segre_syzygies.koszul import (
    DEFAULT_CAPACITY,
    _canonical_weights,
    _Complex,
    _dimension_and_decomposition,
    _Merge,
    _slice,
    _wedge_levels,
)
from segre_syzygies.linalg import leads, rank
from segre_syzygies.partitions import gl_dimension, kostka, partitions_of, schur_product
from segre_syzygies.rationality import (
    MPoly,
    PoleFraction,
    RationalFunction,
    _pseudo_divmod,
    _poly_gcd_q,
    divides_up_to_unit,
    multinomial_sum_rational,
    rational_reconstruct,
)
from segre_syzygies.schur_ring import SymFunc, boxtimes
from segre_syzygies.series import (
    PartitionSeries,
    TruncationPolicy,
    canonical_monomial,
    exp_combination,
    tensor_schur_series_recurrence,
)

from reference import (
    _merged_maps,
    _unpack,
    columns,
    direct_multinomial_sum,
    filtered_wedges,
    gauss_jordan,
    kernel_basis,
    merged_weights,
)

# Hypothesis caches the constants of local source files on disk even without
# a database; keep that cache in a temporary directory, not the working tree.
_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
configuration.set_hypothesis_home_dir(_HOME.name)

PROPERTY = settings(database=None, derandomize=True, max_examples=40, deadline=None)
fractions = st.fractions(min_value=-4, max_value=4, max_denominator=5)
laurent = st.dictionaries(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)), fractions, max_size=5
)


# partitions of sizes 1..4, so a policy with max_part_size < 4 drops some
small_partitions = st.sampled_from(
    [(1,), (2,), (1, 1), (3,), (2, 1), (1, 1, 1), (4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
)
policies = st.builds(TruncationPolicy, st.integers(0, 4), st.integers(1, 3))
sym_funcs = st.dictionaries(small_partitions, fractions, max_size=5).map(SymFunc)
mixed = st.one_of(fractions, st.integers(-3, 3))
raw_sym = st.dictionaries(small_partitions, mixed, max_size=5)
raw_poly = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), mixed, max_size=4)
raw_series = st.dictionaries(
    st.lists(small_partitions, max_size=3).map(tuple), fractions, max_size=6
)


def int_matrix(nrows, ncols):
    row = st.lists(st.integers(-2, 2), min_size=ncols, max_size=ncols)
    return st.lists(row, min_size=nrows, max_size=nrows)


@PROPERTY
@given(
    st.lists(fractions, max_size=7),
    st.lists(fractions, min_size=1, max_size=4).filter(lambda b: b[-1]),
)
def test_poly_divmod_recombines(a, b):
    # lead(b)^k a = q b + r, k = max(deg a - deg b + 1, 0); on integers
    # it never leaves them, since it never divides
    for a, b in ((a, b), ([x.numerator for x in a], [x.numerator or 1 for x in b])):
        q, r = _pseudo_divmod(a, b)
        n = len(a) + len(b)
        recombined = [0] * n
        for i, x in enumerate(q):
            for j, y in enumerate(b):
                recombined[i + j] += x * y
        for i, x in enumerate(r):
            recombined[i] += x
        power = b[-1] ** max(len(a) - len(b) + 1, 0)
        assert recombined == [power * x for x in a] + [0] * (n - len(a))
        assert len(r) < len(b) and (not r or r[-1])
    assert all(type(x) is int for x in q + r)


@PROPERTY
@given(laurent, laurent)
def test_torus_constant_term_pairs_opposite_characters(x, y):
    expected = sum(
        (c * y.get((-e[0], -e[1]), 0) for e, c in x.items()), Fraction(0)
    )
    assert (MPoly(2, x) * MPoly(2, y)).terms.get((0, 0), 0) == expected


@PROPERTY
@given(st.data())
def test_stacked_rank_counts_images_of_kernels(data):
    # dim(span B + M ker D) = rank [[B, M], [0, D]] - rank D, checked against
    # an explicit kernel basis K of D
    m, b, s, t = (data.draw(st.integers(lo, 4)) for lo in (1, 0, 1, 0))
    B, M, D = (data.draw(int_matrix(*shape)) for shape in ((m, b), (m, s), (t, s)))
    stacked = [x + y for x, y in zip(B, M)] + [[0] * b + row for row in D]
    kernel = kernel_basis(D, s)
    images = [[sum(a * v for a, v in zip(row, vec)) for vec in kernel] for row in M]
    span = [[Fraction(x) for x in row] + image for row, image in zip(B, images)]
    assert rank(columns(stacked, b + s)) - rank(columns(D, s)) == len(
        gauss_jordan(span, b + len(kernel))
    )


@PROPERTY
@given(st.data())
def test_kernel_vectors_keep_their_rank_off_the_leads(data):
    # the columns of B lie in the kernel of A, as the boundaries lie in the
    # kernel of the outgoing differential; B's rows at the indices where no
    # pivot of A's rows leads have B's rank, and the leads count A's rank
    t, m, b = (data.draw(st.integers(lo, hi)) for lo, hi in ((0, 4), (1, 6), (0, 4)))
    A = data.draw(int_matrix(t, m))
    kernel = []
    for vec in kernel_basis(A, m):
        scale = lcm(*(x.denominator for x in vec))
        kernel.append([int(x * scale) for x in vec])
    coefficients = data.draw(int_matrix(b, len(kernel)))
    B = [[sum(c * vec[i] for c, vec in zip(cs, kernel)) for cs in coefficients] for i in range(m)]
    # sparse rows keep their zero entries, so that `leads` must drop them
    a_rows, b_rows = ([dict(enumerate(row)) for row in M] for M in (A, B))
    before = copy.deepcopy((a_rows, b_rows))
    pivots = leads(a_rows)
    free = [row for i, row in enumerate(b_rows) if i not in pivots]
    a_rank, b_rank = (
        len(gauss_jordan([[Fraction(x) for x in row] for row in M], n)) for M, n in ((A, m), (B, b))
    )
    assert len(pivots) == rank(a_rows) == a_rank
    assert rank(free) == rank(b_rows) == b_rank
    assert (a_rows, b_rows) == before


# sparse vectors over 6 indices, with non-unit entries, explicit zeros and
# empty vectors
sparse_vectors = st.lists(
    st.dictionaries(st.integers(0, 5), st.integers(-6, 6), max_size=4), max_size=6
)


@PROPERTY
@given(sparse_vectors, st.data())
def test_sparse_rank_matches_fraction_elimination(vectors, data):
    # append integer combinations of earlier vectors, which add no rank
    for _ in range(data.draw(st.integers(0, 4))):
        if not vectors:
            break
        combo = {}
        for v in vectors:
            c = data.draw(st.integers(-3, 3))
            for i, x in v.items():
                combo[i] = combo.get(i, 0) + c * x
        vectors.append(combo)
    before = copy.deepcopy(vectors)
    dense = [[Fraction(v.get(i, 0)) for v in vectors] for i in range(6)]
    assert rank(vectors) == len(gauss_jordan(dense, len(vectors)))
    assert vectors == before


@PROPERTY
@given(
    st.integers(0, 6),
    st.integers(0, 6),
    st.dictionaries(st.tuples(st.integers(0, 5), st.integers(0, 5)), st.integers(-6, 6)),
)
def test_rank_of_reversed_transpose_matches_columns(nrows, ncols, entries):
    # the Koszul differentials are ranked as rows keyed by column, so the
    # elimination order is whichever index `rank` leads at; the rank of the
    # rows must not depend on it, with the columns numbered either way, and
    # must equal the rank of the columns
    entries = {(r, c): x for (r, c), x in entries.items() if r < nrows and c < ncols}
    cols = [{r: x for (r, c), x in entries.items() if c == k} for k in range(ncols)]
    rows = [{c: x for (r, c), x in entries.items() if r == k} for k in range(nrows)]
    reversed_rows = [{ncols - 1 - c: x for c, x in row.items()} for row in rows]
    dense = [[Fraction(entries.get((r, c), 0)) for c in range(ncols)] for r in range(nrows)]
    assert rank(cols) == rank(rows) == rank(reversed_rows) == len(gauss_jordan(dense, ncols))


# polynomials in Q[s] of degree at most 2
polys_in_s = st.lists(fractions, max_size=3).map(
    lambda cs: MPoly(1, {(i,): c for i, c in enumerate(cs)})
)


@PROPERTY
@given(
    st.lists(polys_in_s, min_size=1, max_size=3).filter(lambda tail: tail[-1]),
    st.lists(polys_in_s, min_size=1, max_size=3).filter(any),
)
def test_reconstruct_polynomial_round_trip(tail, num):
    # den[0] = 1, so the minimal denominator has polynomial coefficients
    # too, and 2m + 2 terms determine it: it divides den
    den = [MPoly.constant(1, 1)] + tail
    m = len(tail)
    data = RationalFunction(num, den).coefficients(2 * m + 2)
    rec = rational_reconstruct(data, m)
    assert rec is not None
    assert rec.coefficients(2 * m + 2) == data
    assert divides_up_to_unit(rec.den, den)


@PROPERTY
@given(st.data())
def test_multinomial_sum_is_in_lowest_terms(data):
    d = data.draw(st.integers(1, 3))
    e = tuple(data.draw(st.lists(st.integers(-2, 6), min_size=d, max_size=d)))
    # up to degree 4: a shifted variable of degree 3 or 4, a monomial spread
    # over several variables, and pole gaps above 2 in the sums
    degrees = st.lists(st.integers(0, 4), min_size=d, max_size=d)
    expo = tuple(data.draw(degrees.filter(lambda v: sum(v) <= 4)))
    rf = multinomial_sum_rational({expo: 1}, e, d)
    assert rf.den[0] == 1
    assert len(_poly_gcd_q(rf.num, rf.den)) == 1
    assert rf.coefficients(16) == direct_multinomial_sum({expo: 1}, e, d, 16)


@PROPERTY
@given(st.data())
def test_multinomial_sum_is_shared_across_permuted_variables(data):
    # C_m is symmetric in the entries of m, so permuting the (exponent,
    # shift) pairs changes nothing, down to num and den
    d = data.draw(st.integers(1, 4))
    e = tuple(data.draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)))
    degrees = st.lists(st.integers(0, 3), min_size=d, max_size=d)
    expo = tuple(data.draw(degrees.filter(lambda v: sum(v) <= 3)))
    sigma = data.draw(st.permutations(range(d)))
    rf = multinomial_sum_rational({expo: 1}, e, d)
    twin = multinomial_sum_rational(
        {tuple(expo[i] for i in sigma): 1}, tuple(e[i] for i in sigma), d
    )
    assert (twin.num, twin.den) == (rf.num, rf.den)
    direct = direct_multinomial_sum({expo: 1}, e, d, 12)
    assert rf.coefficients(12) == twin.coefficients(12) == direct


MONOMIAL_SUM_CALLS = st.integers(1, 4).flatmap(
    lambda d: st.tuples(
        st.just(d),
        st.lists(st.tuples(*[st.integers(0, 4)] * d), min_size=1, max_size=3, unique=True),
        st.lists(st.tuples(*[st.integers(-3, 6)] * d), min_size=1, max_size=4, unique=True),
        st.integers(1, 16),
    )
)


@PROPERTY
@given(MONOMIAL_SUM_CALLS)
@example((3, [(0, 0, 0), (2, 1, 0)], [(-3, -3, -3), (-3, 0, 6)], 12))
@example((1, [(0,), (4,)], [(-3,)], 16))
def test_gate_monomial_sums_match_the_term_by_term_reference(call):
    # the gate's columns of factorials against one multinomial per k; at
    # the shift of all -3, every k + e has a negative entry up to n = 3d - 1
    d, expos, shifts, nterms = call
    sums = _direct_monomial_sums(expos, shifts, d, nterms)
    assert list(sums) == shifts
    for e in shifts:
        assert list(sums[e]) == expos, e
        for expo in expos:
            assert sums[e][expo] == direct_multinomial_sum({expo: 1}, e, d, nterms), (e, expo)


pole_fractions = st.tuples(
    st.lists(fractions, max_size=4),
    st.dictionaries(st.sampled_from((1, 2, 3)), st.integers(1, 4), max_size=3),
)
POLE_TERMS = 8


def pole_series(num, poles):
    """num / prod (1 - a t)^m as a power series, in Fraction arithmetic."""
    out = [Fraction(x) for x in num[:POLE_TERMS]]
    out += [Fraction(0)] * (POLE_TERMS - len(out))
    for a, m in poles.items():
        for _ in range(m):
            for k in range(1, POLE_TERMS):
                out[k] += a * out[k - 1]
    return out


def series_of(pf):
    """The series of a PoleFraction, read off its integer representation."""
    assert all(type(x) is int for x in pf.num) and (not pf.num or pf.num[-1])
    assert type(pf.den) is int and pf.den > 0
    return pole_series([Fraction(x, pf.den) for x in pf.num], pf.poles)


@PROPERTY
@given(pole_fractions, pole_fractions, fractions, st.integers(0, 2))
@example(([Fraction(-1, 3), 2], {1: 2, 3: 1}), ([Fraction(1, 2)], {2: 1}), Fraction(3, 4), 1)
@example(([0, 0, Fraction(2, 3)], {1: 4}), ([1, -1], {1: 1, 2: 4}), Fraction(-1, 2), 2)
def test_pole_fraction_integer_arithmetic(x, y, c, n):
    fx, fy = PoleFraction(*x), PoleFraction(*y)
    sx, sy = pole_series(*x), pole_series(*y)
    assert series_of(fx) == sx
    assert series_of(fx + fy) == [a + b for a, b in zip(sx, sy)]
    assert series_of(fx - fy) == [a - b for a, b in zip(sx, sy)]
    assert series_of(fx.scale(c)) == [c * a for a in sx]
    assert series_of(fx.euler_operator()) == [k * a for k, a in enumerate(sx)]
    assert series_of(fx.shift(n)) == ([Fraction(0)] * n + sx)[:POLE_TERMS]
    assert series_of(fx.shift(n).shift(-n)) == sx
    rf = (fx - fy).to_rational()
    assert len(_poly_gcd_q(rf.num, rf.den)) == 1 and rf.den[0] == 1
    coeffs = rf.coefficients(POLE_TERMS)
    assert all(type(v) is Fraction for v in rf.num + rf.den + coeffs)
    assert coeffs == [a - b for a, b in zip(sx, sy)]


def reference_exp_combination(terms, policy):
    """Fraction products per monomial, summed through the checking constructor."""
    total = {}
    for coeff, x in terms:
        support = sorted(
            (lam for lam in x.terms if sum(lam) <= policy.max_part_size),
            key=lambda lam: (sum(lam), lam),
        )
        for n in range(policy.max_order + 1):
            for mono in combinations_with_replacement(support, n):
                value = Fraction(coeff)
                for lam, run in groupby(mono):
                    m = sum(1 for _ in run)
                    value *= x.terms[lam] ** m / factorial(m)
                total[mono] = total.get(mono, 0) + value
    return PartitionSeries(policy, total)


def assert_trusted(a):
    assert all(type(c) is Fraction and c for c in a.terms.values())
    assert all(canonical_monomial(k) == k and a.policy.admits(k) for k in a.terms)
    assert a == PartitionSeries(a.policy, a.terms)


@PROPERTY
@given(st.lists(st.tuples(fractions, sym_funcs), min_size=1, max_size=6), policies)
@example(  # disjoint supports, different denominators
    [
        (Fraction(1, 2), SymFunc({(1,): Fraction(1, 3), (2,): Fraction(-1, 2)})),
        (Fraction(-2, 3), SymFunc({(1, 1): Fraction(3, 5), (3,): Fraction(1, 4)})),
    ],
    TruncationPolicy(4, 3),
)
@example(  # the first term's whole support is cut by max_part_size
    [
        (Fraction(3, 2), SymFunc({(3,): Fraction(1, 2), (2, 1): Fraction(1)})),
        (Fraction(1), SymFunc({(1,): Fraction(2, 3)})),
    ],
    TruncationPolicy(3, 2),
)
@example(  # a zero coefficient beside non-zero ones
    [
        (Fraction(0), SymFunc({(1,): Fraction(1)})),
        (Fraction(-1, 4), SymFunc({(1,): Fraction(1, 2), (2,): Fraction(2)})),
        (Fraction(2), SymFunc({(2,): Fraction(-1)})),
    ],
    TruncationPolicy(3, 2),
)
@example(  # only the constant term is kept
    [(Fraction(-3, 2), SymFunc({(1,): Fraction(1, 3), (2,): Fraction(-2)}))],
    TruncationPolicy(0, 2),
)
def test_exp_combination_matches_fraction_reference(terms, policy):
    result = exp_combination(terms, policy)
    assert result.terms == reference_exp_combination(terms, policy).terms
    assert_trusted(result)


def test_tensor_schur_recurrence_returns_trusted_fractions():
    for policy in (TruncationPolicy(4, 4), TruncationPolicy(3, 2)):
        for p in range(1, 5):
            for lam in partitions_of(p):
                assert_trusted(tensor_schur_series_recurrence(lam, policy))


def assert_checked(result, checked):
    """result holds non-zero Fractions only and equals the checked constructor on its terms."""
    assert all(type(c) is Fraction and c for c in result.terms.values())
    assert result == checked(result.terms)


@PROPERTY
@given(policies, raw_series, raw_series, fractions, raw_sym, raw_sym, raw_poly, raw_poly)
@example(
    TruncationPolicy(2, 2), {((1,),): 1}, {((2,),): 1}, Fraction(1, 2),
    {(1,): 1}, {(1,): -1}, {(1, 0): 1, (0, 1): -1}, {(1, 0): 1, (0, 1): 1},
)
def test_series_arithmetic_returns_canonical_nonzero_terms(policy, a, b, q, x, y, f, g):
    # the library's own results skip the checked constructors: they must
    # already be what those constructors would make, for every combination
    a, b = PartitionSeries(policy, a), PartitionSeries(policy, b)
    # the cross terms of (a + b) * (a - b) cancel
    for result in (a + b, a - a, a.scale(0), a.scale(q), -a, a * b, (a + b) * (a - b)):
        assert_trusted(result)
    assert not (a - a).terms and not a.scale(0).terms
    products = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            products[m1 + m2] = products.get(m1 + m2, 0) + c1 * c2
    assert a * b == PartitionSeries(policy, products)

    x, y = SymFunc(x), SymFunc(y)
    for result in (x + y, x - y, x - x, -x, x.scale(q), x.scale(0), 3 * x):
        assert_checked(result, SymFunc)
    assert not (x - x) and x + y - y == x

    f, g = MPoly(2, f), MPoly(2, g)
    results = [f + g, f - g, f - f, -f, f.scale(q), f * 0, f * 3, q * f, f + 2, 2 - f, f * g]
    if g:
        results.append((f * g).exact_div(g))
        assert results[-1] == f
    for result in results:
        assert_checked(result, lambda terms: MPoly(2, terms))
    assert not (f - f) and f + g - g == f


@PROPERTY
@given(sym_funcs, sym_funcs)
@example(  # different denominators; the two (3, 1) terms cancel
    SymFunc({(1,): Fraction(1, 3), (2,): Fraction(2, 5)}),
    SymFunc({(2,): Fraction(1, 2), (1, 1): Fraction(-1, 2), (1,): Fraction(3, 4)}),
)
def test_boxtimes_matches_the_fraction_double_loop(x, y):
    products = {}
    for lam, a in x.terms.items():
        for mu, b in y.terms.items():
            for nu, n in schur_product(lam, mu).items():
                products[nu] = products.get(nu, Fraction(0)) + a * b * n
    result = boxtimes(x, y)
    assert result == SymFunc(products)
    assert_checked(result, SymFunc)


@PROPERTY
@given(policies, raw_series, raw_series)
@example(  # different denominators; the X(1)X(2) terms cancel; order 4 is past max_order
    TruncationPolicy(3, 2),
    {((1,),): Fraction(1, 2), ((2,),): Fraction(1, 3), ((1,), (1,)): Fraction(2, 5)},
    {((2,),): Fraction(-1, 2), ((1,),): Fraction(3, 4), ((1,), (2,)): Fraction(1, 7)},
)
def test_series_product_matches_the_fraction_double_loop(policy, a, b):
    a, b = PartitionSeries(policy, a), PartitionSeries(policy, b)
    products = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            if len(m1) + len(m2) <= policy.max_order:
                mono = canonical_monomial(m1 + m2)
                products[mono] = products.get(mono, Fraction(0)) + c1 * c2
    result = a * b
    assert result.terms == {m: c for m, c in products.items() if c}
    assert all(type(c) is Fraction for c in result.terms.values())


def padded_partitions(size, n):
    return [lam + (0,) * (n - len(lam)) for lam in partitions_of(size, n)]


@PROPERTY
@given(st.data())
def test_schur_peel_inverts_a_dominant_table(data):
    # a random small decomposition, its character at the dominant weights by
    # Kostka numbers, then the peel back and the dimension over weight orbits
    dims = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)))
    factors = [[lam for size in range(4) for lam in partitions_of(size, n)] for n in dims]
    schur_tuples = st.sampled_from(list(product(*factors)))
    decomposition = data.draw(st.dictionaries(schur_tuples, st.integers(1, 3), max_size=4))
    table = {}
    for lams, mult in decomposition.items():
        for w in product(*(padded_partitions(sum(lam), n) for lam, n in zip(lams, dims))):
            k = prod(kostka(lam, mu) for lam, mu in zip(lams, w))
            if k:
                table[w] = table.get(w, 0) + mult * k
    dimension, peeled = _dimension_and_decomposition(table, dims)
    assert peeled == decomposition
    assert dimension == sum(
        mult * prod(gl_dimension(lam, n) for lam, n in zip(lams, dims))
        for lams, mult in decomposition.items()
    )


@PROPERTY
@given(
    st.lists(st.integers(1, 3), min_size=1, max_size=3), st.integers(0, 3), st.integers(0, 2)
)
def test_koszul_block_keys_are_in_position_order(dims, p, excess):
    # every block of the fine complex at every canonical weight: its
    # elements are numbered in key order; and each pair merge lists the
    # elements of a source or target piece once each, by position in the
    # block, then by merged weight
    d = p + excess
    _, _, pieces, fine = _slice(tuple(dims), p, d, DEFAULT_CAPACITY)
    merges = [_Merge(fine, i, j) for i, j in combinations(range(len(dims)), 2)]
    for weight in _canonical_weights(tuple(dims), d):
        flat = sum(weight, ())
        blocks = fine.blocks(pieces, flat, _wedge_levels(fine.positions, flat, p + 1))
        for block in blocks:
            assert list(block.values()) == list(range(len(block))), (dims, p, d, weight)
        for merge in merges:
            for block in blocks[1:]:
                listed = merge.fits(flat)(block)
                assert listed == sorted(set(listed)), (dims, p, d, weight)
                assert all(0 <= s < len(block) for s, _ in listed), (dims, p, d, weight)


# dims with a flat weight whose entries lie on both sides of the digit
# widths 1..6 that the largest entry can set
WEIGHT_ENTRIES = [0, 1, 3, 4, 7, 8, 15, 16]
DIMS_AND_WEIGHT = st.lists(st.integers(1, 3), min_size=1, max_size=3).flatmap(
    lambda dims: st.tuples(
        st.just(dims),
        st.lists(st.sampled_from(WEIGHT_ENTRIES), min_size=sum(dims), max_size=sum(dims)),
    )
)


@PROPERTY
@given(DIMS_AND_WEIGHT, st.integers(0, 4))
@example(([3], [16, 0, 7]), 3)
@example(([3], [0, 0, 0]), 2)
@example(([1], [15]), 2)
@example(([2, 2], [1, 1, 1, 1]), 4)
@example(([1, 2, 3], [8, 7, 8, 0, 4, 3]), 3)
def test_packed_walk_matches_filtered_wedges(dims_and_weight, top):
    # each level of the walk on a packed weight is every wedge that fits,
    # in the brute-force order, with the weight it leaves over decoded
    dims, weight = map(tuple, dims_and_weight)
    positions = _Complex(dims, DEFAULT_CAPACITY).positions
    levels = _wedge_levels(positions, weight, top)
    assert 1 <= len(levels) <= top + 1
    assert len(levels) == top + 1 or not levels[-1]
    levels += [[]] * (top + 1 - len(levels))
    for j, level in enumerate(levels):
        walked = [(wedge, _unpack(left, len(weight))) for left, wedge in level]
        assert walked == filtered_wedges(positions, j, weight), (dims, weight, j)


# a fine weight of 2-3 factors, either balanced (every factor's row sums to
# one total, so that merged weights exist) or with rows of any sums
SMALL_DIMS = st.lists(st.integers(1, 3), min_size=2, max_size=3)


def _rows_summing_to(total, n):
    return st.lists(st.integers(0, total), min_size=n - 1, max_size=n - 1).map(
        lambda cuts: tuple(b - a for a, b in zip((0, *sorted(cuts)), (*sorted(cuts), total)))
    )


def _fine_weights(dims):
    balanced = st.integers(0, 4).flatmap(
        lambda total: st.tuples(*(_rows_summing_to(total, n) for n in dims)).map(
            lambda rows: sum(rows, ())
        )
    )
    free = st.lists(st.integers(0, 3), min_size=sum(dims), max_size=sum(dims)).map(tuple)
    return st.one_of(balanced, free)


@PROPERTY
@given(SMALL_DIMS.flatmap(lambda dims: st.tuples(st.just(tuple(dims)), _fine_weights(dims))))
@example(((3, 3), (2, 1, 1, 1, 1, 2)))
@example(((1, 2, 3), (3, 2, 1, 1, 1, 1)))
@example(((2, 2), (0, 0, 0, 0)))
def test_merge_lists_the_wedges_that_fit_each_merged_weight(dims_and_weight):
    # at each wedge level of a fine weight, the wedges that a merge lists
    # under each merged weight are, W by W, every wedge that fits under W on
    # the reference's merged labels, in its order
    dims, weight = dims_and_weight
    fine = _Complex(dims, DEFAULT_CAPACITY)
    levels = _wedge_levels(fine.positions, weight, 4)
    pairs = combinations(range(len(dims)), 2)
    for pair, mm in zip(pairs, _merged_maps(fine)):
        merge = _Merge(fine, *pair)
        tables = merged_weights(dims, pair, weight)
        for j, level in enumerate(levels):
            wedges = [wedge for _, wedge in level]
            listed = merge.fits(weight)(fine.level_block(level))
            for x, merged in enumerate(tables):
                expected = [wedge for wedge, _ in filtered_wedges(mm.positions, j, merged)]
                assert [wedges[s] for s, y in listed if y == x] == expected, (pair, j, merged)
            assert all(x < len(tables) for _, x in listed), (pair, j)
