"""Property tests of the exact core: polynomial division, torus characters,
the rank identity behind the new-syzygy dimension and the lowest-terms form
of multinomial sums.

Examples are derandomized and no example database is kept, so every run
checks the same inputs.
"""

import tempfile
from fractions import Fraction

from hypothesis import configuration, given, settings, strategies as st

from segre_syzygies.acceptance import _direct_multinomial_sum
from segre_syzygies.linalg import gauss_jordan, rank
from segre_syzygies.rationality import (
    MPoly,
    _poly_divmod,
    _poly_gcd_q,
    multinomial_sum_rational,
    torus_constant_term,
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


def int_matrix(nrows, ncols):
    row = st.lists(st.integers(-2, 2), min_size=ncols, max_size=ncols)
    return st.lists(row, min_size=nrows, max_size=nrows)


@PROPERTY
@given(
    st.lists(fractions, max_size=7),
    st.lists(fractions, min_size=1, max_size=4).filter(lambda b: b[-1]),
)
def test_poly_divmod_recombines(a, b):
    q, r = _poly_divmod(a, b)
    n = len(a) + len(b)
    recombined = [Fraction(0)] * n
    for i, x in enumerate(q):
        for j, y in enumerate(b):
            recombined[i + j] += x * y
    for i, x in enumerate(r):
        recombined[i] += x
    assert recombined == list(a) + [0] * (n - len(a))
    assert len(r) < len(b) and (not r or r[-1])


@PROPERTY
@given(laurent, laurent)
def test_torus_constant_term_pairs_opposite_characters(x, y):
    expected = sum(
        (c * y.get((-e[0], -e[1]), 0) for e, c in x.items()), Fraction(0)
    )
    assert torus_constant_term(MPoly(2, x) * MPoly(2, y)) == expected


@PROPERTY
@given(st.data())
def test_stacked_rank_counts_images_of_kernels(data):
    # dim(span B + M ker D) = rank [[B, M], [0, D]] - rank D, checked against
    # an explicit kernel basis K of D
    m, b, s, t = (data.draw(st.integers(lo, 4)) for lo in (1, 0, 1, 0))
    B, M, D = (data.draw(int_matrix(*shape)) for shape in ((m, b), (m, s), (t, s)))
    stacked = [x + y for x, y in zip(B, M)] + [[0] * b + row for row in D]
    rows = [[Fraction(x) for x in row] for row in D]
    pivots = gauss_jordan(rows, s)
    kernel = []
    for free in sorted(set(range(s)) - set(pivots)):
        vec = [Fraction(0)] * s
        vec[free] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -rows[r][free]
        kernel.append(vec)
    images = [[sum(a * v for a, v in zip(row, vec)) for vec in kernel] for row in M]
    span = [[Fraction(x) for x in row] + image for row, image in zip(B, images)]
    assert rank(stacked) - rank(D) == len(gauss_jordan(span, b + len(kernel)))


@PROPERTY
@given(st.data())
def test_multinomial_sum_is_in_lowest_terms(data):
    d = data.draw(st.integers(1, 3))
    e = tuple(data.draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d)))
    degrees = st.lists(st.integers(0, 2), min_size=d, max_size=d)
    expo = tuple(data.draw(degrees.filter(lambda v: sum(v) <= 2)))
    rf = multinomial_sum_rational({expo: 1}, e, d)
    assert rf.den[0] == 1
    assert len(_poly_gcd_q(rf.num, rf.den)) == 1
    assert rf.coefficients(8) == _direct_multinomial_sum({expo: 1}, e, d, 8)
