"""Whole-number arguments of the public entry points, in one table.

Each entry point takes a whole float as its int, with the same answer; 2.5
raises ValueError naming the argument (never TypeError, never an answer),
and so does a value below the argument's bound.  A value of the wrong
shape, a number where a vector is expected or a 1-tuple where a number is,
raises ValueError naming the argument too.  The checks raise explicitly,
so the table holds under python -O as well, where one subprocess runs all
of it.
"""

import re
import subprocess
import sys
from pathlib import Path

import pytest

import segre_syzygies
from segre_syzygies.characters import character_table
from segre_syzygies.koszul import koszul_homology, new_syzygy_dimension
from segre_syzygies.partitions import check_partition, kostka, lr_coefficient
from segre_syzygies.rationality import (
    MPoly,
    RationalFunction,
    geometric_torus_coefficients,
    multinomial_sum_rational,
    rational_reconstruct,
    weyl_series,
)
from segre_syzygies.schur_ring import SymFunc, power_sum
from segre_syzygies.series import (
    PartitionSeries,
    TruncationPolicy,
    dimension_on_factors,
    euler_chi,
    exp_combination,
    f_segre,
    lascoux_leading,
    order_normalize,
)

POLICY = TruncationPolicy(2, 2)


def f1_star():
    return order_normalize(f_segre(1, TruncationPolicy(2, 3)))


def series_on(policy):
    return exp_combination([(1, SymFunc.basis((1,)))], policy)


# (id, the call on the argument, a valid int, a value below the bound or
# None when there is no bound, the argument's name in the message); a row
# whose valid int is None passes a value of the wrong shape, and its fourth
# entry is then that value, which must raise as 2.5 does
ENTRY_POINTS = [
    ("check_partition", lambda x: check_partition((x, 1)), 2, 0, "partition parts"),
    ("kostka", lambda x: kostka((2,), (x, 2 - x)), 1, -1, "content entries"),
    ("lr_coefficient", lambda x: lr_coefficient((x, 1), (1,), (2, 2)), 2, 0, "partition parts"),
    ("SymFunc", lambda x: SymFunc({(x,): 1}), 2, 0, "partition parts"),
    ("SymFunc.basis", lambda x: SymFunc.basis((x, 1)), 2, 0, "partition parts"),
    ("PartitionSeries", lambda x: PartitionSeries(POLICY, {((x,),): 1}), 2, 0, "partition parts"),
    ("power_sum", lambda x: power_sum((x, 1)), 2, 0, "partition parts"),
    ("character_table", lambda x: character_table(x).to_csv(), 3, 0, "p"),
    ("max_order", lambda x: series_on(TruncationPolicy(x, 2)), 2, -1, "max_order"),
    ("max_part_size", lambda x: series_on(TruncationPolicy(2, x)), 2, -1, "max_part_size"),
    ("euler_chi", lambda x: euler_chi(x, POLICY), 3, -1, "k"),
    ("f_segre", lambda x: f_segre(x, POLICY), 1, -1, "p"),
    ("lascoux_leading.p", lambda x: lascoux_leading(x, 3), 2, 0, "p"),
    ("lascoux_leading.d", lambda x: lascoux_leading(2, x), 3, -1, "d"),
    ("dimension_on_factors.degree", lambda x: dimension_on_factors(f1_star(), (2, 2), x), 2, -1,
     "degree"),
    ("dimension_on_factors.dims", lambda x: dimension_on_factors(f1_star(), (x, 2), 2), 2, -1,
     "dims"),
    ("koszul_homology.dims", lambda x: koszul_homology((x, 2), 1, 2).to_json(), 2, 0, "dims"),
    ("koszul_homology.p", lambda x: koszul_homology((2, 2), x, 2).to_json(), 1, -1, "p and d"),
    ("koszul_homology.d", lambda x: koszul_homology((2, 2), 1, x).to_json(), 2, -1, "p and d"),
    ("koszul_homology.capacity", lambda x: koszul_homology((2, 2), 1, 2, x).to_json(), 5, 0,
     "capacity"),
    ("new_syzygy_dimension.p", lambda x: new_syzygy_dimension((2, 2, 2), x, 2), 1, -1, "p and d"),
    ("new_syzygy_dimension.d", lambda x: new_syzygy_dimension((2, 2, 2), 1, x), 2, -1, "p and d"),
    ("MPoly", lambda x: MPoly(1, {(x,): 1}), 2, None, "exponent"),
    ("multinomial_sum_rational.e", lambda x: multinomial_sum_rational(1, (x,), 1), 1, None,
     "shift vector"),
    ("multinomial_sum_rational.d", lambda x: multinomial_sum_rational({(1,): 1}, (0,), x), 1, -1,
     "d"),
    ("coefficients", lambda x: RationalFunction([1], [1, -1]).coefficients(x), 3, -1,
     "number of terms"),
    ("rational_reconstruct", lambda x: rational_reconstruct([1] * 4, x), 1, -1, "max_den_degree"),
    ("weyl_series.d", lambda x: weyl_series(x, geometric_torus_coefficients(2, 4), 4), 2, 0, "d"),
    ("weyl_series.num_terms", lambda x: weyl_series(2, geometric_torus_coefficients(2, 4), x), 4,
     -1, "number of terms"),
    ("geometric_torus_coefficients.d", lambda x: geometric_torus_coefficients(x, 3), 2, -1, "d"),
    ("geometric_torus_coefficients.n_terms", lambda x: geometric_torus_coefficients(2, x), 3, -1,
     "number of terms"),
    # a number where a vector is expected
    ("koszul_homology.dims.number", lambda x: koszul_homology(x, 1, 2), None, 2, "dims"),
    ("check_partition.number", check_partition, None, 5, "partition parts"),
    ("dimension_on_factors.dims.number", lambda x: dimension_on_factors(f1_star(), x, 2), None, 2,
     "dims"),
    ("multinomial_sum_rational.e.number", lambda x: multinomial_sum_rational(1, x, 1), None, 1,
     "shift vector"),
    ("MPoly.number", lambda x: MPoly(1, {x: 1}), None, 1, "exponent"),
    # a 1-tuple where a number is expected
    ("euler_chi.tuple", lambda x: euler_chi((x,)), None, 3, "k"),
    ("lascoux_leading.p.tuple", lambda x: lascoux_leading((x,), 3), None, 2, "p"),
    ("coefficients.tuple", lambda x: RationalFunction([1], [1, -1]).coefficients((x,)), None, 3,
     "number of terms"),
    ("character_table.tuple", lambda x: character_table((x,)), None, 3, "p"),
    ("rational_reconstruct.tuple", lambda x: rational_reconstruct([1] * 4, (x,)), None, 1,
     "max_den_degree"),
    ("f_segre.tuple", lambda x: f_segre((x,)), None, 1, "p"),
]


def check_entry_point(call, good, low, name):
    """Raise unless the entry point behaves as the module docstring says;
    no assert, so python -O keeps every check."""
    shape = f"^{re.escape(name)} must be (an integer|integers)"
    if good is None:
        for x in (low, 2.5):
            with pytest.raises(ValueError, match=shape):
                call(x)
        return
    exact, floated = call(good), call(float(good))
    if repr(floated) != repr(exact):
        raise AssertionError(f"{float(good)} gave {floated!r}, {good} gave {exact!r}")
    with pytest.raises(ValueError, match=shape):
        call(2.5)
    if low is not None:
        with pytest.raises(ValueError, match=f"^{re.escape(name)} must be (non-negative|at least)"):
            call(low)


@pytest.mark.parametrize("call, good, low, name", [row[1:] for row in ENTRY_POINTS],
                         ids=[row[0] for row in ENTRY_POINTS])
def test_whole_number_argument(call, good, low, name):
    check_entry_point(call, good, low, name)


def test_the_table_holds_under_optimize_flag():
    # python -O strips assert statements; the library's checks raise
    # explicitly, so the whole table must still pass
    src = Path(segre_syzygies.__file__).resolve().parents[1]
    code = (
        f"import sys; sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
        "import test_whole_numbers as t\n"
        "for row in t.ENTRY_POINTS: t.check_entry_point(*row[1:])\n"
        "print(sys.flags.optimize, len(t.ENTRY_POINTS))\n"
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, check=True, cwd=src
    )
    assert out.stdout.split() == ["1", str(len(ENTRY_POINTS))], out.stdout + out.stderr
