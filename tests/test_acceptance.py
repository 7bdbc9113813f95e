"""Acceptance gate: every criterion runs at its stated tolerance and budget.

Comparisons are exact (no tolerances to loosen); each criterion also carries
a wall-clock budget from the contract, asserted here.
"""

import subprocess
import sys
import types
from pathlib import Path

import pytest

import segre_syzygies
from segre_syzygies import acceptance
from segre_syzygies.acceptance import ALL_CRITERIA


@pytest.mark.parametrize("criterion", ALL_CRITERIA, ids=lambda fn: fn.__name__)
def test_criterion(criterion):
    result = criterion()
    print(result.line())
    assert result.passed, f"criterion {result.number} failed: {result.detail}"
    assert result.in_budget, (
        f"criterion {result.number} exceeded its budget: "
        f"{result.seconds:.2f}s >= {result.limit:.0f}s"
    )


# Each sabotage swaps one library call of a criterion for a wrong answer
# and prints the criterion's line.
SABOTAGED_CRITERION_5 = """
import dataclasses
from segre_syzygies import acceptance

real = acceptance.koszul_homology


def off_by_one(*args):
    report = real(*args)
    return dataclasses.replace(report, dimension=report.dimension + 1)


acceptance.koszul_homology = off_by_one
print(acceptance.criterion_5().line())
"""

SABOTAGED_CRITERION_12 = """
from segre_syzygies import acceptance
from segre_syzygies.rationality import RationalFunction

real = acceptance.rational_reconstruct


def last_den_entry_off(*args):
    rec = real(*args)
    return RationalFunction(rec.num, rec.den[:-1] + [rec.den[-1] + 1])


acceptance.rational_reconstruct = last_den_entry_off
print(acceptance.criterion_12().line())
"""

# Only the d = 3 sums are wrong, so the three closed forms checked by hand
# (d = 1, 2) pass and the brute-force reference must catch the error.
SABOTAGED_CRITERION_11 = """
from segre_syzygies import acceptance
from segre_syzygies.rationality import RationalFunction

real = acceptance.multinomial_sum_rational


def numerator_off_by_one(poly, e, d):
    rf = real(poly, e, d)
    if d < 3:
        return rf
    return RationalFunction(rf.num[:-1] + [rf.num[-1] + 1], rf.den)


acceptance.multinomial_sum_rational = numerator_off_by_one
print(acceptance.criterion_11().line())
"""

# Only the d = 3 sums at a shift with a negative entry are wrong, so the
# reference's zero multinomials at k + e < 0 are what the closed forms meet.
SABOTAGED_CRITERION_11_NEGATIVE_SHIFT = """
from segre_syzygies import acceptance
from segre_syzygies.rationality import RationalFunction

real = acceptance.multinomial_sum_rational


def numerator_off_by_one(poly, e, d):
    rf = real(poly, e, d)
    if d < 3 or min(e) >= 0:
        return rf
    return RationalFunction([rf.num[0] + 1] + rf.num[1:], rf.den)


acceptance.multinomial_sum_rational = numerator_off_by_one
print(acceptance.criterion_11().line())
"""

# One ordering of one triple is off by one, so only the symmetry loop sees it.
SABOTAGED_CRITERION_10 = """
from segre_syzygies import acceptance

real = acceptance.kronecker_coefficient


def asymmetric(lam, mu, nu):
    bump = (lam, mu, nu) == ((2, 1), (3,), (2, 1))
    return real(lam, mu, nu) + bump


acceptance.kronecker_coefficient = asymmetric
print(acceptance.criterion_10().line())
"""

# A library call that raises, not a wrong answer: the criterion fails with
# the exception named, and the gate goes on.
SABOTAGED_CRITERION_4 = """
from segre_syzygies import acceptance


def refuses(p, d):
    raise ValueError(f"refused at p={p}")


acceptance.lascoux_leading = refuses
print(acceptance.criterion_4().line())
"""


@pytest.mark.parametrize(
    "number, sabotage, named",
    [
        (4, SABOTAGED_CRITERION_4, "-- ValueError: refused at p=1"),
        (5, SABOTAGED_CRITERION_5, "(2,2)"),
        (10, SABOTAGED_CRITERION_10, "at (3,), (2, 1), (2, 1)"),
        (11, SABOTAGED_CRITERION_11, "d=3"),
        (11, SABOTAGED_CRITERION_11_NEGATIVE_SHIFT, "d=3, e=(-2, -2, -2)"),
        (12, SABOTAGED_CRITERION_12, "re-expansion disagrees"),
    ],
    ids=[
        "criterion_4",
        "criterion_5",
        "criterion_10",
        "criterion_11",
        "criterion_11_negative_shift",
        "criterion_12",
    ],
)
def test_gate_fails_under_optimize_flag(number, sabotage, named):
    # python -O strips assert statements; the gate must still catch a
    # library call that returns a wrong answer or raises
    src = Path(segre_syzygies.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-O", "-c", sabotage],
        capture_output=True,
        text=True,
        check=True,
        cwd=src,
    )
    assert out.stdout.startswith(f"FAIL {number:02d}"), out.stdout
    assert named in out.stdout, out.stdout


def _global_names(code: types.CodeType) -> set[str]:
    """The names a code object and the code nested in it look up."""
    names = set(code.co_names)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _global_names(const)
    return names


def test_direct_monomial_sums_borrow_nothing_from_the_closed_forms():
    # criterion 11's brute-force reference checks the closed forms of
    # rationality, built on series; no global it reads, nor any global of
    # an acceptance helper it calls, may come from either module
    closed_forms = {"segre_syzygies.rationality", "segre_syzygies.series"}
    seen, todo, borrowed = set(), [acceptance._direct_monomial_sums], []
    while todo:
        for name in _global_names(todo.pop().__code__) - seen:
            seen.add(name)
            obj = vars(acceptance).get(name)
            if isinstance(obj, types.ModuleType):
                home = obj.__name__
            else:
                home = getattr(obj, "__module__", None)
            if home in closed_forms:
                borrowed.append(name)
            elif home == acceptance.__name__ and isinstance(obj, types.FunctionType):
                todo.append(obj)
    assert "compositions" in seen  # the names were resolved at all
    assert not borrowed, borrowed
