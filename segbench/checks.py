"""Exact checks of each case's output, run by run.py outside the timed region.

Every case is compared with the digest pinned in pinned.json, and where a
source independent of the code path under test exists, with that source:

* oracle homology dimensions against the series prediction
  dimension_on_factors(order_normalize(f_segre(p)), dims, d);
* euler_chi(k) on factor sizes against the term-level Euler characteristic
  sum_j (-1)^j dim R_{k-j} C(N, j), with signed evaluation done here;
* f_segre(p) on factor sizes against (-1)^p times the same sum;
* the two sides of the tensor-Schur identity against each other;
* multinomial sums against direct summation (a seeded subset);
* rational reconstruction re-expanded against its input;
* the Weyl pairing of the polynomial algebra against all ones;
* the gate's exit status and its 13 PASS lines.

No check uses `assert`, so they hold under `python -O`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import cache
from math import comb, factorial, prod

import workloads

EULER_DIMS = [(2, 2), (3, 3), (2, 2, 2), (4, 4), (2, 3, 4), (2, 2, 2, 2), (2, 2, 2, 2, 2), (3, 3, 3)]
CRITERIA = 13


@cache
def gl_dim(lam: tuple[int, ...], m: int) -> int:
    """Weyl dimension formula for the Schur functor lam on C^m."""
    if len(lam) > m:
        return 0
    padded = tuple(lam) + (0,) * (m - len(lam))
    num = prod(padded[i] - padded[j] + j - i for i in range(m) for j in range(i + 1, m))
    den = prod(j - i for i in range(m) for j in range(i + 1, m))
    return num // den


def euler_sum(k: int, dims) -> int:
    """sum_j (-1)^j dim R_{k-j} C(N, j) over the Koszul terms of degree k."""
    n_tensor = prod(dims)
    return sum(
        (-1) ** j * prod(comb(d + k - j - 1, k - j) for d in dims) * comb(n_tensor, j)
        for j in range(min(k, n_tensor) + 1)
    )


def evaluate(terms: list, dims) -> Fraction:
    """A series (canonical terms) on factor sizes, with its sign kept: each
    order-n monomial counts its coefficient times the sum over assignments
    of its partitions to the n factors."""
    n = len(dims)
    total = Fraction(0)
    for mono, coeff in terms:
        if len(mono) != n:
            continue
        lams = [tuple(lam) for lam in mono]
        total += Fraction(coeff) * sum(
            prod(gl_dim(lams[s[j]], dims[j]) for j in range(n))
            for s in itertools.permutations(range(n))
        )
    return total


def direct_multinomial_sum(expo, e, d: int, n_terms: int) -> list[Fraction]:
    """First coefficients of sum_k k^expo C_{k+e} t^{|k|}, summed term by term."""
    out = [Fraction(0)] * n_terms
    for k in itertools.product(range(n_terms), repeat=d):
        n = sum(k)
        if n >= n_terms:
            continue
        shifted = [a + b for a, b in zip(k, e)]
        if min(shifted) < 0:
            continue
        multinomial = factorial(sum(shifted)) // prod(factorial(x) for x in shifted)
        out[n] += prod(a**x for a, x in zip(k, expo)) * multinomial
    return out


class Checker:
    """Checks outputs of one workload; results are memoised by output digest."""

    def __init__(self, pinned: dict[str, str], library_path: str):
        self.pinned = pinned
        self.library_path = library_path
        self._memo: dict[tuple[str, str], list[str]] = {}
        self._series = None

    def _predicted_dimension(self, dims, p: int, d: int) -> int:
        if self._series is None:
            import sys

            if self.library_path not in sys.path:
                sys.path.insert(0, self.library_path)
            from segre_syzygies import series

            self._series = series
        s = self._series
        policy = s.TruncationPolicy(len(dims), max(d, p + 1))
        return s.dimension_on_factors(s.order_normalize(s.f_segre(p, policy)), dims, d)

    def check_pass(self, cases, outputs: dict, errors: dict) -> dict[str, list[str]]:
        """Failure messages by case id, for the cases of one pass that failed."""
        failures = {}
        for case in cases:
            if case.id in errors:
                failures[case.id] = [f"raised {errors[case.id]}"]
                continue
            if case.id not in outputs:
                failures[case.id] = ["no output"]
                continue
            out = outputs[case.id]
            key = (case.id, workloads.digest(out))
            if key not in self._memo:
                self._memo[key] = self._check(case, out, key[1])
            problems = self._memo[key]
            if case.kind == "tschur":
                problems = problems + self._check_pair(case, out, outputs)
            if problems:
                failures[case.id] = problems
        return failures

    def _check(self, case, out, digest: str) -> list[str]:
        problems = []
        if self.pinned.get(case.id) != digest:
            problems.append(f"output digest {digest} differs from pinned {self.pinned.get(case.id)}")
        try:
            problems += getattr(self, f"_check_{case.kind}")(case, out)
        except Exception as exc:  # a malformed output is a wrong answer
            problems.append(f"check could not read the output: {type(exc).__name__}: {exc}")
        return problems

    def _check_homology(self, case, out):
        predicted = self._predicted_dimension(*case.args)
        if out["dimension"] != predicted:
            return [f"dimension {out['dimension']}, series predicts {predicted}"]
        return []

    def _check_cosocle(self, case, out):
        total = self._predicted_dimension(*case.args)
        if not 0 <= out["dimension"] <= total:
            return [f"new dimension {out['dimension']} outside [0, {total}]"]
        return []

    def _check_euler(self, case, out):
        k = case.args[0]
        return [
            f"euler_chi({k}) on {dims} is {value}, Koszul terms give {expected}"
            for dims in EULER_DIMS
            if (value := evaluate(out, dims)) != (expected := euler_sum(k, dims))
        ]

    def _check_fsegre_dims(self, case, out):
        p = case.args[0]
        return [
            f"f_segre({p}) on {dims} is {value}, Koszul terms give {expected}"
            for dims, value in zip(workloads.FSEGRE_DIMS, out, strict=True)
            if value != (expected := (-1) ** p * euler_sum(p + 1, dims))
        ]

    def _check_tschur(self, case, out):
        return []  # checked against its other side by _check_pair

    def _check_pair(self, case, out, outputs):
        side, lam = case.args
        other = "recurrence" if side == "closed" else "closed"
        partner = outputs.get(f"tensor_schur {other} {lam}")
        if partner is not None and partner != out:
            return [f"closed form and Kronecker recurrence differ at {lam}"]
        return []

    def _check_lascoux(self, case, out):
        p = case.args[0]
        # the leading term vanishes unless 1 <= d - p <= sqrt(p)
        return [
            f"lascoux_leading({p}, {d}) should vanish"
            for d, series in zip(range(p, 2 * p + 2), out, strict=True)
            if series and not (1 <= d - p and (d - p) ** 2 <= p)
        ]

    def _check_msr(self, case, out):
        d, e, expo, _, direct = case.args
        if not direct:
            return []
        expected = direct_multinomial_sum(expo, e, d, workloads.MSR_TERMS[d])
        if [Fraction(x) for x in out["coefficients"]] != expected:
            return ["coefficients differ from direct summation"]
        return []

    def _check_reconstruct(self, case, out):
        n = case.args[0]
        expected = [
            sorted([[list(e), str(c)] for e, c in poly.items()])
            for poly in workloads.f1_star_coefficients(n)
        ]
        if out["reexpanded"] != expected:
            return ["reconstruction does not re-expand to its input"]
        return []

    def _check_weyl(self, case, out):
        if out != ["1"] * workloads.WEYL_TERMS:
            return [f"Weyl pairing gives {out}, expected all ones"]
        return []

    def _check_gate(self, case, out):
        problems = []
        if out["exit"] != 0:
            problems.append(f"verify exited {out['exit']}")
        passed = [line for line in out["lines"] if line.startswith("PASS ")]
        numbers = [line.split()[1] for line in passed]
        if numbers != [f"{n:02d}" for n in range(1, CRITERIA + 1)]:
            problems.append(f"{len(passed)} PASS lines, expected {CRITERIA}: {out['lines']}")
        return problems
