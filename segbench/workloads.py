"""The four workloads: their case lists, how a case calls the library, and
the canonical form of a case's output.

Case ids do not depend on the seed.  The seed permutes the case order, which
leaves the set of cache misses (and so the work) unchanged, and for genfun it
draws the non-zero rational coefficient of each polynomial part.

Shared by the pass process (child.py), the checks (checks.py) and the script
that recorded the pinned outputs (pin.py).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import itertools
import json
import random
from fractions import Fraction
from math import comb
from types import SimpleNamespace
from typing import NamedTuple

WORKLOADS = ("oracle", "series", "genfun", "gate")

MODULES = (
    "partitions",
    "characters",
    "schur_ring",
    "series",
    "linalg",
    "koszul",
    "rationality",
    "acceptance",
    "cli",
)

# (dims, p, d): the Koszul oracle at its current limits; ((4, 4), 3, 5) is the
# anchor, 2928 weight blocks of which 31 are dominant.
HOMOLOGY = [
    ((3, 3, 3), 2, 3),
    ((4, 4), 3, 4),
    ((4, 4), 3, 5),
    ((2, 2, 2, 2), 2, 3),
    ((3, 4), 3, 4),
    ((2, 2, 3), 2, 4),
]
COSOCLE = [((2, 2, 3), 2, 3), ((2, 2, 2), 3, 4), ((3, 3), 3, 4), ((2, 2, 2, 2), 1, 2)]
# (k, truncation policy); k = 6 at (5, 6) is the series anchor.
EULER = [(6, (5, 6)), (5, (6, 6))]
FSEGRE_DIMS = list(itertools.product((1, 2, 3), repeat=3))
TSCHUR_POLICY = (4, 4)
LASCOUX_MAX_P = 8
MSR_TERMS = {1: 10, 2: 10, 3: 10, 4: 12}
DIRECT_SUBSET = 8  # genfun grid cases re-checked by direct summation
RECONSTRUCT = [(8, 3), (10, 4)]  # (coefficients, largest denominator degree)
WEYL_TERMS = 8


class Case(NamedTuple):
    id: str
    kind: str
    args: tuple


def import_library() -> SimpleNamespace:
    """Import the whole package, as the command line does."""
    return SimpleNamespace(
        **{name: importlib.import_module(f"segre_syzygies.{name}") for name in MODULES}
    )


def replace_everywhere(lib: SimpleNamespace, old, new) -> None:
    """Rebind every package-level name that holds `old` to `new`."""
    for module in vars(lib).values():
        for name, value in list(vars(module).items()):
            if value is old:
                setattr(module, name, new)


def _partitions(n: int, largest: int | None = None):
    largest = n if largest is None else largest
    if n == 0:
        yield ()
        return
    for first in range(min(n, largest), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _unit(d: int, *positions: int) -> tuple[int, ...]:
    return tuple(sum(1 for i in positions if i == j) for j in range(d))


def _msr_cases(rng: random.Random) -> list[Case]:
    out = []
    grid = []
    for d in (1, 2, 3):
        monomials = [_unit(d)] + [_unit(d, i) for i in range(d)]
        monomials += [_unit(d, i, k) for i in range(d) for k in range(i, d)]
        grid += [(d, e, x) for e in itertools.product((-2, 0, 2), repeat=d) for x in monomials]
    d4 = [(4, e, x) for e in itertools.product((-1, 0, 1), repeat=4)
          for x in [_unit(4)] + [_unit(4, i) for i in range(4)]]
    direct = set(rng.sample(range(len(grid)), DIRECT_SUBSET))
    for n, (d, e, expo) in enumerate(grid + d4):
        coeff = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
        out.append(Case(f"msr d={d} e={e} k={expo}", "msr", (d, e, expo, coeff, n in direct)))
    return out


def cases(workload: str, seed: int) -> list[Case]:
    """The workload's case list, in the order the seed gives."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "oracle":
        out = [Case(f"homology {a}", "homology", a) for a in HOMOLOGY]
        out += [Case(f"cosocle {a}", "cosocle", a) for a in COSOCLE]
    elif workload == "series":
        out = [Case(f"euler_chi k={k} policy={pol}", "euler", (k, pol)) for k, pol in EULER]
        out += [Case(f"f_segre dims p={p}", "fsegre_dims", (p,)) for p in (1, 2, 3)]
        for n in range(1, 5):
            for lam in _partitions(n):
                for side in ("closed", "recurrence"):
                    out.append(Case(f"tensor_schur {side} {lam}", "tschur", (side, lam)))
        out += [Case(f"lascoux p={p}", "lascoux", (p,)) for p in range(1, LASCOUX_MAX_P + 1)]
    elif workload == "genfun":
        out = _msr_cases(rng)
        out += [Case(f"reconstruct n={n} m={m}", "reconstruct", (n, m)) for n, m in RECONSTRUCT]
        out += [Case(f"weyl d={d}", "weyl", (d,)) for d in (1, 2, 3)]
    elif workload == "gate":
        out = [Case("verify", "gate", ())]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(out)
    return out


def f1_star_coefficients(n_terms: int) -> list[dict[tuple[int, int], int]]:
    """Order-n coefficients of the order-normalised 1-syzygy series in QQ[s,w].

    From its exponential form (exp(s+w) + exp(s-w))/2 - exp(s): the order-n
    part, times n!, is ((s+w)^n + (s-w)^n)/2 - s^n.
    """
    return [{(n - b, b): comb(n, b) for b in range(2, n + 1, 2)} for n in range(n_terms)]


def prepare(lib: SimpleNamespace, case: Case):
    """A zero-argument call that runs the case.

    Inputs are built here, before the timed region.  Library functions are
    looked up when the call runs, so wrappers installed later take effect.
    """
    kind, a = case.kind, case.args
    if kind == "homology":
        return lambda: lib.koszul.koszul_homology(*a)
    if kind == "cosocle":
        return lambda: lib.koszul.new_syzygy_dimension(*a)
    if kind == "euler":
        policy = lib.series.TruncationPolicy(*a[1])
        return lambda: lib.series.euler_chi(a[0], policy)
    if kind == "fsegre_dims":
        p = a[0]

        def fsegre_dims():
            star = lib.series.order_normalize(lib.series.f_segre(p))
            return [lib.series.dimension_on_factors(star, dims, p + 1) for dims in FSEGRE_DIMS]

        return fsegre_dims
    if kind == "tschur":
        side, lam = a
        policy = lib.series.TruncationPolicy(*TSCHUR_POLICY)
        return lambda: getattr(lib.series, f"tensor_schur_series_{side}")(lam, policy)
    if kind == "lascoux":
        p = a[0]
        return lambda: [lib.series.lascoux_leading(p, d) for d in range(p, 2 * p + 2)]
    if kind == "msr":
        d, e, expo, coeff, _ = a
        poly = {expo: coeff}

        def msr():
            rf = lib.rationality.multinomial_sum_rational(poly, e, d)
            return rf, rf.coefficients(MSR_TERMS[d])

        return msr
    if kind == "reconstruct":
        n, m = a
        coeffs = [lib.rationality.MPoly(2, c) for c in f1_star_coefficients(n)]
        return lambda: lib.rationality.rational_reconstruct(coeffs, m)
    if kind == "weyl":
        d = a[0]
        torus = lib.rationality.geometric_torus_coefficients(d, WEYL_TERMS)
        return lambda: lib.rationality.weyl_series(d, torus, WEYL_TERMS)
    if kind == "gate":

        def gate():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = lib.cli.main(["verify"])
            return rc, buf.getvalue()

        return gate
    raise ValueError(f"unknown case kind {kind!r}")


# ---------------------------------------------------------------------------
# canonical forms: plain JSON values, independent of the library's internal
# representation


def _series(s) -> list:
    return [
        [[list(lam) for lam in mono], str(s.terms[mono])]
        for mono in sorted(s.terms, key=lambda m: (len(m), m))
    ]


def _decomposition(dec: dict) -> list:
    return [[[list(lam) for lam in lams], mult] for lams, mult in sorted(dec.items())]


def _mpoly(x) -> list:
    return [[list(e), str(c)] for e, c in sorted(x.terms.items())]


def _trim(a: list) -> list:
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def _divmod(a: list, b: list) -> tuple[list, list]:
    a = _trim(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        shift = len(a) - len(b)
        q[shift] = c
        for i, x in enumerate(b):
            a[i + shift] -= c * x
        a = _trim(a[:-1])
    return q, a


def reduced(num: list, den: list) -> tuple[list, list]:
    """num/den over QQ in lowest terms, with den(0) = 1."""
    num, den = _trim(map(Fraction, num)), _trim(map(Fraction, den))
    a, b = den, num
    while b:
        a, b = b, _divmod(a, b)[1]
    if len(a) > 1:
        num, rest_n = _divmod(num, a)
        den, rest_d = _divmod(den, a)
        if rest_n or rest_d:
            raise ArithmeticError("gcd does not divide")
    if not den or not den[0]:
        raise ArithmeticError(f"not a power series: denominator {den}")
    return [x / den[0] for x in _trim(num)], [x / den[0] for x in den]


def canonical(case: Case, out):
    """The case's output as plain JSON values, fit for pinning and checking."""
    kind = case.kind
    if kind == "homology":
        return {"dimension": out.dimension, "decomposition": _decomposition(out.decomposition)}
    if kind == "cosocle":
        return {"dimension": out[0], "decomposition": _decomposition(out[1])}
    if kind in ("euler", "tschur"):
        return _series(out)
    if kind == "fsegre_dims":
        return list(out)
    if kind == "lascoux":
        return [_series(s) for s in out]
    if kind == "msr":
        # divided by the seeded coefficient, so that the pinned form is the
        # unit-coefficient sum and does not depend on the seed
        rf, coeffs = out
        c = case.args[3]
        num, den = reduced([x / c for x in rf.num], rf.den)
        return {
            "num": [str(x) for x in num],
            "den": [str(x) for x in den],
            "coefficients": [str(x / c) for x in coeffs],
        }
    if kind == "reconstruct":
        n = case.args[0]
        return {
            "num": [_mpoly(x) for x in out.num],
            "den": [_mpoly(x) for x in out.den],
            "reexpanded": [_mpoly(x) for x in out.coefficients(n)],
        }
    if kind == "weyl":
        return [str(x) for x in out]
    if kind == "gate":
        rc, text = out
        return {"exit": rc, "lines": [line.split(" (")[0] for line in text.splitlines()]}
    raise ValueError(f"unknown case kind {kind!r}")


def digest(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
