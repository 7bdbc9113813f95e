"""Spans around calls into the library's public functions, for the traced run.

Each traced function is replaced at every name a caller looks it up by: in
every module of the package that holds it, so that `koszul.rank` is wrapped
as well as `linalg.rank`, and on its class for the two methods.  A span
records name, start, end, parent span and case id; spans stay in memory and
are summarised when the pass ends.  A layer's self time is its span time
minus the time its child spans cover.
"""

from __future__ import annotations

import sys
from itertools import combinations, product
from time import perf_counter
from types import SimpleNamespace

from workloads import replace_everywhere

# span name -> (module, attribute path) of the traced function
TARGETS = {
    "koszul.homology": ("koszul", "koszul_homology"),
    "koszul.cosocle": ("koszul", "new_syzygy_dimension"),
    "koszul.schur_extract": ("koszul", "schur_extract"),
    "partitions.kostka": ("partitions", "kostka"),
    "linalg.rank": ("linalg", "rank"),
    "linalg.nullspace": ("linalg", "nullspace"),
    "series.exp_combination": ("series", "exp_combination"),
    "series.exp_series": ("series", "exp_series"),
    "series.mul": ("series", "PartitionSeries.__mul__"),
    "series.dimension_on_factors": ("series", "dimension_on_factors"),
    "schur_ring.boxtimes": ("schur_ring", "boxtimes"),
    "schur_ring.power_sum": ("schur_ring", "power_sum"),
    "characters.kronecker": ("characters", "kronecker_coefficient"),
    "characters.table": ("characters", "character_table"),
    "rationality.msr": ("rationality", "multinomial_sum_rational"),
    "rationality.rf_add": ("rationality", "RationalFunction.__add__"),
    "rationality.coefficients": ("rationality", "RationalFunction.coefficients"),
    "rationality.reconstruct": ("rationality", "rational_reconstruct"),
    "rationality.weyl": ("rationality", "weyl_series"),
    "acceptance.run_all": ("acceptance", "run_all"),
    "cli.main": ("cli", "main"),
}

# metric -> span names whose self time it sums
SELF_TIME = {
    "koszul.self_s": ("koszul.homology", "koszul.cosocle"),
    "cli.self_s": ("cli.main",),
}

HIT_RATIOS = {
    "characters.mn_cache_hit_ratio": "characters._mn",
    "partitions.lr_cache_hit_ratio": "partitions.lr_coefficient",
    "partitions.schur_product_cache_hit_ratio": "partitions.schur_product",
    "rationality.monomial_sum_cache_hit_ratio": "rationality._monomial_sum",
}

CRITERIA = 13
COUNTS = ("koszul.blocks_ranked", "linalg.rank_cells", "linalg.nullspace_cells", "series.terms_out")


def _dominant_weights(dims, p: int, d: int) -> int:
    """Weights of the Koszul slice's middle term whose every factor is
    weakly decreasing.  The middle term is ring degree d - p times the p-th
    exterior power of the tensor space; its weights are sums of a ring
    monomial's exponents and a wedge's per-factor index counts."""
    i = d - p
    tensor = list(product(*(range(n) for n in dims)))
    if i < 0 or p < 0 or p > len(tensor):
        return 0
    wedges = set()
    for wedge in combinations(tensor, p):
        counts = [[0] * n for n in dims]
        for idx in wedge:
            for f, a in enumerate(idx):
                counts[f][a] += 1
        wedges.add(tuple(tuple(c) for c in counts))
    rings = list(product(*(list(_compositions(i, n)) for n in dims)))
    weights = {
        tuple(tuple(x + y for x, y in zip(rf, wf)) for rf, wf in zip(r, w))
        for r in rings
        for w in wedges
    }
    return sum(
        1
        for w in weights
        if all(all(c[k] >= c[k + 1] for k in range(len(c) - 1)) for c in w)
    )


def _compositions(total: int, length: int):
    if length == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, length - 1):
            yield (first,) + rest


class Tracer:
    """Installs the span wrappers and summarises the spans of one pass."""

    def __init__(self, lib: SimpleNamespace):
        self.case = None
        self.spans: list = []  # (name, start, end, parent index, case id)
        self.child_time: list[float] = []
        self.stack: list[int] = []
        self.counts = dict.fromkeys(COUNTS, 0)
        self.koszul_calls: list[tuple] = []
        self.criterion_s = [0.0] * (CRITERIA + 1)
        self._last_block_frame = None
        hooks = {
            "linalg.rank": self._on_rank,
            "linalg.nullspace": self._on_nullspace,
            "series.exp_combination": self._on_series,
            "series.exp_series": self._on_series,
            "series.mul": self._on_series,
            "koszul.homology": self._on_koszul,
            "koszul.cosocle": self._on_koszul,
            "acceptance.run_all": self._on_run_all,
        }
        for name, (module, path) in TARGETS.items():
            owner = getattr(lib, module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:  # gone from the library: its metrics read 0
                continue
            wrapper = self._wrap(name, original, hooks.get(name))
            if outer:
                setattr(owner, attr, wrapper)
            else:
                replace_everywhere(lib, original, wrapper)

    def _wrap(self, name: str, fn, hook):
        spans, child_time, stack = self.spans, self.child_time, self.stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            child_time.append(0.0)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.case)
                if parent >= 0:
                    child_time[parent] += end - start
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _count_block(self) -> None:
        # a block is one call of the koszul function that hands matrices to
        # rank or nullspace; frame 0 is this method, 1 the hook, 2 the
        # wrapper, 3 the caller
        caller = sys._getframe(3)
        if caller.f_globals.get("__name__") != "segre_syzygies.koszul":
            return
        if caller is not self._last_block_frame:
            self._last_block_frame = caller
            self.counts["koszul.blocks_ranked"] += 1

    def _on_rank(self, args, result) -> None:
        matrix = args[0]
        self.counts["linalg.rank_cells"] += len(matrix) * len(matrix[0]) if matrix else 0
        self._count_block()

    def _on_nullspace(self, args, result) -> None:
        self.counts["linalg.nullspace_cells"] += len(args[0]) * args[1]
        self._count_block()

    def _on_series(self, args, result) -> None:
        self.counts["series.terms_out"] += len(result.terms)

    def _on_koszul(self, args, result) -> None:
        self.koszul_calls.append(tuple(args[:3]))

    def _on_run_all(self, args, result) -> None:
        for r in result:
            self.criterion_s[r.number] += r.seconds

    def summary(self, caches: dict) -> dict[str, float]:
        """Per-layer metrics of the pass."""
        self._last_block_frame = None
        spans = self.spans
        out = {f"{name}_{kind}": 0 for name in TARGETS for kind in ("s", "calls")}
        for index, (name, start, end, parent, _) in enumerate(spans):
            out[f"{name}_calls"] += 1
            # time covered by a name: its outermost spans only
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                out[f"{name}_s"] += end - start
        for metric, names in SELF_TIME.items():
            out[metric] = sum(
                end - start - self.child_time[index]
                for index, (name, start, end, _, _) in enumerate(spans)
                if name in names
            )
        out.update(self.counts)
        dominant = sum(_dominant_weights(*call) for call in self.koszul_calls)
        out["koszul.dominant_blocks"] = dominant
        blocks = out["koszul.blocks_ranked"]
        out["koszul.useful_block_ratio"] = dominant / blocks if blocks else 0.0
        for metric, cache in HIT_RATIOS.items():
            hits, misses = caches.get(cache, (0, 0))[:2]
            out[metric] = hits / (hits + misses) if hits + misses else 0.0
        for number in range(1, CRITERIA + 1):
            out[f"acceptance.criterion_{number:02d}_s"] = self.criterion_s[number]
        return out
