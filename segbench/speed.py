"""Speed probe: how fast the machine ran while a pass was timed.

On a shared host the CPU's throughput changes from one second to the next
(another tenant's load on the same physical core, for example): a fixed
pure-Python loop run alone in fresh processes took 0.53-0.98 s, and one
workload's passes of one run differed by up to 40% with CPU time tracking
wall time.  Medians over passes cannot remove a change that lasts minutes.

So a pass process runs a Probe thread next to its timed region.  Every
INTERVAL_S it times KERNEL, a fixed piece of pure-Python work of the
library's three kinds (Bareiss elimination on small integers, tuple keys
in a dict, polynomial division over Fraction), in the same process and on
the same CPU as the pass.  The library is single-threaded, so the probe
only takes the interpreter lock between the library's bytecodes; its
samples follow the speed the pass itself ran at.  The slow state does not
slow every kind of work alike: a kernel without the Fraction part
under-corrected genfun's passes (their corrected times still read about
6% lower in fast spells than in slow ones).  A pass's time at reference
speed is its wall time, less the probe's own time, scaled by REFERENCE_S
over the probe's mean sample.  The kernel, the interval and the reference
are part of the benchmark and must not change between the two sides of a
comparison.
"""

from __future__ import annotations

import threading
import time
from fractions import Fraction

INTERVAL_S = 0.025
# Mean KERNEL time at the speed the reference-speed metrics are quoted at:
# about the mean sample during passes on the 2-vCPU Intel Xeon virtual
# machine the benchmark was written on (0.6-0.85 ms; 0.5 ms alone).
REFERENCE_S = 0.00065
TRIM = 0.05  # share of the slowest samples left out (preempted probes)


def _matrix(n: int, seed: int) -> list[list[int]]:
    x, rows = seed, []
    for _ in range(n):
        row = []
        for _ in range(n):
            x = (1103515245 * x + 12345) % 2147483648
            row.append((x >> 16) % 7 - 3)
        rows.append(row)
    return rows


def _bareiss_rank(matrix: list[list[int]]) -> int:
    m = [row[:] for row in matrix]
    n, prev, r = len(m), 1, 0
    for c in range(n):
        p = next((i for i in range(r, n) if m[i][c]), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        pivot, top = m[r][c], m[r]
        for i in range(r + 1, n):
            head = m[i][c]
            m[i] = [(pivot * a - head * b) // prev for a, b in zip(m[i], top)]
        prev, r = pivot, r + 1
    return r


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for k in range(total + 1):
        for rest in _compositions(total - k, parts - 1):
            yield (k,) + rest


def _remainder(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Remainder of polynomial long division, coefficients highest first."""
    while len(a) >= len(b):
        q = a[0] / b[0]
        a = [x - q * y for x, y in zip(a[1:], b[1:])] + a[len(b):]
    return a


MATRIX = _matrix(14, 7)
DIVIDEND = [Fraction((7 * i) % 11 - 5, (3 * i) % 7 + 1) for i in range(10)]
DIVISOR = [Fraction(n, d) for n, d in ((1, 1), (-2, 3), (5, 7), (-1, 2), (3, 5), (2, 9))]


def kernel() -> tuple[int, int, Fraction]:
    """The fixed work one probe sample times (about 0.55 ms)."""
    weights: dict[tuple[int, ...], int] = {}
    for c in _compositions(5, 4):
        key = tuple(sorted(c, reverse=True))
        weights[key] = weights.get(key, 0) + c[0]
    rests = [sum(_remainder(DIVIDEND, DIVISOR)) for _ in range(3)]
    return _bareiss_rank(MATRIX), sum(weights.values()), sum(rests)


class Probe:
    """Times KERNEL every INTERVAL_S from a thread while the block runs."""

    def __init__(self):
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            t = time.perf_counter()
            kernel()
            self.samples.append(time.perf_counter() - t)

    def __enter__(self) -> Probe:
        for _ in range(20):  # let the interpreter specialise the kernel first
            kernel()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def summary(self) -> dict[str, float]:
        """Mean sample (slowest TRIM left out), sample count and the probe's own time."""
        samples = sorted(self.samples)
        if not samples:  # a block shorter than INTERVAL_S
            t = time.perf_counter()
            kernel()
            samples = [time.perf_counter() - t]
        kept = samples[: max(1, len(samples) - int(len(samples) * TRIM))]
        return {
            "probe_s": sum(kept) / len(kept),
            "probe_n": len(self.samples),
            "probe_busy_s": sum(self.samples),
        }


def at_reference(wall_s: float, probe: dict[str, float]) -> float:
    """A timed region's wall time at reference speed, without the probe's own time."""
    return (wall_s - probe["probe_busy_s"]) * REFERENCE_S / probe["probe_s"]
