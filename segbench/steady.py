"""Steadiness check: run the benchmark in two sets on the same code and
report, per workload and end-to-end metric, whether the sets agree within
the bounds of BENCHMARK.json.

    python3 segbench/steady.py

Run from the root of a checkout.  Each set runs every workload of
BENCHMARK.json once per seed for run_seconds; set 1 uses seeds 1-10, set 2
seeds 11-20.  For each set and metric the spread is the distance between
the first and third quartile of the per-run values (statistics.quantiles,
n=4) as a share of their median, and the drift is how far the second set's
median lies from the first's, either way, as a share of the first.  A
metric agrees when its drift is within its bound and so is each set's
spread; setup_s is held to its drift alone, because its bound guards
against work moved into set-up, not against noise in one set.  The target
is a spread below a third of the bound.  Exit status 0 means every metric
agrees and every run was correct.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SEEDS = 10  # runs per workload per set


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main() -> int:
    declared = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    metrics = declared["end_to_end"]
    values = {}  # (set, workload, metric) -> per-run values
    ok = True
    for s in range(2):
        for workload in names:
            for seed in range(s * SEEDS + 1, (s + 1) * SEEDS + 1):
                start = time.monotonic()
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(declared["run_seconds"]),
                     "--trace", "0"],
                    capture_output=True, text=True,
                )
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if lines else {}
                took = time.monotonic() - start
                if proc.returncode != 0 or not result.get("correct"):
                    ok = False
                    print(f"set {s + 1} {workload} seed {seed}: FAILED (exit {proc.returncode}, "
                          f"{took:.0f} s)\n{proc.stderr[-2000:]}", flush=True)
                    continue
                got = {m["name"]: result["metrics"][m["name"]]["value"] for m in metrics}
                for name, value in got.items():
                    values.setdefault((s, workload, name), []).append(value)
                print(f"set {s + 1} {workload} seed {seed}: "
                      + " ".join(f"{k}={v:.4g}" for k, v in got.items()) + f" ({took:.0f} s)",
                      flush=True)

    print(f"\n{'workload':8s} {'metric':12s} {'median':>10s} {'spread':>7s} "
          f"{'median2':>10s} {'spread2':>7s} {'drift':>7s} {'bound':>6s}  verdict")
    for workload in names:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sets = [values.get((s, workload, name), []) for s in range(2)]
            if any(len(v) < 2 for v in sets):
                print(f"{workload:8s} {name:12s} too few runs")
                ok = False
                continue
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            drift = abs(medians[1] - medians[0]) / medians[0]
            agrees = drift <= bound and (name == "setup_s" or max(spreads) <= bound)
            steady = name == "setup_s" or max(spreads) < bound / 3
            ok = ok and agrees
            verdict = ("agree" if agrees else "DISAGREE") + ("" if steady else " (spread over bound/3)")
            print(f"{workload:8s} {name:12s} {medians[0]:10.4g} {spreads[0]:7.3f} "
                  f"{medians[1]:10.4g} {spreads[1]:7.3f} {drift:7.3f} {bound:6.2f}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
