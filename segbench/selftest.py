"""Self-test: the benchmark's checks catch wrong math, also under python -O.

    python3 segbench/selftest.py

Runs the oracle workload with a sabotaged oracle that reports every
dimension one too many, once normally and once under `python -O` (the pass
processes inherit -O), and requires each time a non-zero exit status and a
fail_ratio above 0.  Run from the root of a checkout; exits 0 when both
hold.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().with_name("run.py")


def main() -> int:
    ok = True
    for flags in ([], ["-O"]):
        proc = subprocess.run(
            [sys.executable, *flags, str(RUN), "--workload", "oracle", "--seed", "1",
             "--seconds", "1", "--trace", "0", "--sabotage"],
            capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
            ratio = result["failed"] / result["attempted"]
        except (IndexError, json.JSONDecodeError, KeyError, ZeroDivisionError):
            result, ratio = {}, 0.0
        caught = proc.returncode != 0 and ratio > 0 and result.get("correct") is False
        ok = ok and caught
        label = "python " + " ".join(flags + ["run.py"])
        print(f"{'PASS' if caught else 'FAIL'} sabotaged oracle, {label}: "
              f"exit {proc.returncode}, fail_ratio {ratio:.3f}")
        if not caught:
            print(proc.stdout[-2000:], proc.stderr[-2000:], sep="\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
