"""Record the digest of every case's canonical output into pinned.json.

    PYTHONPATH=src python3 segbench/pin.py

The pinned digests are the outputs of the commit that introduced the
benchmark, where every independent check in checks.py held.  Re-pin only
for a change that is meant to alter an answer, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads

PINNED = Path(__file__).with_name("pinned.json")


def main() -> int:
    lib = workloads.import_library()
    pinned = {}
    for workload in workloads.WORKLOADS:
        for case in workloads.cases(workload, 0):
            out = workloads.prepare(lib, case)()
            pinned[case.id] = workloads.digest(workloads.canonical(case, out))
            print(f"{workload:7s} {pinned[case.id]} {case.id}", file=sys.stderr)
    PINNED.write_text(json.dumps(dict(sorted(pinned.items())), indent=0) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
