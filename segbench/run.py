"""Cold-process benchmark of segre-syzygies.

    python3 segbench/run.py --workload oracle --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  Each pass runs the workload's whole case
list in a fresh single-threaded interpreter (child.py), so every
functools cache starts cold, as it does for a user's one command.  Passes
run one at a time, at least MIN_PASSES, for about --seconds in all.  No
pass starts that could not end within WORKLOAD_LIMIT_S of the start of its
workload (of the run, for the first), so that a one-workload run exits
within 180 s; --seconds is therefore at most MAX_SECONDS, which leaves room
for the last round.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: setup_s (median
set-up time of the passes), wall_ref_s (median timed pass at the reference
speed of speed.py) and peak_rss_mb (median peak resident memory of a pass
process up to the end of its timed region); the block printed per workload
also shows the plain median wall_s.  --trace 1 alternates untraced and
traced passes and reports the per-layer metrics instead.  --workload all
runs the four workloads in turn and prefixes each metric with its
workload.

Every case of every pass is checked exactly (checks.py) outside the timed
region.  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics; the exit status is 0 only when every case
of every pass was correct.  --sabotage makes the oracle report one
dimension too many, for selftest.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import speed
import workloads

HERE = Path(__file__).resolve().parent
MIN_PASSES = 3
WORKLOAD_LIMIT_S = 170
MAX_SECONDS = 120


class PassFailed(Exception):
    """A pass process crashed, timed out or printed no report."""


class Runner:
    def __init__(self, root: Path, sabotage: bool):
        self.root = root
        self.sabotage = sabotage
        self.started = time.monotonic()
        self.flags = ["-E", "-s"] + ["-O"] * sys.flags.optimize
        self.library = str(root / "src")
        self.pinned = json.loads((HERE / "pinned.json").read_text())
        # Bytecode is compiled once, before any pass, as an installed package
        # has it; the passes write nothing (-B), so none sees another's files.
        subprocess.run(
            [sys.executable, *self.flags, "-m", "compileall", "-q",
             str(root / "src" / "segre_syzygies"), str(HERE)],
            check=True, stdout=subprocess.DEVNULL, timeout=120,
        )

    def spawn(self, workload: str, seed: int, mode: str, deadline: float) -> dict:
        """Run one pass process, killed at the deadline; its report, plus its set-up time."""
        spec = {"workload": workload, "seed": seed, "mode": mode,
                "sabotage": self.sabotage, "library": self.library}
        cmd = [sys.executable, *self.flags, "-B", str(HERE / "child.py"), json.dumps(spec)]
        timeout = max(deadline - time.monotonic(), 1)
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                cwd=self.root, text=True)
        try:
            text, err_text = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise PassFailed(f"{mode} process killed after {timeout:.0f} s") from None
        except BaseException:  # interrupted: stop the pass before leaving
            proc.kill()
            proc.wait()
            raise
        if proc.returncode != 0:
            raise PassFailed(f"{mode} process exited {proc.returncode}: {err_text.strip()[-2000:]}")
        try:
            report = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PassFailed(f"{mode} process printed no report: {exc}") from exc
        report["setup_s"] = report["t_ready"] - t_spawn
        return report


def run_workload(runner: Runner, workload: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    """All passes of one workload; returns samples, check results and errors."""
    begin = time.monotonic()
    cases = workloads.cases(workload, seed)
    checker = checks.Checker(runner.pinned, runner.library)
    passes, failures, errors = [], [], []
    attempted = failed = 0
    modes = ["pass", "trace"] if trace else ["pass"]
    try:
        rounds = []  # seconds per round: one pass and its checks
        while True:
            start = time.monotonic()
            mode = modes[len(passes) % len(modes)]
            report = runner.spawn(workload, seed, mode, deadline)
            report["mode"] = mode
            passes.append(report)
            bad = checker.check_pass(cases, report["outputs"], report["errors"])
            attempted += len(cases)
            failed += len(bad)
            failures += [{"pass": len(passes), "case": k, "problems": v} for k, v in bad.items()]
            now = time.monotonic()
            rounds.append(now - start)
            if now + max(rounds) > deadline:
                break
            # start another round if it would end, on average, less than half
            # a round after --seconds, so that runs average --seconds
            if (len(passes) >= MIN_PASSES
                    and now - begin + statistics.median(rounds) / 2 > seconds):
                break
    except PassFailed as exc:
        errors.append(str(exc))
        attempted += len(cases)
        failed += len(cases)
    return {"passes": passes, "attempted": attempted, "failed": failed,
            "failures": failures, "errors": errors}


def end_to_end(result: dict) -> dict[str, float]:
    passes = result["passes"]
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "wall_ref_s": statistics.median(p["wall_ref_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }


def per_layer(result: dict) -> dict[str, float]:
    plain = [p for p in result["passes"] if p["mode"] == "pass"]
    traced = [p for p in result["passes"] if p["mode"] == "trace"]
    layers = {
        name: statistics.median(p["layers"][name] for p in traced)
        for name in traced[0]["layers"]
    }
    layers["process.cpu_s"] = statistics.median(p["cpu_s"] for p in plain)
    layers["process.wall_s"] = statistics.median(p["wall_s"] for p in plain)
    layers["process.slowdown_ratio"] = statistics.median(
        p["probe_s"] / speed.REFERENCE_S for p in plain)
    layers["trace.overhead_ratio"] = (
        statistics.median(p["wall_ref_s"] for p in traced)
        / statistics.median(p["wall_ref_s"] for p in plain)
    )
    return layers


def metadata(root: Path, args, runs: dict) -> dict:
    commit = None
    try:
        git = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        lines = git.stdout.split()
        if git.returncode == 0 and Path(lines[0]).resolve() == root.resolve():
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    source = hashlib.sha256()
    for path in sorted((root / "src" / "segre_syzygies").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu_model = None
    try:
        with open("/proc/cpuinfo") as f:
            cpu_model = next((line.split(":", 1)[1].strip() for line in f
                              if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "commit": commit,
        "source_sha256": source.hexdigest(),
        "python": platform.python_version(),
        "optimize": sys.flags.optimize,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": 1,
        "capacity": {w: r["passes"][0]["capacity"] if r["passes"] else None
                     for w, r in runs.items()},
        "passes": {w: len(r["passes"]) for w, r in runs.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help=f"measuring time per workload, at most {MAX_SECONDS}")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sabotage", action="store_true",
                        help="make the oracle report one dimension too many (self-test)")
    args = parser.parse_args(argv)
    if not 0 < args.seconds <= MAX_SECONDS:
        parser.error(f"--seconds must be above 0 and at most {MAX_SECONDS}")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "segre_syzygies" / "__init__.py").is_file():
        print("error: run from the root of a segre-syzygies checkout "
              "(src/segre_syzygies not found)", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}

    runner = Runner(root, args.sabotage)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    runs = {}
    begin = runner.started
    for workload in names:
        runs[workload] = run_workload(runner, workload, args.seed, args.seconds, bool(args.trace),
                                      begin + WORKLOAD_LIMIT_S)
        begin = time.monotonic()

    metrics = {}
    for workload, result in runs.items():
        if not result["passes"] or (args.trace and len({p["mode"] for p in result["passes"]}) < 2):
            print(f"error: {workload}: no complete pass: {result['errors']}", file=sys.stderr)
            return 1
        values = per_layer(result) if args.trace else end_to_end(result)
        prefix = f"{workload}." if args.workload == "all" else ""
        ratio = result["failed"] / result["attempted"]
        print(f"{workload}: {len(result['passes'])} passes, seed {args.seed}")
        for name, unit in units.items():
            metrics[prefix + name] = {"value": values[name], "unit": unit}
            print(f"  {name:44s} {values[name]:.6g} {unit}")
        if not args.trace:
            wall = statistics.median(p["wall_s"] for p in result["passes"])
            print(f"  {'wall_s':44s} {wall:.6g} s (plain wall time, not speed-corrected)")
        print(f"  {'fail_ratio':44s} {ratio:.6g} ratio "
              f"({result['failed']} of {result['attempted']} cases)")
        for failure in result["failures"][:5] + [{"error": e} for e in result["errors"]]:
            print(f"  FAILED {json.dumps(failure)}")

    record = {
        "meta": metadata(root, args, runs),
        "samples": {
            w: [{k: p[k] for k in ("mode", "setup_s", "wall_s", "wall_ref_s", "probe_s",
                                   "probe_n", "cpu_s", "peak_rss_mb", "caches")}
                for p in r["passes"]]
            for w, r in runs.items()
        },
    }
    print("record " + json.dumps(record, separators=(",", ":")))
    attempted = sum(r["attempted"] for r in runs.values())
    failed = sum(r["failed"] for r in runs.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
