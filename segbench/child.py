"""One pass of one workload, in a fresh interpreter.

Started by run.py with one JSON argument: workload, seed, mode ("pass" or
"trace"), whether to sabotage the oracle, and the library's source
directory.  It imports the package and builds the inputs (the set-up),
then runs the case list in the timed region with a speed probe
(speed.py) beside it, and prints one JSON object on stdout: the monotonic
time at which set-up ended, the timed wall and CPU seconds, the wall time
at reference speed with the probe's summary, the peak resident memory up
to the end of the timed region, every functools cache's statistics, and
each case's canonical output or error.  In trace mode it also reports the
per-layer summary of its spans.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import sys
import time

import speed
import workloads


def sabotage(lib) -> None:
    """Make the oracle report one dimension too many (for the self-test)."""
    homology = lib.koszul.koszul_homology
    cosocle = lib.koszul.new_syzygy_dimension

    def broken_homology(*args, **kwargs):
        report = homology(*args, **kwargs)
        return dataclasses.replace(report, dimension=report.dimension + 1)

    def broken_cosocle(*args, **kwargs):
        dimension, decomposition = cosocle(*args, **kwargs)
        return dimension + 1, decomposition

    workloads.replace_everywhere(lib, homology, broken_homology)
    workloads.replace_everywhere(lib, cosocle, broken_cosocle)


def find_caches(lib) -> dict:
    """Every functools cache defined in the package, by module-qualified name."""
    found = {}
    for short, module in vars(lib).items():
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                found[f"{short}.{name}"] = value
    return found


def peak_rss_kib() -> int:
    """Peak resident memory of this process's own address space.

    getrusage's ru_maxrss (and wait4's) is not used: on Linux, exec carries
    the spawning process's high-water mark into it, so it would report the
    parent benchmark process's memory whenever that is larger.
    """
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["library"])
    lib = workloads.import_library()
    cases = workloads.cases(spec["workload"], spec["seed"])
    calls = [workloads.prepare(lib, case) for case in cases]
    caches = find_caches(lib)
    tracer = None
    if spec["mode"] == "trace":
        import spans

        tracer = spans.Tracer(lib)
    if spec["sabotage"]:
        sabotage(lib)
    t_ready = time.monotonic()

    results = []
    with speed.Probe() as probe:
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        for case, call in zip(cases, calls):
            if tracer is not None:
                tracer.case = case.id
            try:
                results.append((call(), None))
            except Exception as exc:  # a failing case is counted, not fatal
                results.append((None, f"{type(exc).__name__}: {exc}"))
        wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0
    peak_rss_mb = peak_rss_kib() / 1024
    probed = probe.summary()

    # outside the timed region
    cache_info = {name: list(c.cache_info())[:3] for name, c in caches.items()}
    outputs, errors = {}, {}
    for case, (out, error) in zip(cases, results):
        if error is None:
            try:
                outputs[case.id] = workloads.canonical(case, out)
            except Exception as exc:  # a malformed output is a wrong answer
                error = f"malformed output: {type(exc).__name__}: {exc}"
        if error is not None:
            errors[case.id] = error
    report = {
        "t_ready": t_ready,
        "wall_s": wall,
        "wall_ref_s": speed.at_reference(wall, probed),
        **probed,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "capacity": lib.koszul.DEFAULT_CAPACITY,
        "caches": cache_info,
        "outputs": outputs,
        "errors": errors,
    }
    if tracer is not None:
        report["layers"] = tracer.summary(cache_info)
    json.dump(report, sys.stdout)


if __name__ == "__main__":
    main()
