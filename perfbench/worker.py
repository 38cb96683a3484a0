"""One benchmark process: set up, run the timed body, check, report.

``run.py`` launches this file in a fresh interpreter.  It imports the
package under test (through :mod:`workloads`), prepares the first pass and
records the monotonic instant it is ready, with the host speed seen so
far: the launcher subtracts its own launch instant from that to get
``setup_s``.  With ``--probe`` the process stops there.  Otherwise it runs
the body, checks the outputs untimed and prints one JSON object as the
last line of its standard output.

The body is a fixed number of passes, ``--seconds`` over the workload's
``pass_seconds``: every run of a workload does the same work, whatever the
host's speed, so a throughput never depends on how many passes fitted in
a slow or a fast phase of the host.  The traced body (``--trace 1``) runs
as many passes, alternately with and without the span wrappers
installed; its counts repeat exactly for a given seed.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402  (standard library only)
from hostspeed import HostSpeed  # noqa: E402  (standard library only)


def peak_rss_mb() -> float:
    """High-water resident set of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_passes(workload, host, first: int, count: int) -> list:
    """Run *count* passes, from pass index *first*, each with fresh inputs.

    Each pass records the host-speed scale measured while it ran.
    """
    passes = []
    for index in range(first, first + count):
        inputs = workload.inputs(index)
        begin = time.perf_counter()
        done = workload.run_pass(inputs)
        done.host_scale = host.scale(begin, time.perf_counter())
        passes.append(done)
    return passes


def totals(passes) -> dict:
    return {
        "ops": sum(p.ops for p in passes),
        "seconds": sum(p.seconds for p in passes),
        "host_seconds": sum(p.seconds * p.host_scale for p in passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "replay_cells": sum(p.replay_cells for p in passes),
        "replay_seconds": sum(p.replay_seconds for p in passes),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    with HostSpeed() as host:
        report = run(args, host)
    print(json.dumps(report), flush=True)
    return 0


def run(args, host: HostSpeed) -> dict:
    start = time.perf_counter()
    modules_before = len(sys.modules)
    import workloads  # the package under test, timed as start-up

    import_s = time.perf_counter() - start
    modules = len(sys.modules) - modules_before

    workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny, args.workdir)
    workload.inputs(0)
    report = {"ready": time.monotonic(), "setup_scale": host.scale(start, time.perf_counter())}
    if args.probe:
        return report

    count = max(1, round(args.seconds / workload.pass_seconds))
    if not args.trace:
        passes = run_passes(workload, host, 0, count)
        sums = totals(passes)
        report.update(
            ops=sums["ops"],
            seconds=sums["seconds"],
            host_seconds=sums["host_seconds"],
            passes=len(passes),
            rss_mb=peak_rss_mb(),
        )
    else:
        # Traced and untraced passes alternate, the traced one first, so
        # both halves see the same host phases; the first pass in a fresh
        # process, which pays for cold caches, is a traced one.
        spans = tracer.Tracer()
        plain_passes, traced_passes = [], []
        for index in range(2 * max(1, round(count / 2))):
            if index % 2:
                plain_passes += run_passes(workload, host, index, 1)
                continue
            undo = tracer.install(spans)
            try:
                traced_passes += run_passes(workload, host, index, 1)
            finally:
                tracer.uninstall(undo)
        plain, traced = totals(plain_passes), totals(traced_passes)
        passes = plain_passes + traced_passes
        sums = totals(passes)
        overhead = (traced["host_seconds"] / traced["ops"]) / (plain["host_seconds"] / plain["ops"])
        report["layers"] = tracer.layer_metrics(
            spans,
            import_s=import_s,
            modules=modules,
            traced_s=traced["seconds"] + traced["replay_seconds"],
            overhead=overhead,
            replay_cells=traced["replay_cells"],
            replay_s=traced["replay_seconds"],
        )
        spans.dump(args.workdir / "traces" / f"{args.workload}-seed{args.seed}.jsonl")

    checks_attempted, checks_failed = workload.check(passes)
    report.update(
        attempted=sums["attempted"] + checks_attempted,
        failed=sums["failed"] + checks_failed,
    )
    return report


if __name__ == "__main__":
    sys.exit(main())
