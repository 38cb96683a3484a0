"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload explore_stacked --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py`` and ``BENCHMARK.json``): ``explore_stacked``,
``explore_pool``, ``validate_cold``, ``model_queries``.

With ``--trace 0`` the last line of standard output carries the
end-to-end metrics: ``setup_s`` (launch of a fresh interpreter to its
first timed pass, median of three launches), ``ops_per_s`` (the
workload's operations per second of timed body) and ``peak_rss_mb``
(high-water resident set of the body).  Both timings are scaled
to the reference host speed of ``hostspeed.py``; standard error gets the
unscaled figures.  With ``--trace 1`` the last line carries the
per-layer metrics of a traced body instead.

Everything the benchmark writes stays inside the checkout, under
``.perfbench-work/``: the compiled simulator kernel, temporary cache
directories and the span files of traced runs.  The script exits with
status 2, printing no result, when the checkout holds no package source.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench-work"
WORKLOADS = ("explore_stacked", "explore_pool", "validate_cold", "model_queries")

#: Fresh interpreters launched only to time set-up, besides the body's own.
SETUP_PROBES = 2


def source_digest() -> str:
    """Digest of the package source: a new build is needed when it changes."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*")):
        if path.suffix in (".py", ".c"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["REPRO_EVENTCORE_CACHE"] = str(WORKDIR / "eventcore")
    env["TMPDIR"] = str(WORKDIR / "tmp")
    for name in ("REPRO_FAULTS", "REPRO_TRACE"):
        env.pop(name, None)
    return env


def reap_group(proc: subprocess.Popen) -> None:
    """Kill what is left of *proc*'s process group and wait until it has ended."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def launch(argv: list, timeout: float) -> "tuple[float, str]":
    """Run one child in its own process group; returns (launch instant, stdout).

    Whatever of the group is still running when the child exits or times
    out (pool workers included) is killed and waited for before the result
    or the error is returned.
    """
    started = time.monotonic()
    proc = subprocess.Popen(
        argv, env=child_env(), cwd=ROOT, stdout=subprocess.PIPE, start_new_session=True, text=True
    )
    try:
        out, _ = proc.communicate(timeout=timeout)
    finally:
        reap_group(proc)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[1]} exited with status {proc.returncode}")
    return started, out


def build() -> None:
    """Byte-compile the package and the simulator kernel once per source tree."""
    stamp = WORKDIR / f"build-{source_digest()}.ok"
    if stamp.exists():
        return
    probe = "import repro.simulation as s; raise SystemExit(0 if s.kernel_available() else 3)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=child_env(), cwd=ROOT, timeout=840,
        stdout=subprocess.DEVNULL,
    )
    if result.returncode == 0:
        stamp.touch()


def worker(args, *extra: str) -> dict:
    """Launch ``worker.py``; returns its report plus its set-up wall seconds."""
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(WORKDIR), *extra,
    ]
    if args.tiny:
        argv.append("--tiny")
    timeout = 40.0 if "--probe" in extra else 60.0 + 4.0 * args.seconds
    started, out = launch(argv, timeout)
    report = json.loads(out.strip().splitlines()[-1])
    report["setup_wall_s"] = report["ready"] - started
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2

    (WORKDIR / "tmp").mkdir(parents=True, exist_ok=True)
    build()
    launches = [worker(args, "--probe") for _ in range(SETUP_PROBES)] if not args.trace else []
    report = worker(args)
    launches.append(report)
    # Each launch's set-up at the reference host speed (see hostspeed.py).
    setups = [r["setup_wall_s"] * r["setup_scale"] for r in launches]

    if args.trace:
        metrics = {
            name: {"value": report["layers"][name], "unit": unit}
            for name, unit in LAYER_UNITS.items()
        }
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": report["ops"] / report["host_seconds"], "unit": "1/s"},
            "peak_rss_mb": {"value": report["rss_mb"], "unit": "MB"},
        }
        # Unscaled figures, for reading the host's speed next to the result.
        diagnostics = {
            "wall_ops_per_s": report["ops"] / report["seconds"],
            "host_scale": report["host_seconds"] / report["seconds"],
            "passes": report["passes"],
            "setup_wall_s": [r["setup_wall_s"] for r in launches],
        }
        print(json.dumps(diagnostics), file=sys.stderr)
    result = {
        "correct": report["failed"] == 0 and report["attempted"] > 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
