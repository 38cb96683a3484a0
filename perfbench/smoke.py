"""The benchmark's own smoke test, at tiny sizes.

Usage, from the root of a checkout::

    python3 perfbench/smoke.py

For every workload it checks that an untraced run prints exactly the
end-to-end metrics of ``BENCHMARK.json`` with their units and passes its
output checks, and that two traced runs with the same seed print exactly
the per-layer metrics with equal counts.  It also checks that
``validate_cold`` fails when the simulator kernel is switched off, and
that the benchmark refuses to run in a directory holding only
``BENCHMARK.json`` and its own files.  Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
EXACT_UNITS = ("count", "bytes")


def run(root: Path, workload: str, trace: int, env=None) -> "tuple[int, dict | None]":
    out = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=root, capture_output=True, text=True, env=env, timeout=300, check=False,
    )
    lines = out.stdout.strip().splitlines()
    try:
        return out.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return out.returncode, None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    def expect_metrics(result: dict, declared: list, what: str) -> None:
        units = {m["name"]: m["unit"] for m in declared}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        expect(got == units, f"{what}: every declared metric, with its unit")

    for workload in (w["name"] for w in spec["workloads"]):
        code, result = run(ROOT, workload, 0)
        expect(code == 0 and result is not None and result["correct"], f"{workload}: checks pass")
        if result is None:
            continue
        expect_metrics(result, spec["end_to_end"], workload)
        expect(all(m["value"] > 0 for m in result["metrics"].values()), f"{workload}: no zero metric")

        traced = [run(ROOT, workload, 1)[1] for _ in range(2)]
        if None in traced:
            expect(False, f"{workload}: traced runs print a result")
            continue
        expect(all(t["correct"] for t in traced), f"{workload}: traced checks pass")
        expect_metrics(traced[0], spec["per_layer"], f"{workload} traced")
        counts = [
            {n: m["value"] for n, m in t["metrics"].items() if m["unit"] in EXACT_UNITS}
            for t in traced
        ]
        expect(counts[0] == counts[1], f"{workload}: counts repeat for seed {SEED}")

    env = dict(os.environ, REPRO_SIM_KERNEL="0")
    code, result = run(ROOT, "validate_cold", 0, env=env)
    expect(
        code != 0 and result is not None and not result["correct"] and result["failed"] > 0,
        "validate_cold fails without the compiled kernel",
    )

    bare = ROOT / ".perfbench-work" / "tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    code, result = run(bare, "explore_stacked", 0)
    shutil.rmtree(bare)
    expect(code != 0 and result is None, "refuses to run without the package source")

    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
