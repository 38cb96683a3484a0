"""Run-to-run spread of the end-to-end metrics, as the acceptance rule reads it.

Usage, from the root of a checkout::

    python3 perfbench/stability.py --runs 10 [--workloads explore_pool,...] [--first-seed 1]

Runs ``run.py`` once per seed on each workload (seeds ``first-seed`` ..
``first-seed + runs - 1``), then prints, per workload and metric, the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread ``(q3 - q1) / median`` next to the metric's bound in
``BENCHMARK.json``.  Raw values go to ``.perfbench-work/stability-*.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description="Measure the benchmark's run-to-run spread.")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    raw: dict = {}
    for workload in args.workloads.split(","):
        raw[workload] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            started = time.monotonic()
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            result = json.loads(out.stdout.strip().splitlines()[-1])
            result["wall_s"] = time.monotonic() - started
            result["diagnostics"] = json.loads(out.stderr.strip().splitlines()[-1])
            raw[workload].append(result)
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"wall={result['wall_s']:.1f}s {values} {result['diagnostics']}", flush=True)

    out_path = ROOT / ".perfbench-work" / f"stability-{int(time.time())}.json"
    out_path.write_text(json.dumps(raw, indent=1))
    print(f"\nraw results: {out_path}")
    print(f"{'workload':16} {'metric':14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
    for workload, results in raw.items():
        rows = {m: [r["metrics"][m]["value"] for r in results] for m in bounds}
        # The unscaled throughput, to show what the host-speed scaling removes.
        rows["wall_ops_per_s"] = [r["diagnostics"]["wall_ops_per_s"] for r in results]
        for metric, values in rows.items():
            q1, median, q3 = statistics.quantiles(values, n=4)
            bound = f"{bounds[metric]:6.3f}" if metric in bounds else "     -"
            print(f"{workload:16} {metric:14} {median:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{(q3 - q1) / median:7.4f} {bound}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
