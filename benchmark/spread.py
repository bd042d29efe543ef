"""Run-to-run spread of the benchmark's metrics over seeds.

    python3 benchmark/spread.py [--runs 10] [--first-seed 1] [--seconds 25]
                                [--workload NAME ...] [--trace] [--out FILE]

Runs `run.py` once per seed on each workload, one run at a time, and prints
for every end-to-end metric (per-layer with --trace) the median and the
spread: the distance between the quartiles, as
`statistics.quantiles(values, n=4)` gives them, as a share of the median.
With --out it also writes every value and quartile to FILE.  Exits
non-zero if any run fails.
"""
from __future__ import annotations

import argparse
import json
import platform
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--workload", action="append", dest="workloads")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    report = {"python": platform.python_version(), "cores": os.cpu_count(),
              "runs": args.runs, "seconds": args.seconds, "workloads": {}}
    for name in args.workloads or [w["name"] for w in spec["workloads"]]:
        values = {metric: [] for metric in bounds}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(int(args.trace))],
                capture_output=True, text=True, cwd=ROOT,
            )
            result = json.loads(proc.stdout.splitlines()[-1]) if proc.stdout else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{name} seed {seed}: run failed\n{proc.stderr}", file=sys.stderr)
                return 1
            for metric in bounds:
                values[metric].append(result["metrics"][metric]["value"])
        stats = {metric: summarize(v) for metric, v in values.items()}
        report["workloads"][name] = stats
        for metric, s in stats.items():
            bound = bounds[metric]
            flag = "  <-- above a third of the bound" if bound and s["spread"] > bound / 3 else ""
            print(f"{name:13} {metric:32} median {s['median']:14.6g}  "
                  f"spread {s['spread']:.4f}  bound {bound}{flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
