"""Run the benchmark over several seeds and summarise each metric.

Run from the root of a source checkout:

    python3 perfbench/baseline.py --seeds 1-10 --seconds 30 --out perfbench/baseline.json

For every workload it runs `run.py` once per seed, one run at a time,
with tracing off, then once more with tracing on (first seed), and
records every run's metrics plus, per end-to-end metric, the median,
the quartiles and the spread: (Q3 - Q1) / median, with the quartiles
from `statistics.quantiles(values, n=4)`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def one_run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed ops")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default="infer-taxonomy,grow-churn,cli-session")
    parser.add_argument("--seeds", default="1-10", help="a seed or a range such as 1-10")
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--out", help="write the summary here as JSON")
    args = parser.parse_args()

    report = {"machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                         f"{platform.python_implementation()} {platform.python_version()}",
              "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = {}
        for seed in seeds(args.seeds):
            runs[seed] = one_run(workload, seed, args.seconds, 0)
            print(workload, seed, {k: round(v, 4) for k, v in runs[seed].items()}, flush=True)
        names = list(next(iter(runs.values())))
        summaries = {name: summary([r[name] for r in runs.values()]) for name in names}
        for name, s in summaries.items():
            print(f"  {name:<12} median {s['median']:12.4f}  spread {s['spread']:.4f}", flush=True)
        first = seeds(args.seeds)[0]
        report["workloads"][workload] = {
            "end_to_end": summaries,
            "runs": runs,
            "traced_seed": first,
            "per_layer": one_run(workload, first, args.seconds, 1),
        }
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
