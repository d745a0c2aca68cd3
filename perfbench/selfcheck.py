"""Tiny-size check of the benchmark itself.  Run from the root of a
source checkout:

    python3 perfbench/selfcheck.py

For each workload it checks that one round at tiny size meets every
known answer, that a wrong known answer is caught and counted, that
saved documents round-trip, that the traced run restores every wrapped
function, and that both kinds of run print exactly the metrics that
BENCHMARK.json names.  Exits 1 on the first failed check.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def check(ok: bool, message: str) -> None:
    if not ok:
        print(f"FAILED: {message}")
        sys.exit(1)


def corrupt(workload) -> None:
    """Change one known answer, so that a correct engine now fails it."""
    if isinstance(workload, workloads.InferTaxonomy):
        n, relations, expected = workload.items[0]
        workload.items[0] = (n, set(list(relations)[1:]), expected)
    elif isinstance(workload, workloads.GrowChurn):
        i = next(i for i, s in enumerate(workload.script) if s.expect == "new")
        workload.script[i] = dataclasses.replace(workload.script[i], expect="absent")
    else:
        argv, code, expect = workload.calls[0]
        workload.calls[0] = (argv, code + 1, expect)


def boundaries() -> list:
    found = []
    for module, path, _ in spans.BOUNDARIES:
        owner = importlib.import_module(module)
        for name in path.split("."):
            owner = getattr(owner, name)
        found.append(owner)
    return found


def metric_names(workload: str, trace: int) -> set:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
            "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
    check(proc.returncode == 0, f"{' '.join(argv[1:])} exited {proc.returncode}")
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
    check(result["correct"] and result["failed"] == 0, f"{workload} trace={trace} failed ops")
    return set(result["metrics"])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    check({w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS), "workload names")

    state = ROOT / ".perfbench"
    state.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=state))
    try:
        for name, cls in workloads.WORKLOADS.items():
            workload = cls(7, "tiny", work)
            loop = run.Loop()
            run.one_round(workload, loop)
            check(loop.latencies and loop.failed == 0, f"{name}: {loop.errors}")
            texts = workload.saved_documents()
            check(bool(texts), f"{name}: no saved document")
            run.round_trips(texts, loop)
            check(loop.failed == 0, f"{name}: saved documents do not round-trip")
            run.round_trips([texts[0].replace("\n", "\n ", 1)], loop)
            check(loop.failed == 1, f"{name}: a changed document passed the round trip")

            before = boundaries()
            tracer = spans.Tracer()
            loop = run.Loop()
            run.one_round(workload, loop, tracer)
            check(loop.failed == 0, f"{name} traced: {loop.errors}")
            check(before == boundaries(), f"{name}: tracing left a wrapper in place")
            check(len(tracer.start) > 0, f"{name}: no spans recorded")
            layers = set(tracer.metrics()) | {"trace.overhead_ratio"}
            check(layers == per_layer, f"{name}: per-layer metrics {sorted(layers ^ per_layer)}")

            corrupt(workload)
            loop = run.Loop()
            run.one_round(workload, loop)
            check(loop.failed > 0, f"{name}: a wrong known answer was not caught")
            print(f"ok  {name}: answers, round trip, tracing and a wrong answer")

            check(metric_names(name, 0) == end_to_end, f"{name}: end-to-end metric names")
            check(metric_names(name, 1) == per_layer, f"{name}: per-layer metric names")
            print(f"ok  {name}: run.py prints the metrics BENCHMARK.json names")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
