"""Benchmark for the oodn engine.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload infer-taxonomy --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

- infer-taxonomy: an op is `with_inferred` on a fresh taxonomy, then
  `subclasses_of`, `instances_of` and `reachable` for every class;
- grow-churn: an op is one growth step (an exploiter or a modifier) with
  dedup on; a round is the whole seeded script from the same start;
- cli-session: an op is one `oodn` command through `cli.main`, in
  process, reloading its document each time.

`--workload all` runs the three, one process each, and prints each one's
report.  The loop is closed: one client, no threads.  The engine is
imported from `src/` of the checkout and receives only generated
inputs; every output is checked against the answer known from how the
input was built.

The run sets up at least five times, and a cheap set-up again until
one second of set-up time or fifty set-ups (`setup_s` is the median).  With
`--trace 0` it then repeats whole rounds until the ops have taken
`--seconds`, and prints the end-to-end metrics.  Checks run between ops,
outside the op timer; `ops_per_s` is ops over the summed op time.

The end-to-end times are scaled to a reference host speed.  On a
shared host the same pure-Python code runs up to twice as slowly in some
phases as in others, and the phases last from well under a second to
minutes, so raw wall times of two runs of the same code can differ by
more than any useful bound.  A fixed pure-Python probe (`probe`), which
never touches the engine, runs before every op and around every set-up.
Each op's wall time is multiplied by `PROBE_REF_S` over the mean of the
probe times just before and just after it: the time the op would have
taken on a host that runs the probe in `PROBE_REF_S`.  The engine's own
cost is not scaled away, since the probe does not depend on it; a change
that makes the engine 10% slower makes every scaled time 10% longer.
The raw wall-clock figures are printed too, but not reported.  With
`--trace 1` untraced rounds alternate with rounds in which every layer
boundary is wrapped, until the ops have taken `--seconds`; it writes the
spans of the first traced round to `.perfbench/` and prints the
per-layer metrics derived from them and `trace.overhead_ratio`.  `gc`
stays on in both.

The last line of output is one JSON object: `correct`, `attempted`,
`failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SETUPS = 5  # set-ups at least; cheap ones repeat until SETUP_BUDGET_S or SETUPS_MAX
SETUP_BUDGET_S = 1.0
SETUPS_MAX = 50
TAIL_PERCENTILES = (99.9, 99, 95, 90, 50)
NAMES = ("infer-taxonomy", "grow-churn", "cli-session")
PROBE_REF_S = 0.0005  # the reference host runs `probe` in this time
PROBE_ROUNDS = 3000


def probe() -> float:
    """Wall time of a fixed piece of pure-Python work (integer arithmetic,
    small allocations, dict stores), about 0.5 ms on an unloaded core."""
    t0 = perf_counter()
    table, total = {}, 0
    for i in range(PROBE_ROUNDS):
        total += i * i % 7
        table[i % 100] = (total, str(i))
    return perf_counter() - t0


def probe_median(count: int = 5) -> float:
    return statistics.median(probe() for _ in range(count))


class Loop:
    """Closed-loop client state: one wall time and one probe time per op,
    and failures."""

    def __init__(self):
        self.tracer = None
        self.latencies: list[float] = []
        self.probes: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    def op(self, fn, *args):
        """Run one op and time it; None if it raised."""
        self.probes.append(probe())
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.begin_op()
        t0 = perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # an op that raises is a failed op
            self.latencies.append(perf_counter() - t0)
            self._fail(f"{getattr(fn, '__name__', fn)} raised {exc!r}")
            return None
        self.latencies.append(perf_counter() - t0)
        return out

    def scaled(self) -> list:
        """Each op's wall time at the reference host speed: scaled by the
        mean of the probes just before and just after the op."""
        probes = self.probes + [probe()]
        return [
            t * PROBE_REF_S * 2 / (probes[i] + probes[i + 1])
            for i, t in enumerate(self.latencies)
        ]

    def verdict(self, ok: bool, message: str) -> None:
        if not ok:
            self._fail(message)

    def skip(self, count: int, message: str) -> None:
        """Ops of a broken round that could not run count as failed."""
        for _ in range(count):
            self.attempted += 1
            self._fail(message)

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def tail(latencies: list) -> tuple[float, float]:
    """The highest percentile in TAIL_PERCENTILES with at least ten
    samples above it, and its value (nearest rank)."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = -(-n * p // 100)  # ceil
        if n - rank >= 10:
            return p, ordered[int(rank) - 1]
    return 100.0, ordered[-1]


def round_trips(texts: list, loop: Loop) -> None:
    """Each saved document must re-load and re-save byte for byte."""
    from oodn.io import load_text, save_text

    for text in texts:
        loop.attempted += 1
        try:
            ok = save_text(load_text(text)) == text
        except Exception as exc:
            loop.verdict(False, f"a saved document failed to re-load: {exc!r}")
            continue
        loop.verdict(ok, "a saved document did not re-save byte for byte")


def run_rounds(workload, loop: Loop, seconds: float) -> int:
    rounds = 0
    while rounds == 0 or loop.busy < seconds:
        workload.round(loop)
        rounds += 1
    return rounds


def one_round(workload, loop: Loop, tracer=None) -> float:
    """One round, traced when `tracer` is given; returns its op time."""
    before = loop.busy
    loop.tracer = tracer
    if tracer is None:
        workload.round(loop)
        return loop.busy - before
    tracer.install()
    try:
        workload.round(loop)
    finally:
        tracer.remove()
    return loop.busy - before


def timed(workload, args, setups: list) -> tuple[dict, Loop]:
    loop = Loop()
    rounds = run_rounds(workload, loop, args.seconds)
    ops = len(loop.latencies)
    busy = loop.busy
    scaled = loop.scaled()
    pct, tail_s = tail(scaled)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    round_trips(workload.saved_documents(), loop)
    print(f"{workload.name}: {ops} ops in {rounds} rounds, {busy:.3f} s of op time "
          "(closed loop, 1 client)")
    print(f"  wall clock, unscaled: {ops / busy:.3f} ops/s, p50 "
          f"{statistics.median(loop.latencies) * 1e3:.3f} ms, p{pct:g} "
          f"{tail(loop.latencies)[1] * 1e3:.3f} ms; probe median "
          f"{statistics.median(loop.probes) * 1e3:.3f} ms (reference {PROBE_REF_S * 1e3:g} ms)")
    report = {
        "ops_per_s": (ops / sum(scaled), "1/s"),
        "op_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    for name, (value, unit) in report.items():
        print(f"  {name:<12} {value:14.6f} {unit}")
    print(f"  op_tail_ms is p{pct:g} of {ops} samples; setup_s is the median of {len(setups)} "
          "set-ups; times are at the reference host speed")
    print(f"  {'fail_ratio':<12} {loop.failed / loop.attempted:14.6f} "
          f"({loop.failed}/{loop.attempted})")
    return report, loop


def traced(workload, args, work: Path) -> tuple[dict, Loop]:
    """Untraced and traced rounds alternate until the ops have taken
    `--seconds`, so that each overhead ratio compares two rounds run
    close together.  The per-layer metrics come from the first traced
    round."""
    from spans import Tracer

    loop, first, ratios = Loop(), None, []
    while not ratios or loop.busy < args.seconds:
        plain = one_round(workload, loop)
        tracer = Tracer()
        ratios.append(one_round(workload, loop, tracer) / plain)
        if first is None:
            first = tracer
    round_trips(workload.saved_documents(), loop)
    spans = work.parent / f"spans-{workload.name}-seed{args.seed}.tsv"
    first.write(spans)
    report = first.metrics()
    report["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
    print(f"{workload.name}: {first.op_id + 1} ops and {len(first.start)} spans in the "
          f"first traced round, written to {spans.relative_to(Path.cwd())}; overhead is the "
          f"median over {len(ratios)} pairs of untraced and traced rounds")
    for name, (value, unit) in report.items():
        print(f"  {name:<34} {value:16.6f} {unit}")
    return report, loop


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        argv = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(summary))
    return 0


def pin_to_one_cpu() -> None:
    """Keep the process on one processor, so it does not migrate between
    the two cores mid-run."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpus[-1]})
    except (AttributeError, OSError):
        pass


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the self-check")
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / "oodn" / "__init__.py").is_file():
        print("error: run from the root of an oodn checkout (no src/oodn here)", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(src), str(HERE)]
    pin_to_one_cpu()
    from workloads import WORKLOADS

    state = Path.cwd() / ".perfbench"
    state.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=state))
    try:
        setups, workload, spent = [], None, 0.0
        while len(setups) < SETUPS or (spent < SETUP_BUDGET_S and len(setups) < SETUPS_MAX):
            workload = None
            gc.collect()
            before = probe_median()
            t0 = perf_counter()
            workload = WORKLOADS[args.workload](args.seed, args.size, work)
            elapsed = perf_counter() - t0
            spent += elapsed
            setups.append(elapsed * PROBE_REF_S * 2 / (before + probe_median()))
        if args.trace:
            report, loop = traced(workload, args, work)
        else:
            report, loop = timed(workload, args, setups)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for message in loop.errors:
        print(f"  FAILED: {message}")
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in report.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
