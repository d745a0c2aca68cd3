"""Spans for the traced run.

`Tracer.install()` replaces each boundary function in `BOUNDARIES` with a
wrapper, as bound in the module that calls it, and `Tracer.remove()`
puts the originals back.  A wrapper records one span (layer, op id,
parent span, start, end) plus one number about the call's outcome.
Spans stay in memory in flat arrays until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
from array import array
from time import perf_counter_ns


def _threshold(args, kwargs):
    return args[2] if len(args) > 2 else kwargs.get("threshold", 1.0)


# Outcome recorded on a span: 1/0 for a useful outcome, or a size.
_OUTCOMES = {
    "model.subsumes": lambda r, a, k: 1.0 if r else 0.0,
    "model.satisfies": lambda r, a, k: 1.0 if r >= _threshold(a, k) else 0.0,
    "exploiters": lambda r, a, k: 1.0 if getattr(r, "exists", True) is False else 0.0,
    "network.query": lambda r, a, k: float(len(r)),
    "io.load": lambda r, a, k: float(os.path.getsize(a[0])),
    "io.save": lambda r, a, k: float(len(r.encode("utf-8"))),
}

# (module, attribute path in that module, layer).  Each function is
# wrapped where its caller looks it up: the engine's own modules for
# calls inside the engine, `oodn.network` for the benchmark's calls and
# `oodn.cli` for the command line's calls.
BOUNDARIES = (
    ("oodn.io", "parse", "expr.parse"),
    ("oodn.io", "print_expr", "expr.print"),
    ("oodn.model", "expr_equal", "expr.equal"),
    ("oodn.model", "evaluate", "expr.evaluate"),
    ("oodn.network", "subsumes", "model.subsumes"),
    ("oodn.network", "satisfies", "model.satisfies"),
    ("oodn.network", "class_state_equal", "model.state_equal"),
    ("oodn.network", "object_state_equal", "model.state_equal"),
    ("oodn.network", "class_union", "exploiters"),
    ("oodn.network", "class_intersection", "exploiters"),
    ("oodn.network", "class_difference", "exploiters"),
    ("oodn.network", "class_symmetric_difference", "exploiters"),
    ("oodn.network", "object_union", "exploiters"),
    ("oodn.network", "clone_object", "exploiters"),
    ("oodn.network", "apply_to_class", "modifiers.apply"),
    ("oodn.network", "apply_to_object", "modifiers.apply"),
    ("oodn.network", "Network.__post_init__", "network.snapshot"),
    ("oodn.network", "apply_exploiter", "network.grow"),
    ("oodn.network", "apply_modifier", "network.grow"),
    ("oodn.network", "with_inferred", "network.infer"),
    ("oodn.network", "subclasses_of", "network.query"),
    ("oodn.network", "instances_of", "network.query"),
    ("oodn.network", "reachable", "network.query"),
    ("oodn.cli", "apply_exploiter", "network.grow"),
    ("oodn.cli", "apply_modifier", "network.grow"),
    ("oodn.cli", "with_inferred", "network.infer"),
    ("oodn.cli", "subclasses_of", "network.query"),
    ("oodn.cli", "instances_of", "network.query"),
    ("oodn.cli", "reachable", "network.query"),
    ("oodn.cli", "neighbors", "network.query"),
    ("oodn.cli", "load_file", "io.load"),
    ("oodn.cli", "save_text", "io.save"),
    ("oodn.cli", "main", "cli.main"),
)

LAYERS = (
    "expr.parse", "expr.print", "expr.equal", "expr.evaluate", "model.subsumes",
    "model.satisfies", "model.state_equal", "exploiters", "modifiers.apply",
    "network.snapshot", "network.grow", "network.infer", "network.query",
    "io.load", "io.save", "cli.main",
)


class Tracer:
    def __init__(self):
        self.layer = array("i")
        self.op = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self.outcome = array("d")
        self.tallies: dict[str, list] = {}
        self.op_id = -1
        self._stack = [-1]
        self._saved = []

    # --- recording ---------------------------------------------------------

    def begin_op(self) -> None:
        self.op_id += 1

    def tally(self, name: str, useful: bool) -> None:
        """Count one attempt at `name`, and whether it was useful."""
        counts = self.tallies.setdefault(name, [0, 0])
        counts[0] += 1
        counts[1] += bool(useful)

    def _wrap(self, fn, layer_id: int, outcome):
        tracer = self
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(tracer.start)
            tracer.layer.append(layer_id)
            tracer.op.append(tracer.op_id)
            tracer.parent.append(stack[-1])
            tracer.outcome.append(0.0)
            tracer.end.append(0)
            stack.append(i)
            tracer.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[i] = perf_counter_ns()
                stack.pop()
            if outcome is not None:
                tracer.outcome[i] = outcome(result, args, kwargs)
            return result

        return traced

    def install(self) -> None:
        for module, path, layer in BOUNDARIES:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for name in parents:
                owner = getattr(owner, name)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, LAYERS.index(layer), _OUTCOMES.get(layer)))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # --- output ------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("span\tparent\top\tlayer\tstart_ns\tend_ns\toutcome\n")
            for i in range(len(self.start)):
                out.write(
                    f"{i}\t{self.parent[i]}\t{self.op[i]}\t{LAYERS[self.layer[i]]}\t"
                    f"{self.start[i]}\t{self.end[i]}\t{self.outcome[i]:g}\n"
                )

    def metrics(self) -> dict:
        """Per-layer metrics derived from the spans: calls, self time,
        and the outcome ratios.  A ratio over no attempts reads 0."""
        n = len(self.start)
        duration = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += duration[i]
        calls = {name: 0 for name in LAYERS}
        self_ns = {name: 0 for name in LAYERS}
        outcome = {name: 0.0 for name in LAYERS}
        for i in range(n):
            name = LAYERS[self.layer[i]]
            calls[name] += 1
            self_ns[name] += duration[i] - child[i]
            outcome[name] += self.outcome[i]

        def ratio(a, b):
            return a / b if b else 0.0

        infer = LAYERS.index("network.infer")
        tested = {LAYERS.index("model.subsumes"), LAYERS.index("model.satisfies")}
        pairs = 0
        for i in range(n):
            if self.layer[i] in tested:
                p = self.parent[i]
                while p >= 0 and self.layer[p] != infer:
                    p = self.parent[p]
                pairs += p >= 0
        dedup = self.tallies.get("network.dedup", [0, 0])

        out = {}
        for name in LAYERS:
            if name not in ("network.grow", "network.infer"):
                out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_ns[name] / 1e9, "s")
        out["model.subsumes.true_ratio"] = (ratio(outcome["model.subsumes"], calls["model.subsumes"]), "ratio")
        out["model.satisfies.hit_ratio"] = (ratio(outcome["model.satisfies"], calls["model.satisfies"]), "ratio")
        out["network.dedup.hit_ratio"] = (ratio(dedup[1], dedup[0]), "ratio")
        out["exploiters.absent_ratio"] = (ratio(outcome["exploiters"], calls["exploiters"]), "ratio")
        out["network.grow.late_early_ratio"] = (self._late_early(duration), "ratio")
        out["network.infer.pairs_tested"] = (pairs, "count")
        out["network.query.results"] = (int(outcome["network.query"]), "count")
        out["io.load.bytes"] = (int(outcome["io.load"]), "B")
        out["io.save.bytes"] = (int(outcome["io.save"]), "B")
        return out

    def _late_early(self, duration) -> float:
        """Median growth step (a top-level `network.grow` span) in the last
        quarter of the round over the median in the first quarter; 0 with
        fewer than four steps."""
        grow = LAYERS.index("network.grow")
        steps = [
            duration[i] for i in range(len(self.start))
            if self.layer[i] == grow and self.parent[i] < 0
        ]
        q = len(steps) // 4
        if not q:
            return 0.0
        return statistics.median(steps[-q:]) / statistics.median(steps[:q])
