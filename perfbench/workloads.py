"""The three workloads.  Each builds its inputs in `__init__` (the set-up)
and runs one round of ops per `round(loop)` call, handing every op to
`loop.op` and every op's verdict against the known answer to
`loop.verdict`.  Rounds are identical, so a run repeats them until its
time is up.

The engine is reached only through its public modules, and through
module attributes (`network.with_inferred`, `cli.main`) so that a traced
run can wrap them.
"""

from __future__ import annotations

import json
import random
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from oodn import cli, network
from oodn.io import load_text, save_text
from oodn.model import QuantitativeProperty
from oodn.network import NodeRef

import gen


def _names(refs) -> list:
    return [r.display for r in refs]


class InferTaxonomy:
    """Read path: classify a fresh taxonomy, then query every class.

    The pool cycles through taxonomies of four sizes, so that op latency
    spreads over a range: the median then moves with the machine's speed
    as smoothly as the mean does, instead of jumping between two modes."""

    name = "infer-taxonomy"
    sizes = {
        "full": ([((2, 3, 4, 5), 18), ((3, 4, 6, 7), 26), ((3, 5, 7, 9), 32), ((4, 6, 9, 11), 40)], 24),
        "tiny": ([((2, 3, 3), 8), ((2, 2, 2), 6)], 2),
    }

    def __init__(self, seed: int, size: str, workdir: Path):
        shapes, pool = self.sizes[size]
        rng = random.Random(seed)
        self.items = []
        for k in range(pool):
            levels, objects = shapes[k % len(shapes)]
            tax = gen.taxonomy(rng, levels, objects)
            n = load_text(json.dumps(tax.document()))
            expected = {
                c.name: (
                    sorted(d.name for d in tax.classes if c.name in d.ancestors),
                    sorted(o.identifier for o in tax.objects if c.name in o.instance_of),
                    sorted(c.ancestors),
                )
                for c in tax.classes
            }
            self.items.append((n, tax.relations(), expected))
        self.last = None

    @staticmethod
    def _op(n, names):
        inferred = network.with_inferred(n)
        answers = {
            name: (
                network.subclasses_of(inferred, name),
                network.instances_of(inferred, name),
                network.reachable(inferred, NodeRef("class", name), "a-kind-of"),
            )
            for name in names
        }
        return inferred, answers

    def round(self, loop) -> None:
        for n, relations, expected in self.items:
            out = loop.op(self._op, n, list(expected))
            if out is None:
                continue
            inferred, answers = out
            got = {(r.source.display, r.target.display, r.kind) for r in inferred.relations}
            ok = got == relations and len(inferred.relations) == len(relations)
            for name, (subs, insts, ancestors) in answers.items():
                ok = ok and (_names(subs), _names(insts), _names(ancestors)) == expected[name]
            loop.verdict(ok, "inferred relations or query results differ from the taxonomy")
            self.last = inferred

    def saved_documents(self) -> list:
        return [save_text(self.last)] if self.last is not None else []


def _class_key(t):
    core = None
    if t.core is not None:
        core = t.core.specification.names + t.core.signature.names
    return gen.class_key(core, [p.specification.names + p.signature.names for p in t.projections])


def _object_key(o):
    return frozenset(
        (p.name, p.value if isinstance(p, QuantitativeProperty) else p.degree)
        for p in o.specification
    ) | frozenset((m.name, m.parameters) for m in o.signature)


class GrowChurn:
    """Write path: a long seeded sequence of growth steps with dedup on,
    from one inferred taxonomy of a few hundred nodes."""

    name = "grow-churn"
    sizes = {"full": ((4, 8, 14, 20, 24), 200, 200), "tiny": ((2, 3, 4), 10, 30)}

    def __init__(self, seed: int, size: str, workdir: Path):
        levels, objects, steps = self.sizes[size]
        rng = random.Random(seed)
        tax = gen.taxonomy(rng, levels, objects)
        modifiers = [gen.class_modifier(k) for k in range(gen.CLASS_MODIFIERS)]
        modifiers += [gen.object_modifier(k) for k in range(gen.OBJECT_MODIFIERS)]
        self.base = load_text(json.dumps(tax.document(modifiers, with_relations=True)))
        self.script = gen.growth_script(rng, tax, steps)
        self.refs = {("c", i): NodeRef("class", c.name) for i, c in enumerate(tax.classes)}
        self.refs.update(
            {("o", i): NodeRef("object", o.identifier) for i, o in enumerate(tax.objects)}
        )
        self.last = None

    def round(self, loop) -> None:
        n, refs = self.base, dict(self.refs)
        for k, step in enumerate(self.script):
            operands = [refs[x] for x in step.operands]
            if step.kind == "exploiter":
                out = loop.op(network.apply_exploiter, n, step.name, operands)
            else:
                out = loop.op(network.apply_modifier, n, step.name, operands[0])
            if out is None:
                loop.skip(len(self.script) - k - 1, "a growth step raised; the round stopped")
                return
            grown, ref = out[0], out[1]
            ok, msg = self._check(n, grown, ref, step, refs)
            loop.verdict(ok, msg)
            if not ok:
                loop.skip(len(self.script) - k - 1, "a growth step went wrong; the round stopped")
                return
            if loop.tracer is not None and ref is not None and step.name != "clone":
                same = len(grown.classes) == len(n.classes) and len(grown.objects) == len(n.objects)
                loop.tracer.tally("network.dedup", same)
            n = grown
        self.last = n

    @staticmethod
    def _check(n, grown, ref, step, refs):
        if step.expect == "absent":
            return ref is None and grown is n, f"{step.name} should not exist"
        sizes = (len(grown.classes) - len(n.classes), len(grown.objects) - len(n.objects))
        if step.expect == "hit":
            return ref == refs[step.node] and sizes == (0, 0), f"{step.name} should link to {refs[step.node].display}"
        if step.node[0] == "c":
            node, key = grown.classes[-1], _class_key
            ok = sizes == (1, 0) and ref == NodeRef("class", node.name)
        else:
            node, key = grown.objects[-1], _object_key
            ok = sizes == (0, 1) and ref == NodeRef("object", node.identifier, node.clone_index)
            if step.clone_index is not None:
                original = refs[step.operands[0]]
                ok = ok and (node.identifier, node.clone_index) == (original.name, step.clone_index)
        ok = ok and key(node) == step.key
        if ok:
            refs[step.node] = ref
        return ok, f"{step.name} should add a node with the predicted members"

    def saved_documents(self) -> list:
        return [save_text(self.last)] if self.last is not None else []


class CliSession:
    """End to end through `cli.main` in process: every call reloads a
    document with many members and expressions from the work directory."""

    name = "cli-session"
    sizes = {"full": ((2, 3, 5), 32, 6), "tiny": ((2, 2, 3), 6, 1)}

    def __init__(self, seed: int, size: str, workdir: Path):
        levels, objects, extras = self.sizes[size]
        rng = random.Random(seed)
        tax = gen.taxonomy(rng, levels, objects, extras=extras)
        self.dir = workdir
        text = json.dumps(tax.document([gen.class_modifier(0)]), indent=1)
        (workdir / "doc.oodn.json").write_text(text, encoding="utf-8")
        self.calls = [
            ([a.replace("{dir}", str(workdir)) for a in argv], code, expect)
            for argv, code, expect in gen.cli_session(tax)
        ]

    @staticmethod
    def _call(argv):
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def round(self, loop) -> None:
        for argv, code, expect in self.calls:
            out = loop.op(self._call, argv)
            if out is not None:
                loop.verdict(self._check(out, code, expect), f"oodn {argv[0]} gave a wrong result")

    def _check(self, out, code, expect) -> bool:
        got_code, stdout, stderr = out
        if got_code != code or stderr:
            return False
        if isinstance(expect, dict):
            return json.loads(stdout) == expect
        if expect == "absent":
            return json.loads(stdout)["exists"] is False
        kind, answer = expect
        if kind == "relations":
            got = [(r["from"], r["to"], r["kind"]) for r in json.loads(stdout)["relations"]]
            return len(got) == len(answer) and set(got) == answer
        text = (self.dir / "g3.dot").read_text(encoding="utf-8")
        return text.endswith("}\n") and text.count("\n") == answer

    def saved_documents(self) -> list:
        return [
            (self.dir / f"g{i}.oodn.json").read_text(encoding="utf-8")
            for i in (1, 2, 3)
            if (self.dir / f"g{i}.oodn.json").exists()
        ]


WORKLOADS = {w.name: w for w in (InferTaxonomy, GrowChurn, CliSession)}
