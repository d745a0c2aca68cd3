"""Random mixed sequences of growth, inference, save and load, checked
against invariants after every step.

A hypothesis state machine starts from a shipped fixture or from a
`tests/helpers.py` network.  Its rules add objects and classes, declare
relations, run all five exploiters with dedup on and off (clones with
explicit and automatic indexes), apply registered modifiers, infer at
thresholds 1.0 and 0.5, and round-trip the network through save and
load.  Operands and names are drawn from the network's own nodes, plus a
few that it lacks or already holds, so many steps must fail.

After every step:
- the snapshot equals a network rebuilt through the validating
  constructor from its own tuples, with equal name, modifier and triple
  indexes;
- saving, loading and saving again gives the same bytes;
- `with_inferred` is idempotent, compared by saved bytes;
- every query agrees with a scan of `n.relations`;
- every display name and relation endpoint resolves to exactly one node;
- for each registered modifier and each node of its target kind,
  `classify` raises exactly when `apply_modifier` raises.
A step that raises an `OodnError` must leave the saved bytes unchanged.

Networks are compared by saved bytes, not by `==`: `Network.__eq__`
compares its tuples in order, while `save_text` sorts them.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from oodn import load_fixture
from oodn.errors import OodnError
from oodn.io import load_text, save_text
from oodn.model import ClassDef, class_state_equal, object_state_equal
from oodn.modifiers import apply_to_class, apply_to_object, classify
from oodn.network import (
    CLASS,
    EXPLOITER_NAMES,
    RELATION_KINDS,
    Network,
    NodeRef,
    Relation,
    add_class,
    add_object,
    apply_exploiter,
    apply_modifier,
    class_ref,
    declare_relation,
    instances_of,
    neighbors,
    object_ref,
    subclasses_of,
    with_inferred,
)

from .helpers import helpers_network, obj, qprop, random_class

_STARTS = {
    "polygons": lambda: load_fixture("polygons.oodn.json"),
    "figures": lambda: load_fixture("figures.oodn.json"),
    "helpers": lambda: helpers_network(0),
    "helpers-no-clone": lambda: helpers_network(1, EXPLOITER_NAMES - {"clone", "difference"}),
}
_NEW_NAMES = ("N0", "N1", "o0", "R_1", "C0", "T(R)")
_GHOSTS = (NodeRef("class", "ghost"), NodeRef("object", "ghost"))


def _raises(fn, *args, **kwargs) -> bool:
    try:
        fn(*args, **kwargs)
    except OodnError:
        return True
    return False


def _ref(node) -> NodeRef:
    return class_ref(node) if isinstance(node, ClassDef) else object_ref(node)


def _state_equal(a, b) -> bool:
    same = class_state_equal if isinstance(a, ClassDef) else object_state_equal
    return type(a) is type(b) and same(a, b)


def _scan_neighbors(n: Network, ref: NodeRef) -> tuple:
    found = {r.target for r in n.relations if r.source == ref}
    found |= {r.source for r in n.relations if r.target == ref}
    return tuple(sorted(found, key=NodeRef.sort_key))


def _scan_subclasses(n: Network, name: str) -> tuple:
    """Sources that reach `name` along is-a / a-kind-of edges, by
    rescanning every relation until nothing is added."""
    reached, grew = set(), True
    while grew:
        grew = False
        for r in n.relations:
            if r.kind in ("is-a", "a-kind-of") and r.source not in reached and (
                r.target == NodeRef(CLASS, name) or r.target in reached
            ):
                reached.add(r.source)
                grew = True
    return tuple(sorted(reached, key=NodeRef.sort_key))


class EngineMachine(RuleBasedStateMachine):
    @initialize(start=st.sampled_from(sorted(_STARTS)))
    def start(self, start):
        self.n = _STARTS[start]()

    def _refs(self, kind: str | None = None) -> list:
        nodes = [class_ref(t) for t in self.n.classes] + [object_ref(o) for o in self.n.objects]
        return [r for r in nodes if kind in (None, r.kind)] + [
            g for g in _GHOSTS if kind in (None, g.kind)
        ]

    def _step(self, grow, *args, **kwargs):
        """Run a growth function on the state and return its result, or
        None when it raises; then it must leave the state's saved bytes
        as they were."""
        before = save_text(self.n)
        try:
            out = grow(self.n, *args, **kwargs)
        except OodnError:
            assert save_text(self.n) == before
            return None
        self.n = out[0] if isinstance(out, tuple) else out
        return out

    # --- rules ---------------------------------------------------------------

    @rule(seed=st.integers(0, 2**16), name=st.sampled_from(_NEW_NAMES),
          clone_index=st.sampled_from((0, 0, 1, 2)))
    def add_object(self, seed, name, clone_index):
        rng = random.Random(seed)
        core = random_class(rng, "t").core
        members = [
            qprop(m.name, m.units, float(rng.randint(0, 3))) if hasattr(m, "units") else m
            for m in (*core.specification, *core.signature)
        ]
        self._step(add_object, obj(name, *members, clone_index=clone_index))

    @rule(seed=st.integers(0, 2**16), name=st.sampled_from(_NEW_NAMES))
    def add_class(self, seed, name):
        self._step(add_class, random_class(random.Random(seed), name))

    @rule(data=st.data(), kind=st.sampled_from(sorted(RELATION_KINDS)))
    def declare_relation(self, data, kind):
        refs = self._refs()
        source, target = data.draw(st.sampled_from(refs)), data.draw(st.sampled_from(refs))
        self._step(declare_relation, Relation(source, target, kind))

    @rule(data=st.data(), op=st.sampled_from(sorted(EXPLOITER_NAMES)), dedup=st.booleans())
    def apply_exploiter(self, data, op, dedup):
        # Mostly operands of the kind and number the exploiter takes.
        kinds = {"clone": "oooc", "union": "co"}.get(op, "cccco")
        kind = {"c": "class", "o": "object"}[data.draw(st.sampled_from(kinds))]
        counts = {"clone": (1, 1, 1, 2), "union": (1, 2, 2, 3, 4)}.get(op, (2, 2, 2, 1, 3))
        pool, count = self._refs(kind), data.draw(st.sampled_from(counts))
        operands = [data.draw(st.sampled_from(pool)) for _ in range(count)]
        clone_index = data.draw(st.sampled_from((None, None, 1, 2, 3))) if op == "clone" else None
        before = self.n
        out = self._step(apply_exploiter, op, operands, clone_index=clone_index, dedup=dedup)
        if out is not None and out[1] is not None:
            # The result ref names a node in the state of the computed result.
            _, ref, result = out
            want = before.resolve(operands[0]) if result is None else result.class_def
            assert _state_equal(self.n.resolve(ref), want)

    @rule(data=st.data(), dedup=st.booleans())
    def apply_modifier(self, data, dedup):
        names = [m.name for m in self.n.modifiers]
        name = data.draw(st.sampled_from(names + ["ghost"]))
        # Mostly a target of the modifier's own kind.
        m = self.n.find_modifier(name)
        kind = m.target_kind if m and data.draw(st.integers(0, 3)) else None
        target = data.draw(st.sampled_from(self._refs(kind)))
        before = self.n
        out = self._step(apply_modifier, name, target, dedup=dedup)
        if out is not None:
            apply = apply_to_class if target.kind == CLASS else apply_to_object
            want = apply(before.find_modifier(name), before.resolve(target))
            assert _state_equal(self.n.resolve(out[1]), want)

    @rule(threshold=st.sampled_from((1.0, 0.5)))
    def with_inferred(self, threshold):
        self._step(with_inferred, threshold)

    @rule()
    def save_and_load(self):
        self.n = load_text(save_text(self.n))

    # --- invariants ----------------------------------------------------------

    @invariant()
    def snapshot_equals_rebuild(self):
        n = self.n
        rebuilt = Network(n.objects, n.classes, n.relations, n.exploiters, n.modifiers)
        assert rebuilt == n
        assert rebuilt._nodes == n._nodes
        assert rebuilt._modifiers == n._modifiers
        assert rebuilt._triples == n._triples

    @invariant()
    def saved_bytes_survive_reload(self):
        text = save_text(self.n)
        assert save_text(load_text(text)) == text

    @invariant()
    def inference_is_idempotent(self):
        for threshold in (1.0, 0.5):
            try:
                once = with_inferred(self.n, threshold)
            except OodnError:
                continue
            assert save_text(with_inferred(once, threshold)) == save_text(once)

    @invariant()
    def queries_agree_with_scan(self):
        n = self.n
        for t in n.classes:
            instances = {r.source for r in n.relations
                         if r.kind == "instance-of" and r.target == class_ref(t)}
            assert instances_of(n, t.name) == tuple(sorted(instances, key=NodeRef.sort_key))
            assert subclasses_of(n, t.name) == _scan_subclasses(n, t.name)
        for ref in map(_ref, n.classes + n.objects):
            assert neighbors(n, ref, direction="both") == _scan_neighbors(n, ref)

    @invariant()
    def names_resolve_once(self):
        n = self.n
        nodes = n.classes + n.objects
        names = [t.name for t in n.classes] + [o.node_name for o in n.objects]
        assert len(set(names)) == len(names)
        for name, node in zip(names, nodes):
            assert n.find_node(name) is node
            assert n.resolve(_ref(node)) is node
        for r in n.relations:
            for end in (r.source, r.target):
                matches = [x for x in nodes if _ref(x) == end]
                assert len(matches) == 1 and n.resolve(end) is matches[0]

    @invariant()
    def classify_raises_when_apply_raises(self):
        n = self.n
        for m in n.modifiers:
            for node in n.classes if m.target_kind == CLASS else n.objects:
                assert _raises(classify, m, node) == _raises(
                    apply_modifier, n, m.name, _ref(node)
                ), (m, node)


EngineMachine.TestCase.settings = settings(
    derandomize=True,
    database=None,
    deadline=None,
    max_examples=40,
    stateful_step_count=20,
    suppress_health_check=[HealthCheck.too_slow],
)
TestEngine = EngineMachine.TestCase
