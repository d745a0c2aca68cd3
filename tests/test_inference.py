"""Differential test of inference and queries against pairwise reference
paths written here.

The reference for `infer_relations` tests every ordered class pair with
`subsumes` and every (object, class) pair with `satisfies`.  The
references for the four queries scan all of `n.relations` until nothing
changes.  Seeded networks draw class members from `helpers.random_member`
and add members that share an equivalence key but differ in value: the
`q` verifications `self.q.value and 1` and `not not (self.q.value and 1)`
evaluate to 0.1 and 0.09999999999999998 on degree 0.1, and qualitative
members differ in their stored degree.
"""

import dataclasses
import random

import pytest

from oodn import (
    ClassDef,
    ModelError,
    Network,
    NodeRef,
    Projection,
    QualitativeProperty,
    QuantitativeProperty,
    Relation,
    Specification,
    declare_relation,
    infer_relations,
    instances_of,
    neighbors,
    reachable,
    satisfies,
    subclasses_of,
    subsumes,
    with_inferred,
)
from oodn.expr import EvalError, PropRef, walk
from oodn.network import RELATION_KINDS, class_ref, object_ref

from .helpers import cls, meth, obj, qprop, qual, random_member

_NAMES = ["p1", "p2", "p3", "q", "f1", "f2"]
_Q_VERIFICATIONS = ["self.q.value and 1", "not not (self.q.value and 1)", "self.q.value > 0.5"]
_DEGREES = [0.1, 0.5, 1.0]

# --- references ----------------------------------------------------------------


def reference_infer(n: Network, threshold: float) -> tuple:
    homogeneous = [t for t in n.classes if t.is_homogeneous]
    edges = [
        Relation(class_ref(s), class_ref(g), "a-kind-of", "inferred")
        for g in homogeneous
        for s in homogeneous
        if g is not s and subsumes(g, s)
    ]
    for o in n.objects:
        met = [t for t in homogeneous if satisfies(o, t, threshold) >= threshold]
        edges += [
            Relation(object_ref(o), class_ref(t), "instance-of", "inferred")
            for t in met
            if not any(u is not t and subsumes(t, u) for u in met)
        ]
    return tuple(sorted(edges, key=Relation.sort_key))


def _matches(edge_kind, kind):
    alias = {"is-a", "a-kind-of"}
    return kind is None or edge_kind == kind or (edge_kind in alias and kind in alias)


def _sorted(refs):
    return tuple(sorted(refs, key=NodeRef.sort_key))


def reference_neighbors(n, ref, kind, direction):
    found = set()
    for r in n.relations:
        if _matches(r.kind, kind):
            if direction != "in" and r.source == ref:
                found.add(r.target)
            if direction != "out" and r.target == ref:
                found.add(r.source)
    return _sorted(found)


def _closure(n, start, step):
    """Nodes reached from `start` by one or more `step(relation, node)`
    moves, by rescanning every relation until nothing is added."""
    seen = set()
    grew = True
    while grew:
        grew = False
        for r in n.relations:
            for node in [start, *seen]:
                nxt = step(r, node)
                if nxt is not None and nxt not in seen:
                    seen.add(nxt)
                    grew = True
    return _sorted(seen)


def reference_reachable(n, ref, kind):
    return _closure(
        n, ref, lambda r, node: r.target if r.source == node and _matches(r.kind, kind) else None
    )


def reference_subclasses(n, name):
    return _closure(
        n,
        NodeRef("class", name),
        lambda r, node: r.source if r.target == node and _matches(r.kind, "a-kind-of") else None,
    )


def reference_instances(n, name):
    ref = NodeRef("class", name)
    return _sorted(r.source for r in n.relations if r.kind == "instance-of" and r.target == ref)


def outcome(fn, *args):
    """("ok", result) or ("EvalError", message)."""
    try:
        return ("ok", fn(*args))
    except EvalError as exc:
        return ("EvalError", str(exc))


# --- seeded networks -----------------------------------------------------------


def _class_member(rng, name, safe):
    if name == "q":
        if rng.random() < 0.7:
            return qual("q", rng.choice(_Q_VERIFICATIONS))
        return qual("q", degree=rng.choice(_DEGREES))
    m = random_member(rng, name)
    while safe and _reads_p1_value(m):
        m = random_member(rng, name)
    return m


def _reads_p1_value(m):
    """In a safe network no verification reads `self.p1.value`, which
    fails on the list-valued p1 that every object there carries."""
    e = getattr(m, "verification", None)
    return e is not None and PropRef("p1", "value") in walk(e)


def _object_member(rng, name):
    if name == "q":
        return qual("q", degree=rng.choice(_DEGREES))
    m = random_member(rng, name)
    if isinstance(m, QuantitativeProperty):
        if rng.random() < 0.5:
            return dataclasses.replace(m, value=(1.0, rng.choice([1.0, 2.0])))
        return dataclasses.replace(m, value=rng.choice([-1.0, 2.0]))
    if isinstance(m, QualitativeProperty):
        return dataclasses.replace(m, degree=rng.choice(_DEGREES))
    return m


def random_network(rng, safe: bool) -> Network:
    classes = []
    for i in range(rng.randint(3, 8)):
        names = rng.sample(_NAMES, rng.randint(1, len(_NAMES)))
        classes.append(cls(f"c{i}", *(_class_member(rng, x, safe) for x in names)))
    # Repeat some classes member for member under new names, so that the
    # member table sees the same values many times and subsumption chains
    # form through smaller copies.
    for i in range(rng.randint(0, 3)):
        core = rng.choice(classes).core
        members = list(core.specification) + list(core.signature)
        keep = rng.sample(members, rng.randint(1, len(members)))
        classes.append(cls(f"d{i}", *keep))
    classes.append(
        ClassDef("mixed", None, (Projection("a", Specification((qprop("p1"),))),))
    )
    objects = []
    for i in range(rng.randint(2, 6)):
        names = rng.sample(_NAMES, rng.randint(1, len(_NAMES)))
        if safe:
            # Every verification reads p1's list or q's degree.
            names = ["p1", "q", *(x for x in names if x not in ("p1", "q"))]
        members = [_object_member(rng, x) for x in names]
        if safe:
            members[0] = qprop("p1", rng.choice(["cm", "kg", "s"]), (1.0, rng.choice([1.0, 2.0])))
        objects.append(obj(f"o{i}", *members, clone_index=rng.choice([0, 0, 1])))
    return Network(objects=tuple(objects), classes=tuple(classes))


def _with_declared_edges(rng, n: Network) -> Network:
    nodes = [class_ref(t) for t in n.classes] + [object_ref(o) for o in n.objects]
    kinds = sorted(RELATION_KINDS) + ["similar-to"]
    for _ in range(rng.randint(0, 12)):
        r = Relation(rng.choice(nodes), rng.choice(nodes), rng.choice(kinds))
        if all(r.triple != e.triple for e in n.relations):
            n = declare_relation(n, r)
    return n


NETWORKS = [(seed, random_network(random.Random(seed), safe=seed % 4 != 0)) for seed in range(80)]

# --- inference -----------------------------------------------------------------


class TestInferenceMatchesPairwise:
    # At 0.1 the two `q` verifications that share a key part ways.
    @pytest.mark.parametrize("threshold", [1.0, 0.5, 0.1])
    def test_seeded_networks(self, threshold):
        raised = 0
        instance_edges = 0
        for seed, n in NETWORKS:
            expected = outcome(reference_infer, n, threshold)
            assert outcome(infer_relations, n, threshold) == expected, seed
            if expected[0] == "EvalError":
                raised += 1
            else:
                instance_edges += sum(r.kind == "instance-of" for r in expected[1])
        # Both outcomes occur, so neither half of the comparison is vacuous.
        assert 0 < raised < len(NETWORKS) // 2
        assert instance_edges > len(NETWORKS)

    def test_members_equal_by_key_are_scored_by_value(self):
        plain, doubled = qual("q", "self.q.value and 1"), qual("q", "not not (self.q.value and 1)")
        assert plain.key == doubled.key and plain != doubled
        n = Network(
            objects=(obj("o", qual("q", degree=0.1)),),
            classes=(cls("a", plain), cls("b", doubled), cls("c", plain, qprop("p"))),
        )
        inferred = infer_relations(n, 0.1)
        assert {(r.source.name, r.target.name) for r in inferred if r.kind == "instance-of"} == {
            ("o", "a")
        }
        assert infer_relations(n, 0.1) == reference_infer(n, 0.1)

    def test_first_failing_verification_raises_as_pairwise(self):
        n = Network(
            objects=(obj("o", qprop("p1", value=(1.0, 2.0)), qual("q", degree=0.5)),),
            classes=(
                cls("a", qual("q", "self.q.value > 0.2")),
                cls("b", qual("q", "self.q.value > 0.2"), qual("p2", "self.p1.value > 0")),
                cls("c", qual("p3", "self.q.count > 0")),
            ),
        )
        expected = outcome(reference_infer, n, 1.0)
        assert expected[0] == "EvalError" and "'p2'" in expected[1]
        assert outcome(infer_relations, n, 1.0) == expected

    @pytest.mark.parametrize("threshold", [0.0, -0.5, 1.5])
    def test_threshold_outside_unit_interval(self, threshold):
        n = Network(objects=(obj("o", qprop("p", value=1.0)),), classes=(cls("t", qprop("p")),))
        with pytest.raises(ModelError, match="threshold"):
            infer_relations(n, threshold)
        # Rejected on every network, also where no object meets a class.
        with pytest.raises(ModelError, match="threshold"):
            infer_relations(dataclasses.replace(n, objects=()), threshold)

    @pytest.mark.parametrize("threshold", ["a", None, True], ids=["str", "none", "bool"])
    def test_threshold_that_is_not_a_number(self, threshold):
        n = Network(objects=(obj("o", qprop("p", value=1.0)),), classes=(cls("t", qprop("p")),))
        for fn in (infer_relations, with_inferred):
            with pytest.raises(ModelError, match=r"threshold must lie in \(0, 1\], got "):
                fn(n, threshold)

    def test_methods_in_the_table(self):
        n = Network(
            objects=(obj("o", meth("f", ("a",), "a * 2")), obj("u", meth("f", ("y",)))),
            classes=(
                cls("abstract", meth("f", ("a",))),
                cls("concrete", meth("f", ("a",), "a * 2")),
                cls("other", meth("f", ("a",), "a + 2")),
            ),
        )
        inferred = infer_relations(n)
        assert inferred == reference_infer(n, 1.0)
        assert {(r.source.name, r.target.name) for r in inferred} >= {
            ("o", "concrete"),
            ("u", "abstract"),
        }


# --- queries -------------------------------------------------------------------


def _queried_networks():
    for seed, n in NETWORKS[:30]:
        try:
            n = with_inferred(n, 0.5)
        except EvalError:
            pass
        yield seed, _with_declared_edges(random.Random(seed), n)


class TestQueriesMatchScan:
    def test_every_node_kind_and_direction(self):
        kinds = [None, *sorted(RELATION_KINDS), "similar-to"]
        checked = 0
        for seed, n in _queried_networks():
            nodes = [class_ref(t) for t in n.classes] + [object_ref(o) for o in n.objects]
            for ref in nodes:
                for kind in kinds:
                    for direction in ("out", "in", "both"):
                        got = neighbors(n, ref, kind, direction)
                        assert got == reference_neighbors(n, ref, kind, direction), seed
                        checked += bool(got)
                    assert reachable(n, ref, kind) == reference_reachable(n, ref, kind), seed
            for t in n.classes:
                assert subclasses_of(n, t.name) == reference_subclasses(n, t.name), seed
                assert instances_of(n, t.name) == reference_instances(n, t.name), seed
        assert checked > 100

    def test_cycle_and_self_loop(self):
        a, b = NodeRef("class", "a"), NodeRef("class", "b")
        n = Network(
            classes=(cls("a", qprop("p")), cls("b", qprop("q"))),
            relations=(
                Relation(a, b, "is-a"),
                Relation(b, a, "a-kind-of"),
                Relation(b, b, "is-a"),
            ),
        )
        assert reachable(n, a, "a-kind-of") == (a, b)
        assert subclasses_of(n, "b") == (a, b)
        assert neighbors(n, b, "is-a", "both") == (a, b)

    def test_index_is_per_snapshot_and_not_compared(self):
        _, n = NETWORKS[1]
        twin = Network(n.objects, n.classes, n.relations, n.exploiters, n.modifiers)
        start = class_ref(n.classes[0])
        before = neighbors(n, start, direction="both")
        assert n == twin and hash(n) == hash(twin)
        target = object_ref(n.objects[0])
        grown = declare_relation(n, Relation(start, target, "similar-to"))
        assert neighbors(grown, start) == _sorted({*neighbors(n, start), target})
        assert neighbors(n, start, direction="both") == before
