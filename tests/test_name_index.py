"""The per-snapshot indices against a linear scan and a fresh snapshot.

Seeded random growth adds classes, objects, clones, minted `name#k`
nodes, modifiers, unions and declared relations, with names chosen to
collide across kinds and with clone display names.  After every step
each lookup of the network and of the command line must agree with a
scan of the node tuples written here, the snapshot must equal the
network built afresh from its tuples, and every present relation must
be refused as already present.
"""

from __future__ import annotations

import random

import pytest

from oodn import (
    ClassDef,
    Modifier,
    Network,
    NodeRef,
    OodnError,
    Relation,
    add_class,
    add_modifier,
    add_object,
    apply_exploiter,
    apply_modifier,
    declare_relation,
    empty_network,
)
from oodn.cli import _resolve_name
from oodn.modifiers import SetUnits, SetValue
from oodn.network import NetworkError, class_ref, object_ref

from .helpers import cls, obj, qprop

_CLASS_NAMES = ["a", "b", "o#1", "o#2", "k(o)", "union(a,b)", "union(o,o#1)"]
_OBJECT_NAMES = ["o", "o#1", "o#2", "a", "m(a)", "union(a,b)", "k(o)"]
_MODIFIERS = [
    Modifier("m", "class", (SetUnits("p", "kg"),)),
    Modifier("k", "object", (SetValue("p", 2.0),)),
    Modifier("a", "object", (SetValue("p", 3.0),)),
]
# Probes besides the present names: names never added, and `base#k` shapes.
_ABSENT = ["ghost", "o#9", "a#2", "m", "union(a,b)#3"]
# Relation endpoints that may not resolve.
_DANGLING = [NodeRef("class", "ghost"), NodeRef("object", "o", 9), NodeRef("object", "a", 1)]


def _grow(rng: random.Random, n):
    step = rng.randrange(8)
    classes = [class_ref(t) for t in n.classes]
    objects = [object_ref(o) for o in n.objects]
    if step == 0:
        name = rng.choice(_CLASS_NAMES)
        return add_class(n, cls(name, qprop("p"), *[qprop("q")] * rng.randint(0, 1)))
    if step == 1:
        name, index = rng.choice(_OBJECT_NAMES), rng.choice([0, 0, 1, 2])
        value = rng.choice([1.0, 7.0])
        return add_object(n, obj(name, qprop("p", value=value), clone_index=index))
    if step == 2:
        return add_modifier(n, rng.choice(_MODIFIERS))
    if step == 3 and objects:
        index = rng.choice([None, None, 1, 2, 3])
        return apply_exploiter(n, "clone", [rng.choice(objects)], clone_index=index)[0]
    if step == 4 and n.modifiers:
        modifier = rng.choice(n.modifiers)
        targets = classes if modifier.target_kind == "class" else objects
        if targets:
            dedup = rng.random() < 0.3
            return apply_modifier(n, modifier.name, rng.choice(targets), dedup=dedup)[0]
    if step == 5 and len(classes) >= 2:
        operands = rng.sample(classes, 2)
        return apply_exploiter(n, "union", operands, dedup=rng.random() < 0.3)[0]
    if step == 6 and objects:
        first = rng.choice(objects)
        operands = [first, rng.choice([first, *objects])]
        try:
            grown, _, result = apply_exploiter(n, "union", operands, dedup=rng.random() < 0.3)
        except OodnError as exc:
            pytest.fail(f"object union of {operands} raised {exc!r}")
        # Every object of the union's set is a node of the grown network.
        assert all(grown.find_object(o.identifier, o.clone_index) == o for o in result.objects)
        return grown
    if step == 7:
        if n.relations and rng.random() < 0.3:
            r = rng.choice(n.relations)
            return declare_relation(n, Relation(r.source, r.target, r.kind))
        ends = classes + objects + _DANGLING
        kind = rng.choice(["is-a", "instance-of", "operand-of"])
        return declare_relation(n, Relation(rng.choice(ends), rng.choice(ends), kind))
    return n


def _displayed_as(n, name: str) -> list:
    """Every class and object whose display name is `name`."""
    return [t for t in n.classes if t.name == name] + [
        o for o in n.objects if o.node_name == name
    ]


def _check(n) -> None:
    names = {t.name for t in n.classes} | {o.node_name for o in n.objects}
    for name in names | set(_CLASS_NAMES + _OBJECT_NAMES + _ABSENT):
        found = _displayed_as(n, name)
        assert len(found) <= 1, f"{name!r} names {len(found)} nodes"
        node = found[0] if found else None
        assert (node is None) == (name not in names)

        cls_node = node if isinstance(node, ClassDef) else None
        assert n.find_class(name) is cls_node
        if cls_node is None:
            with pytest.raises(NetworkError, match="unresolved"):
                n.resolve(NodeRef("class", name))
        else:
            assert n.resolve(NodeRef("class", name)) is cls_node

        for index in range(4):
            expected = next(
                (o for o in n.objects if (o.identifier, o.clone_index) == (name, index)),
                None,
            )
            assert n.find_object(name, index) is expected
            ref = NodeRef("object", name, index)
            if expected is None:
                with pytest.raises(NetworkError, match="unresolved"):
                    n.resolve(ref)
            else:
                assert n.resolve(ref) is expected

        if node is None:
            with pytest.raises(NetworkError, match="no class or object named"):
                _resolve_name(n, name)
        else:
            want = class_ref(node) if isinstance(node, ClassDef) else object_ref(node)
            assert _resolve_name(n, name) == want

    for name in {m.name for m in n.modifiers} | {"m", "k", "a", "ghost"}:
        expected = next((m for m in n.modifiers if m.name == name), None)
        assert n.find_modifier(name) is expected

    assert n == Network(n.objects, n.classes, n.relations, n.exploiters, n.modifiers)
    for r in n.relations:
        with pytest.raises(NetworkError, match="already present"):
            declare_relation(n, r)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_index_agrees_with_linear_scan(seed):
    rng = random.Random(seed)
    n = empty_network()
    rejected = 0
    minted = set()
    declared = 0
    for _ in range(150):
        try:
            n = _grow(rng, n)
        except OodnError:
            rejected += 1
        _check(n)
        declared = max(declared, sum(r.provenance == "declared" for r in n.relations))
        if any("#" in t.name and t.name not in _CLASS_NAMES for t in n.classes):
            minted.add("class")
        if any("#" in o.identifier and o.identifier not in _OBJECT_NAMES for o in n.objects):
            minted.add("object")
    # The growth reaches minted names of both kinds, declared relations
    # and rejected collisions.
    assert minted == {"class", "object"}
    assert declared > 0
    assert rejected > 0


def test_clone_index_and_minted_identifier_are_told_apart():
    """Clone 2 of "o" and an object with identifier "o#2" both display as
    "o#2"; a lookup of ("o", 2) must not return the latter."""
    n = add_object(empty_network(), obj("o#2", qprop("p", value=1.0)))
    assert n.find_object("o#2") is n.objects[0]
    assert n.find_object("o", 2) is None
    with pytest.raises(NetworkError, match="unresolved object reference 'o#2'"):
        n.resolve(NodeRef("object", "o", 2))
    _check(n)
