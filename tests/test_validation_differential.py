"""The validating `Network` constructor agrees with the frozen copy in
`tests/reference_validation.py`.

Seeded networks mix good relations with duplicate relations (repeated
with fresh, equal refs and other provenances), dangling sources and
targets, class refs to object names, object refs to class names, and
clone refs such as `("o", 2)` next to an object whose identifier is
`"o#2"`; some hold several faults in one relation list.  Each network
must give the same `_nodes`, `_modifiers` and `_triples` both ways, or
the same exception type and message.
"""

from __future__ import annotations

import collections
import random

import pytest

from oodn.errors import OodnError
from oodn.modifiers import Modifier, SetUnits
from oodn.network import Network, NodeRef, Relation, class_ref, object_ref

from . import reference_validation as reference
from .helpers import cls, obj, qprop

SEEDS = range(300)

KINDS = ("is-a", "a-kind-of", "instance-of", "operand-of")
PROVENANCES = ("declared", "inferred", "recorded")

# Refs that resolve to no node of the networks below, each next to a
# node it could be mistaken for.
STRAYS = (
    NodeRef("class", "o"),  # an object's name
    NodeRef("object", "A"),  # a class's name
    NodeRef("object", "o", 2),  # displays as "o#2", an identifier
    NodeRef("object", "o#1"),  # displays as the clone ("o", 1)
    NodeRef("object", "p", 1),  # p has clone 3 only
    NodeRef("class", "ghost"),
    NodeRef("object", "ghost", 4),
)


def _outcome(make):
    try:
        v = make()
    except OodnError as e:
        return None, e
    return (dict(v._nodes), dict(v._modifiers), set(v._triples)), None


def _check(fields: dict) -> str | None:
    """Build `fields` both ways, assert they agree, return the error message."""
    want, want_error = _outcome(lambda: reference.Validated(**fields))
    got, got_error = _outcome(lambda: Network(**fields))
    if want_error is not None:
        assert got_error is not None, f"expected {want_error!r}, got a network"
        assert type(got_error) is type(want_error)
        assert str(got_error) == str(want_error)
        return str(want_error)
    assert got_error is None, f"unexpected {got_error!r}"
    assert got == want
    assert list(got[0]) == list(want[0])  # index order too
    return None


def _nodes(rng: random.Random):
    classes = [cls(name, qprop("p")) for name in ("A", "B", "C") if rng.random() < 0.9]
    objects = [
        obj("o", qprop("p", value=1)),
        obj("o", qprop("p", value=2), clone_index=1),
        obj("o#2", qprop("p", value=3)),
        obj("p", qprop("p", value=4)),
        obj("p", qprop("p", value=5), clone_index=3),
    ]
    objects = [o for o in objects if rng.random() < 0.85]
    if rng.random() < 0.03:  # a clash the node index reports first
        objects.append(obj("o", qprop("p", value=6), clone_index=2))
    rng.shuffle(objects)
    return objects, classes


def _fresh(ref: NodeRef) -> NodeRef:
    return NodeRef(ref.kind, ref.name, ref.clone_index)


def _network(seed: int) -> dict:
    rng = random.Random(seed)
    objects, classes = _nodes(rng)
    good = [class_ref(t) for t in classes] + [object_ref(o) for o in objects]
    # Per network: how often an endpoint strays, and how often a relation repeats.
    stray, repeat = rng.choice(((0.0, 0.0), (0.0, 0.15), (0.03, 0.0), (0.08, 0.1), (0.3, 0.3)))

    def endpoint():
        return rng.choice(STRAYS) if rng.random() < stray else rng.choice(good)

    relations = []
    for _ in range(rng.randint(0, 30)):
        if relations and rng.random() < repeat:
            r = rng.choice(relations)
            relations.append(
                Relation(_fresh(r.source), _fresh(r.target), r.kind, rng.choice(PROVENANCES))
            )
        else:
            relations.append(
                Relation(endpoint(), endpoint(), rng.choice(KINDS), rng.choice(PROVENANCES))
            )
    modifiers = [Modifier("kg", "class", (SetUnits("p", "kg"),))]
    return {"objects": objects, "classes": classes, "relations": relations,
            "modifiers": modifiers}


def test_seeded_networks_agree():
    outcomes = collections.Counter()
    for seed in SEEDS:
        message = _check(_network(seed)) or "valid"
        outcomes[" ".join(message.split(" ")[:2])] += 1
    # The seeds reach every outcome, each often enough to mean something.
    assert outcomes["valid"] >= 60, outcomes
    assert outcomes["duplicate relation"] >= 40, outcomes
    assert outcomes["relation endpoint"] >= 60, outcomes


A, B = NodeRef("class", "A"), NodeRef("class", "B")
O, O1, O_2 = NodeRef("object", "o"), NodeRef("object", "o", 1), NodeRef("object", "o#2")
GHOST = NodeRef("class", "ghost")

CASES = {
    "valid": [Relation(A, B, "a-kind-of"), Relation(O, A, "instance-of"),
              Relation(O1, A, "instance-of"), Relation(O_2, B, "instance-of")],
    "duplicate": [Relation(A, B, "is-a"), Relation(_fresh(A), _fresh(B), "is-a", "inferred")],
    "other-kind-is-not-a-duplicate": [Relation(A, B, "is-a"), Relation(A, B, "a-kind-of")],
    "dangling-source": [Relation(GHOST, A, "is-a")],
    "dangling-target": [Relation(A, GHOST, "is-a")],
    "both-dangling": [Relation(NodeRef("class", "x"), NodeRef("class", "y"), "is-a")],
    "class-ref-to-object": [Relation(NodeRef("class", "o"), A, "is-a")],
    "object-ref-to-class": [Relation(O, NodeRef("object", "A"), "instance-of")],
    "clone-ref-to-hash-identifier": [Relation(NodeRef("object", "o", 2), A, "instance-of")],
    "hash-ref-to-clone": [Relation(NodeRef("object", "o#1"), A, "instance-of")],
    "hash-identifier-ref": [Relation(O_2, A, "instance-of")],
    "duplicate-before-later-dangling": [
        Relation(A, B, "is-a"), Relation(A, B, "is-a"), Relation(GHOST, GHOST, "is-a"),
    ],
    "dangling-before-later-duplicate": [
        Relation(A, B, "is-a"), Relation(A, GHOST, "is-a"), Relation(A, B, "is-a"),
    ],
    "duplicate-of-a-dangling-relation": [
        Relation(GHOST, A, "is-a"), Relation(GHOST, A, "is-a"),
    ],
}


@pytest.mark.parametrize("relations", CASES.values(), ids=CASES.keys())
def test_fixed_cases_agree(relations):
    _check({
        "objects": [obj("o", qprop("p", value=1)), obj("o", qprop("p", value=2), clone_index=1),
                    obj("o#2", qprop("p", value=3))],
        "classes": [cls("A", qprop("p")), cls("B", qprop("p"))],
        "relations": relations,
    })
