"""Inference tests each class's structure with one set test per object,
and scores a class's other members only for an object that passes it.

A class's structure is its quantitative properties by name and units and
its methods by name and arity.  The engine is held to the frozen
`tests/reference_inference.py`, which scores every member in member
order.  The two agree wherever the reference returns.  Where it raises,
the engine raises the same error, or gives 0 for an object that fails
the structure of the class that raised.  Pair by pair, the engine may
also give 0 where the object meets the structure but fails a method with
a body: it scores those methods before any verification.
"""

from collections import Counter

import pytest

from oodn import Network, infer_relations, model, satisfies
from oodn.model import QuantitativeProperty

from . import reference_inference as reference
from .helpers import cls, meth, obj, qprop, qual
from .test_inference import NETWORKS, outcome


def _meets_structure(o, t) -> bool:
    """Every quantitative property of `t` by name and units, and every
    method by name and arity, written without `model.structure`."""
    for p in t.core.specification:
        own = o.find_property(p.name)
        if isinstance(p, QuantitativeProperty) and not (
            isinstance(own, QuantitativeProperty) and own.units == p.units
        ):
            return False
    for m in t.core.signature:
        own = o.signature.get(m.name)
        if own is None or len(own.parameters) != len(m.parameters):
            return False
    return True


def _fails_a_body(o, t) -> bool:
    return any(
        m.body is not None and o.signature.get(m.name).key != m.key for m in t.core.signature
    )


def _first_raising_pair(n: Network, threshold: float):
    """The (object, class) pair at which the reference inference raises:
    the first, in object then class order, whose reference score raises."""
    for o in n.objects:
        for t in n.classes:
            if t.is_homogeneous and outcome(reference.satisfies, o, t, threshold)[0] != "ok":
                return o, t
    raise AssertionError("no pair raises")


@pytest.mark.parametrize("threshold", [1.0, 0.5, 0.1])
def test_inference_matches_the_reference(threshold):
    agreed = structural = 0
    for seed, n in NETWORKS:
        expected = outcome(reference.infer_relations, n, threshold)
        got = outcome(infer_relations, n, threshold)
        if got == expected:
            agreed += 1
            continue
        assert expected[0] == "EvalError", seed
        o, t = _first_raising_pair(n, threshold)
        assert outcome(reference.satisfies, o, t, threshold)[1] == expected[1], seed
        assert f"failed on {o.node_name}:" in expected[1], seed
        assert not _meets_structure(o, t), seed
        structural += 1
    # Both branches are taken.
    assert agreed > len(NETWORKS) // 2 and structural > 0


@pytest.mark.parametrize("threshold", [1.0, 0.5, 0.1])
def test_satisfies_matches_the_reference(threshold):
    raised = zero_instead = 0
    for seed, n in NETWORKS:
        for o in n.objects:
            for t in n.classes:
                if not t.is_homogeneous:
                    continue
                expected = outcome(reference.satisfies, o, t, threshold)
                got = outcome(satisfies, o, t, threshold)
                if expected[0] == "ok" or got == expected:
                    assert got == expected, (seed, o.node_name, t.name)
                    raised += expected[0] == "EvalError"
                    continue
                assert got == ("ok", 0.0), (seed, o.node_name, t.name)
                assert not _meets_structure(o, t) or _fails_a_body(o, t), (seed, t.name)
                zero_instead += 1
    assert raised > 0 and zero_instead > 0


def test_member_order_does_not_decide_between_zero_and_an_error():
    def big():
        return qual("big", "self.p.value > 1")

    first, second = cls("first", qprop("p"), big()), cls("second", big(), qprop("p"))
    objects = (
        obj("lacks_p", qual("q", degree=1.0)),
        obj("in_kg", qprop("p", "kg", 2.0)),
        obj("small", qprop("p", value=0.5)),
        obj("large", qprop("p", value=2.0)),
    )
    for o in objects:
        assert satisfies(o, first) == satisfies(o, second), o.node_name
    edges = infer_relations(Network(objects=objects, classes=(first, second)))
    targets = {}
    for r in edges:
        assert r.kind == "instance-of"
        targets.setdefault(r.target.name, set()).add(r.source.name)
    assert targets == {"first": {"large"}, "second": {"large"}}


def _counting_evaluate(monkeypatch):
    calls = Counter()
    evaluate = model.evaluate

    def counting(e, ctx):
        calls[ctx.subject, e] += 1
        return evaluate(e, ctx)

    monkeypatch.setattr(model, "evaluate", counting)
    return calls


def test_no_verification_is_evaluated_for_an_object_that_fails_its_class(monkeypatch):
    # Each class holds its own verification, ahead of the members that
    # make its structure, so a member-order scorer would evaluate it first.
    classes = (
        cls("units", qual("u", "self.p.value > 0"), qprop("p")),
        cls("arity", qual("a", "self.p.value > -1"), meth("f", ("x",))),
        cls("body", qual("b", "self.p.value > -2"), qprop("p"), meth("g", ("x",), "x + 1")),
        cls("open", qual("o", "self.p.value > -3")),
    )
    objects = (
        obj("kg", qprop("p", "kg", 1.0), meth("f", ("x",)), meth("g", ("y",), "y + 1")),
        obj("binary", qprop("p", value=1.0), meth("f", ("x", "y")), meth("g", ("x",), "x + 2")),
        obj("none", qual("p", degree=1.0)),
    )
    calls = _counting_evaluate(monkeypatch)
    infer_relations(Network(objects=objects, classes=classes))
    evaluated = {(o.node_name, e) for o, e in calls}
    verification = {t.name: t.core.specification.members[0].verification for t in classes}
    assert evaluated == {
        ("kg", verification["arity"]),
        ("kg", verification["open"]),
        ("binary", verification["units"]),
        ("binary", verification["open"]),
        ("none", verification["open"]),
    }
    assert max(calls.values()) == 1


def test_no_verification_is_evaluated_outside_structure_on_seeded_networks(monkeypatch):
    calls = _counting_evaluate(monkeypatch)
    for _, n in NETWORKS:
        calls.clear()
        try:
            infer_relations(n, 0.1)
        except model.EvalError:
            pass
        for o, e in calls:
            assert any(
                _meets_structure(o, t) and not _fails_a_body(o, t)
                for t in n.classes
                if t.is_homogeneous
                and any(getattr(p, "verification", None) == e for p in t.core.specification)
            ), (o.node_name, e)
