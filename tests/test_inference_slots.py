"""`infer_relations` evaluates each distinct class member at most once per
object.

Every class below parses its own verifications, so classes list members
that are equal but distinct objects.  They must share one slot.  The `q`
verifications `self.q.value and 1` and `not not (self.q.value and 1)`
share an equivalence key but differ in value (0.1 and 0.09999999999999998
on degree 0.1), so they must keep a slot each.  Verifications that differ
only in the operand order of commutative operators always score alike,
so they share the slot of their key.
"""

from collections import Counter

import pytest

from oodn import Network, infer_relations, model, satisfies
from oodn.expr import EvalError, normalize, print_expr

from .helpers import cls, obj, qprop, qual


def _classes():
    def big():
        return qual("big", "self.p.value > 1")

    def positive():
        return qual("pos", "self.p.value > 0")

    return [
        cls("A", big(), positive()),
        cls("B", big(), qual("q", "self.q.value and 1")),
        cls("C", positive(), big(), qual("q", "not not (self.q.value and 1)")),
        cls("D", qprop("p"), positive(), big()),
    ]


def test_each_distinct_member_is_evaluated_once_per_object(monkeypatch):
    classes = _classes()
    a, b, c, _ = (t.core.specification for t in classes)
    assert a.get("big") == b.get("big") and a.get("big") is not b.get("big")
    b_q, c_q = b.get("q"), c.get("q")
    assert b_q.key == c_q.key and b_q != c_q
    objects = [
        obj("o1", qprop("p", value=2.0), qual("q", degree=0.1)),
        obj("o2", qprop("p", value=2.0), qual("q", degree=1.0)),
    ]
    calls = Counter()
    evaluate = model.evaluate

    def counting(e, ctx):
        calls[ctx.subject.node_name, e] += 1
        return evaluate(e, ctx)

    monkeypatch.setattr(model, "evaluate", counting)
    edges = infer_relations(Network(classes=tuple(classes), objects=tuple(objects)))
    assert calls and max(calls.values()) == 1, calls
    # o1 meets "big", so both `q` members are reached and scored apart.
    assert ("o1", b_q.verification) in calls and ("o1", c_q.verification) in calls
    instance_of = {(r.source.display, r.target.display) for r in edges if r.kind == "instance-of"}
    assert instance_of == {("o1", "D"), ("o2", "C"), ("o2", "D")}


def _evaluations(monkeypatch) -> Counter:
    """Count each (object, verification tree) that `member_score` evaluates."""
    calls = Counter()
    evaluate = model.evaluate

    def counting(e, ctx):
        calls[ctx.subject.node_name, e] += 1
        return evaluate(e, ctx)

    monkeypatch.setattr(model, "evaluate", counting)
    return calls


def test_operand_order_variants_are_evaluated_once_per_object(monkeypatch):
    """Spellings that differ only in the operand order of `+`, `==` and
    `and` give equal scores, so they share one slot per key."""
    variants = [
        ("sum", "self.p.value + self.r.value > 2", "self.r.value + self.p.value > 2"),
        ("two", "self.p.value == 2", "2 == self.p.value"),
        ("both", "self.p.value > 1 and self.r.value > 0", "self.r.value > 0 and self.p.value > 1"),
    ]
    classes = [
        cls("A", *(qual(name, first) for name, first, _ in variants)),
        cls("B", *(qual(name, second) for name, _, second in variants), qprop("r")),
    ]
    for name, _, _ in variants:
        a, b = (t.core.specification.get(name) for t in classes)
        assert a.key == b.key and a.verification != b.verification
    objects = [
        obj("o1", qprop("p", value=2.0), qprop("r", value=1.0)),
        obj("o2", qprop("p", value=3.0), qprop("r", value=1.0)),
    ]
    calls = _evaluations(monkeypatch)
    edges = infer_relations(Network(classes=tuple(classes), objects=tuple(objects)))
    keys = Counter()
    for (node, e), count in calls.items():
        keys[node, print_expr(normalize(e))] += count
    assert keys and max(keys.values()) == 1, calls
    # o2 fails `two` (3 != 2), so it scores 0 before reaching `both`.
    assert len(keys) == 5
    instance_of = {(r.source.display, r.target.display) for r in edges if r.kind == "instance-of"}
    assert instance_of == {("o1", "B")}


def test_a_constant_folded_variant_keeps_its_own_slot(monkeypatch):
    """`self.p.value > 1 + 1` has the key of `self.p.value > 2`, but its
    normal form folds a literal, so it is scored apart."""
    classes = [cls("A", qual("big", "self.p.value > 2")), cls("B", qual("big", "self.p.value > 1 + 1"))]
    a, b = (t.core.specification.get("big") for t in classes)
    assert a.key == b.key
    calls = _evaluations(monkeypatch)
    infer_relations(Network(classes=tuple(classes), objects=(obj("o", qprop("p", value=3.0)),)))
    assert calls == Counter({("o", a.verification): 1, ("o", b.verification): 1})


def test_a_shared_slot_raises_the_pairwise_message():
    """The first class to reach a slot scores it with its own member:
    here `B`, since the object lacks `A`'s quantitative `p`.  Scored with
    `A`'s spelling, the error would name `a` instead of `b`."""
    classes = (
        cls("A", qprop("p"), qual("q", "self.a.value + self.b.value > 1")),
        cls("B", qual("q", "self.b.value + self.a.value > 1")),
    )
    o = obj("o", qual("a", "1 > 0"), qual("b", "1 > 0"))
    with pytest.raises(EvalError) as pairwise:
        satisfies(o, classes[1])
    assert "'b' has no stored degree" in str(pairwise.value)
    with pytest.raises(EvalError) as inferred:
        infer_relations(Network(classes=classes, objects=(o,)))
    assert str(inferred.value) == str(pairwise.value)
