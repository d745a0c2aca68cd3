"""`infer_relations` evaluates each distinct class member at most once per
object.

Every class below parses its own verifications, so classes list members
that are equal but distinct objects.  They must share one slot.  The `q`
verifications `self.q.value and 1` and `not not (self.q.value and 1)`
share an equivalence key but differ in value (0.1 and 0.09999999999999998
on degree 0.1), so they must keep a slot each.
"""

from collections import Counter

from oodn import Network, infer_relations, model

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
