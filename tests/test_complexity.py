"""Operation counts that pin how the engine's work grows with the network.

Each count is read through a wrapper at a Python-level boundary, so it
is exact and the same on every run and under any `PYTHONHASHSEED`, where
wall time on a shared host is neither.  The network is the baseline of
ROADMAP.md: C classes `T_i`, each holding quantitative properties
`p0..p_{i mod 20}` in cm, and C objects `o_i` built the same way with
value 1.0, at C = 20 and 80.  Each expected count is worked out from the
networks and documents involved, never written down as a number.
"""

import collections
import json

import pytest

from oodn import LoadError, NodeRef, Network, apply_exploiter, infer_relations, load_text, save_text
from oodn import expr, io, model, network
from oodn.network import class_ref

from .helpers import cls, meth, obj, qprop, qual

SIZES = (20, 80)


def baseline(size, extra=lambda i: ()):
    """The baseline network with C = `size`; class `T_i` also holds the
    members `extra(i)`."""
    classes = tuple(
        cls(f"T_{i}", *(qprop(f"p{k}") for k in range(i % 20 + 1)), *extra(i))
        for i in range(size)
    )
    objects = tuple(
        obj(f"o_{i}", *(qprop(f"p{k}", value=1.0) for k in range(i % 20 + 1)))
        for i in range(size)
    )
    return Network(objects=objects, classes=classes)


def counted(monkeypatch, owner, name) -> list:
    """Replace `owner.name` with a wrapper that appends to the returned
    list on each call."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


@pytest.fixture(scope="module", params=SIZES, ids=[f"C={c}" for c in SIZES])
def size(request):
    return request.param


@pytest.fixture(scope="module")
def inferred(size):
    return network.with_inferred(baseline(size))


def test_union_step_hashes_every_relation(inferred, monkeypatch):
    """One union step is O(relations) today: the new snapshot's validator
    hashes each of its triples once, and `_grow`'s present-triple filter
    hashes each new triple twice more.  A triple's hash calls
    `NodeRef.__hash__` for its source and its target."""
    operands = [class_ref(inferred.classes[0]), class_ref(inferred.classes[1])]
    calls = counted(monkeypatch, NodeRef, "__hash__")
    grown, _, _ = apply_exploiter(inferred, "union", operands, dedup=False)
    new = len(grown.relations) - len(inferred.relations)
    assert new > 0
    assert len(calls) == 2 * (len(grown.relations) + 2 * new)


def _sources(value):
    """The expression texts anywhere in a JSON document value."""
    if isinstance(value, dict):
        for key, v in value.items():
            if key in ("verification", "body", "expression") and isinstance(v, str):
                yield v
            else:
                yield from _sources(v)
    elif isinstance(value, list):
        for v in value:
            yield from _sources(v)


def _expression_document(size) -> str:
    """The baseline saved with a verification and a method in each class,
    whose sources repeat across classes."""
    return save_text(
        baseline(
            size,
            lambda i: (
                qual("big", f"self.p0.value > {i % 7}"),
                meth("scaled", ("k",), f"k * {i % 3}"),
            ),
        )
    )


def test_load_parses_each_distinct_source_once(size, monkeypatch):
    text = _expression_document(size)
    sources = list(_sources(json.loads(text)))
    assert len(set(sources)) < len(sources)
    calls = counted(monkeypatch, io, "parse")
    load_text(text)
    assert len(calls) == len(set(sources))


def test_load_builds_each_binary_node_once(size, monkeypatch):
    """A load runs the operator check of `_BinaryNode` once per binary
    node of its distinct trees, so no tree is built twice.  Normalizing a
    normal form builds no node, since a node whose normalized children are
    its own is kept; the raw trees are not all normal, so normalizing them
    does build nodes."""
    text = save_text(
        baseline(
            size,
            lambda i: (
                qual("near", f"self.p0.value * 2 + {i % 5} > 1 and not (self.p0.value < {i % 3})"),
                meth("scaled", ("k",), f"k * {i % 3} - k / 2"),
            ),
        )
    )
    trees = [expr.parse(source) for source in set(_sources(json.loads(text)))]
    binary = (expr.Arith, expr.Compare, expr.Connective)
    normal = [expr.normalize(tree) for tree in trees]
    calls = counted(monkeypatch, expr._BinaryNode, "__post_init__")
    load_text(text)
    assert len(calls) == sum(isinstance(n, binary) for tree in trees for n in expr.walk(tree))
    calls.clear()
    for tree in normal:
        expr.normalize(tree)
    assert not calls
    for tree in trees:
        expr.normalize(tree)
    assert calls


class _CountingPattern:
    """Stands in for `expr._TOKEN_RE` and counts its scans by method."""

    def __init__(self, pattern):
        self.pattern, self.calls = pattern, collections.Counter()

    def findall(self, *args):
        self.calls["findall"] += 1
        return self.pattern.findall(*args)

    def finditer(self, *args):
        self.calls["finditer"] += 1
        return self.pattern.finditer(*args)


def test_load_lexes_each_distinct_source_in_one_scan(size, monkeypatch):
    """A load lexes each distinct source with one `findall`.  Token
    offsets are found with `finditer` only to report a syntax error: never
    for a clean document, and once per failed parse for a document with
    one bad source.  (The load parses that source twice: a member list
    that fails to load is loaded again to find the failing path.)"""
    text = _expression_document(size)
    scans = _CountingPattern(expr._TOKEN_RE)
    monkeypatch.setattr(expr, "_TOKEN_RE", scans)
    load_text(text)
    assert scans.calls == {"findall": len(set(_sources(json.loads(text))))}
    bad = text.replace('"k * 0"', '"k * 0 @"', 1)
    assert bad != text
    failed = []

    def parse(source, leaves):
        try:
            return expr.parse(source, leaves)
        except expr.ExprSyntaxError:
            failed.append(source)
            raise

    monkeypatch.setattr(io, "parse", parse)
    scans.calls.clear()
    with pytest.raises(LoadError, match="unexpected character '@'"):
        load_text(bad)
    assert set(failed) == {"k * 0 @"}
    assert scans.calls["finditer"] == len(failed)


def test_inference_tests_subsumption_only_across_core_sizes(size, monkeypatch):
    """A proper subset is smaller, so `subsumes(general, specific)` runs
    only where the general class's core is the smaller one."""
    n = baseline(size)
    calls = counted(monkeypatch, network, "subsumes")
    infer_relations(n)
    sizes = [len(t.core) for t in n.classes]
    assert len(calls) == sum(g < s for g in sizes for s in sizes)


def test_inference_scores_each_key_once_per_object(size, monkeypatch):
    """Every class also holds one verification, spelled `self.p0.value + 1
    > 1` in even classes and with the operands of `+` swapped in odd ones.
    The spellings score alike, so `member_score` runs once per (object,
    key) pair that the structural test reaches; each score is 1, so no
    pair is cut short."""
    spellings = ("self.p0.value + 1 > 1", "1 + self.p0.value > 1")
    n = baseline(size, lambda i: (qual("big", spellings[i % 2]),))
    reached = set()
    for t in n.classes:
        required, scored = model.requirements(t.core)
        for o in n.objects:
            if required <= model.structure(o):
                reached.update((o.node_name, m.key) for m in scored)
    assert len({key for _, key in reached}) == 1
    calls = counted(monkeypatch, network, "member_score")
    infer_relations(n)
    assert len(calls) == len(reached)


def test_inference_evaluates_each_verification_slot_once_per_object(size, monkeypatch):
    """Class `T_i` also holds one verification, which reads `p0` and
    `p_{i mod 20}` and takes one of three bounds.  Being the class's only
    scored member, it is reached wherever the structural test passes, so
    `evaluate` is called from `model` once per (object, slot) pair that
    test reaches, however many nodes the verification has.  The rules
    evaluate every node below the root without calling `evaluate` again,
    and the verifications fold no literals when their keys are computed,
    so nothing calls `expr.evaluate` through its module."""
    n = baseline(
        size,
        lambda i: (qual("near", f"self.p0.value >= {i % 3} and not (self.p{i % 20}.value > 2)"),),
    )
    reached = set()
    for t in n.classes:
        required, scored = model.requirements(t.core)
        assert len(scored) == 1
        for o in n.objects:
            if required <= model.structure(o):
                reached.update((o.node_name, m.score_key) for m in scored)
    assert len({key for _, key in reached}) > 3
    top = counted(monkeypatch, model, "evaluate")
    nested = counted(monkeypatch, expr, "evaluate")
    infer_relations(n)
    assert len(top) == len(reached)
    assert not nested
