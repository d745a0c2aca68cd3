"""`infer_relations` against the pairwise reference of `test_inference`
on networks shaped for the bit-mask minimality test and the shared refs.

The seeded networks grow a class DAG: each class takes the members of one
or two earlier classes and adds fresh ones, so diamonds form wherever two
parents share an ancestor.  Some classes repeat another's member keys
under a new name, with other class-level values.  Each object copies the
members of one class, so it satisfies that class's whole chain of
ancestors.  Qualitative members read a stored degree, so a threshold
below 1 changes which classes an object meets.  The largest networks hold
more than 64 homogeneous classes, so the masks outgrow one machine word.
"""

import dataclasses
import random

import pytest

from oodn import (
    ClassDef,
    Network,
    Projection,
    QuantitativeProperty,
    Specification,
    infer_relations,
    with_inferred,
)

from .helpers import cls, obj, qprop, qual
from .test_inference import reference_infer

_DEGREES = (0.2, 0.6, 1.0)


def _fresh_member(k: int):
    if k % 3 == 2:
        return qual(f"g{k}", f"self.g{k}.value and 1")
    return qprop(f"p{k}", ("cm", "kg")[k % 2])


def _object_member(rng, m):
    if isinstance(m, QuantitativeProperty):
        return dataclasses.replace(m, value=1.0)
    return qual(m.name, degree=rng.choice(_DEGREES))


def _other_value(m):
    if isinstance(m, QuantitativeProperty):
        return dataclasses.replace(m, value=2.0)
    return m


def dag_network(rng, n_classes: int, n_objects: int) -> Network:
    fresh = iter(range(10**6))
    members = []  # class index -> {name: member}
    for i in range(n_classes):
        own = {}
        if i and rng.random() < 0.9:
            for parent in rng.sample(range(i), min(i, rng.choice((1, 2, 2)))):
                own.update(members[parent])
        if i and rng.random() < 0.15:
            # The same member keys as an earlier class, other values.
            own = {
                name: _other_value(m) for name, m in members[rng.randrange(i)].items()
            }
        else:
            for _ in range(rng.choice((1, 1, 2))):
                m = _fresh_member(next(fresh))
                own[m.name] = m
        members.append(own)
    classes = [cls(f"c{i}", *own.values()) for i, own in enumerate(members)]
    # A class with projections is not homogeneous; it shifts the indices of
    # the homogeneous classes after it.
    mixed = ClassDef("mixed", None, (Projection("a", Specification((qprop("p0", "cm"),))),))
    classes.insert(rng.randrange(len(classes) + 1), mixed)
    degrees = sorted({m.name for own in members for m in own.values() if m.name[0] == "g"})
    objects = []
    for i in range(n_objects):
        home = rng.choice(members)
        own = {m.name: _object_member(rng, m) for m in home.values()}
        # Every object carries every degree the verifications read.
        for name in degrees:
            own.setdefault(name, qual(name, degree=rng.choice(_DEGREES)))
        quantitative = sorted(name for name in own if name[0] == "p")
        if quantitative and rng.random() < 0.3:
            # Drop one member, so the object falls short of its home class.
            del own[rng.choice(quantitative)]
        objects.append(obj(f"o{i}", *own.values(), clone_index=rng.choice((0, 0, 2))))
    return Network(objects=tuple(objects), classes=tuple(classes))


def _seeded(seed: int, n_classes: int, n_objects: int) -> Network:
    rng = random.Random(seed)
    return dag_network(rng, n_classes or rng.randint(4, 16), n_objects)


SMALL = [(seed, _seeded(seed, 0, 8)) for seed in range(40)]
LARGE = [(seed, _seeded(seed, 70 + seed, 12)) for seed in range(3)]


class TestMatchesPairwise:
    @pytest.mark.parametrize("threshold", [1.0, 0.5, 0.2])
    def test_seeded_dags(self, threshold):
        deep = 0
        for seed, n in SMALL:
            got = infer_relations(n, threshold)
            assert got == reference_infer(n, threshold), seed
            deep += any(r.kind == "a-kind-of" for r in got)
        assert deep > len(SMALL) // 2

    @pytest.mark.parametrize("threshold", [1.0, 0.5])
    def test_more_than_64_classes(self, threshold):
        for seed, n in LARGE:
            homogeneous = [t for t in n.classes if t.is_homogeneous]
            assert len(homogeneous) > 64
            got = infer_relations(n, threshold)
            assert got == reference_infer(n, threshold), seed
            # Some subsumption edge names a class past bit 63 as the general one.
            late = {t.name for t in homogeneous[64:]}
            assert any(r.kind == "a-kind-of" and r.target.name in late for r in got)

    def test_threshold_moves_the_most_specific_class(self):
        specific = [r for _, n in SMALL for r in infer_relations(n, 1.0) if r.kind == "instance-of"]
        loose = [r for _, n in SMALL for r in infer_relations(n, 0.2) if r.kind == "instance-of"]
        assert set(specific) != set(loose)


class TestShapes:
    def test_diamond(self):
        top = cls("top", qprop("a"))
        left = cls("left", qprop("a"), qprop("b"))
        right = cls("right", qprop("a"), qprop("c"))
        bottom = cls("bottom", qprop("a"), qprop("b"), qprop("c"))
        objects = (
            obj("all", qprop("a", value=1), qprop("b", value=1), qprop("c", value=1)),
            obj("ab", qprop("a", value=1), qprop("b", value=1)),
            obj("a", qprop("a", value=1)),
        )
        n = Network(objects=objects, classes=(bottom, top, right, left))
        got = infer_relations(n)
        assert got == reference_infer(n, 1.0)
        instance_of = {(r.source.name, r.target.name) for r in got if r.kind == "instance-of"}
        assert instance_of == {("all", "bottom"), ("ab", "left"), ("a", "top")}

    def test_equal_key_sets_are_both_most_specific(self):
        n = Network(
            objects=(obj("o", qprop("a", value=1), qprop("b", value=1)),),
            classes=(
                cls("t", qprop("a")),
                cls("u", qprop("a"), qprop("b", value=1.0)),
                cls("v", qprop("a"), qprop("b", value=2.0)),
            ),
        )
        got = infer_relations(n)
        assert got == reference_infer(n, 1.0)
        assert {(r.source.name, r.target.name) for r in got} == {
            ("u", "t"), ("v", "t"), ("o", "u"), ("o", "v")
        }

    def test_object_meeting_a_whole_chain(self):
        chain = [cls(f"c{i}", *(qprop(f"p{k}") for k in range(i + 1))) for i in range(70)]
        full = obj("full", *(qprop(f"p{k}", value=1) for k in range(70)))
        half = obj("half", *(qprop(f"p{k}", value=1) for k in range(40)))
        n = Network(objects=(full, half), classes=tuple(reversed(chain)))
        got = infer_relations(n)
        assert got == reference_infer(n, 1.0)
        assert sum(r.kind == "a-kind-of" for r in got) == 70 * 69 // 2
        instance_of = {(r.source.name, r.target.name) for r in got if r.kind == "instance-of"}
        assert instance_of == {("full", "c69"), ("half", "c39")}


class TestSharedRefs:
    @pytest.mark.parametrize("threshold", [1.0, 0.5])
    def test_one_ref_object_per_node(self, threshold):
        for seed, n in SMALL + LARGE:
            refs = {}
            for r in infer_relations(n, threshold):
                for ref in (r.source, r.target):
                    assert refs.setdefault(ref, ref) is ref, (seed, ref)

    def test_with_inferred_keeps_the_shared_refs(self):
        _, n = SMALL[0]
        inferred = [r for r in with_inferred(n).relations if r.provenance == "inferred"]
        assert inferred
        refs = {}
        for r in inferred:
            for ref in (r.source, r.target):
                assert refs.setdefault(ref, ref) is ref
