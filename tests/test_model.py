import math

import pytest
from hypothesis import given, settings

from oodn import (
    ClassDef,
    Core,
    Method,
    ModelError,
    ObjectInstance,
    Projection,
    QualitativeProperty,
    QuantitativeProperty,
    Signature,
    Specification,
    member_equivalent,
    method_equivalent,
    objects_similar,
    property_equivalent,
    satisfies,
    subsumes,
)
from oodn.expr import EvalError, parse
from oodn.model import class_state_equal, object_state_equal

from .helpers import cls, meth, obj, qprop, qual
from .strategies import core_only_classes


class TestValidation:
    def test_quantitative_list_coerced(self):
        p = QuantitativeProperty("p", "cm", [1, 2])
        assert p.value == (1.0, 2.0)

    @pytest.mark.parametrize(
        "value", [math.inf, -math.inf, math.nan, True, [1.0, math.nan], [False]]
    )
    def test_value_must_be_finite_number(self, value):
        with pytest.raises(ModelError):
            QuantitativeProperty("p", "cm", value)

    def test_bool_degree_rejected(self):
        with pytest.raises(ModelError):
            QualitativeProperty("q", degree=True)

    def test_empty_list_rejected(self):
        with pytest.raises(ModelError):
            QuantitativeProperty("p", "cm", [])

    def test_units_required(self):
        with pytest.raises(ModelError):
            QuantitativeProperty("p", "")

    def test_qualitative_needs_verification_or_degree(self):
        with pytest.raises(ModelError):
            QualitativeProperty("q")

    def test_degree_range(self):
        with pytest.raises(ModelError):
            QualitativeProperty("q", degree=1.5)

    def test_verification_must_be_degree_sorted(self):
        with pytest.raises(ModelError):
            QualitativeProperty("q", verification=parse("1 + 2"))

    def test_duplicate_property_names(self):
        with pytest.raises(ModelError):
            Specification((qprop("p"), qprop("p", "kg")))

    def test_duplicate_method_names(self):
        with pytest.raises(ModelError):
            Signature((meth("f"), meth("f", ("a",))))

    def test_method_body_params_declared(self):
        with pytest.raises(ModelError):
            Method("f", ("a",), parse("a + b"))

    def test_object_needs_concrete_values(self):
        with pytest.raises(ModelError):
            ObjectInstance("o", Specification((qprop("p"),)))

    def test_projection_nonempty(self):
        with pytest.raises(ModelError):
            Projection("src")

    def test_class_needs_members(self):
        with pytest.raises(ModelError):
            ClassDef("t")

    def test_core_projection_name_clash(self):
        with pytest.raises(ModelError):
            ClassDef(
                "t",
                Core(Specification((qprop("p"),))),
                (Projection("src", Specification((qprop("p", "kg"),))),),
            )

    def test_homogeneous_flag(self):
        assert cls("t", qprop("p")).is_homogeneous
        mixed = ClassDef("t", None, (Projection("a", Specification((qprop("p"),))),))
        assert not mixed.is_homogeneous

    def test_node_name(self):
        assert obj("o", qprop("p", value=1)).node_name == "o"
        assert obj("o", qprop("p", value=1), clone_index=2).node_name == "o#2"

    @pytest.mark.parametrize(
        "identifier", ["", ["o"], None, 7, b"o"], ids=["empty", "list", "none", "int", "bytes"]
    )
    def test_identifier_must_be_a_nonempty_str(self, identifier):
        with pytest.raises(ModelError) as exc:
            ObjectInstance(identifier)
        assert str(exc.value) == (
            f"object identifier must be a nonempty string: {identifier!r}"
        )

    @pytest.mark.parametrize(
        "index",
        [True, False, 1.5, 2.0, -1, "2", None],
        ids=["true", "false", "float", "whole-float", "negative", "str", "none"],
    )
    def test_clone_index_must_be_an_int_at_least_0(self, index):
        with pytest.raises(ModelError) as exc:
            ObjectInstance("o", clone_index=index)
        assert str(exc.value) == f"clone index must be an integer >= 0: {index!r}"


class TestEquivalence:
    def test_quantitative_by_units_only(self):
        assert property_equivalent(qprop("p", "cm", 2), qprop("p", "cm", 9))
        assert not property_equivalent(qprop("p", "cm"), qprop("p", "kg"))
        assert not property_equivalent(qprop("p", "cm"), qprop("q", "cm"))

    def test_qualitative_by_normal_form(self):
        a = qual("q", "self.p.value > 0 and self.r.value > 0")
        b = qual("q", "self.r.value > 0 and self.p.value > 0")
        assert property_equivalent(a, b)
        assert not property_equivalent(a, qual("q", "self.p.value > 1"))

    def test_opaque_qualitative_by_name(self):
        assert property_equivalent(qual("q", degree=1.0), qual("q", degree=0.5))
        assert not property_equivalent(qual("q", degree=1.0), qual("q", "self.p.value > 0"))

    def test_mixed_kinds_never_equivalent(self):
        assert not property_equivalent(qprop("p"), qual("p", degree=1.0))
        assert not member_equivalent(qprop("f"), meth("f"))

    def test_methods(self):
        assert method_equivalent(meth("f", ("a", "b")), meth("f", ("x", "y")))
        assert not method_equivalent(meth("f", ("a",)), meth("f", ("a", "b")))
        assert method_equivalent(meth("f", ("a",), "a + 1"), meth("f", ("a",), "1 + a"))
        assert not method_equivalent(meth("f", ("a",), "a + 1"), meth("f", ("a",)))

    def test_objects_similar_order_insensitive(self):
        a = obj("a", qprop("p", value=1), qprop("q", "kg", 2), meth("f"))
        b = obj("b", qprop("q", "kg", 9), qprop("p", value=7), meth("f"))
        assert objects_similar(a, b)
        assert not objects_similar(a, obj("c", qprop("p", value=1)))


class TestSatisfies:
    def test_polygon_fixture(self, polygons):
        r1 = polygons.find_object("R_1")
        s1 = polygons.find_object("S_1")
        tp, tr, ts = (polygons.find_class(n) for n in ["T(P)", "T(R)", "T(S)"])
        assert satisfies(r1, tp) == 1.0
        assert satisfies(r1, tr) == 1.0
        assert satisfies(r1, ts) == 0.0  # angles 70/110 are not all equal
        assert satisfies(s1, ts) == 1.0

    def test_missing_property_scores_zero(self):
        t = cls("t", qprop("p"))
        assert satisfies(obj("o", qprop("q", value=1)), t) == 0.0

    def test_units_mismatch_scores_zero(self):
        t = cls("t", qprop("p", "cm"))
        assert satisfies(obj("o", qprop("p", "kg", 1)), t) == 0.0

    def test_opaque_requirement_uses_stored_degree(self):
        t = cls("t", qual("ok", degree=1.0))
        assert satisfies(obj("o", qual("ok", degree=0.5)), t) == 0.5
        assert satisfies(obj("o", qprop("other", value=1)), t) == 0.0

    def test_abstract_method_by_name_and_arity(self):
        t = cls("t", meth("area", ("d1", "d2")))
        assert satisfies(obj("o", meth("area", ("x", "y"), "x * y")), t) == 1.0
        assert satisfies(obj("o", meth("area", ("x",), "x * x")), t) == 0.0

    def test_concrete_method_body_must_match(self):
        t = cls("t", meth("f", ("a",), "a * 2"))
        assert satisfies(obj("o", meth("f", ("a",), "2 * a")), t) == 1.0
        assert satisfies(obj("o", meth("f", ("a",), "a * 3")), t) == 0.0

    def test_verification_failure_raises(self):
        t = cls("t", qual("q", "self.ghost.value > 0"))
        with pytest.raises(EvalError, match="ghost"):
            satisfies(obj("o", qprop("p", value=1)), t)

    def test_threshold_validation(self):
        t = cls("t", qprop("p"))
        with pytest.raises(ModelError):
            satisfies(obj("o", qprop("p", value=1)), t, threshold=0.0)

    def test_inhomogeneous_rejected(self):
        mixed = ClassDef("t", None, (Projection("a", Specification((qprop("p"),))),))
        with pytest.raises(ModelError):
            satisfies(obj("o", qprop("p", value=1)), mixed)

    @settings(max_examples=100)
    @given(core_only_classes())
    def test_monotone_under_member_removal(self, t):
        """Dropping a requirement can only raise the satisfaction degree."""
        o = obj(
            "o",
            qprop("p1", "cm", [1, 2]),
            qprop("p2", "cm", 3),
            qprop("p4", "s", 1),
            qual("p3", degree=0.5),
            meth("f1", (), "1 + 2"),
            meth("f2", ("a", "b"), "a + b"),
        )
        full = satisfies(o, t)
        props = t.core.specification.members
        for drop in range(len(props)):
            smaller_core = Core(
                Specification(props[:drop] + props[drop + 1 :]), t.core.signature
            )
            if len(smaller_core) == 0:
                continue
            assert satisfies(o, ClassDef("t", smaller_core)) >= full


class TestSubsumes:
    def test_polygon_fixture(self, polygons):
        tp, tr, ts = (polygons.find_class(n) for n in ["T(P)", "T(R)", "T(S)"])
        assert subsumes(tp, tr)
        assert subsumes(tp, ts)
        assert subsumes(tr, ts)
        assert not subsumes(ts, tr)
        assert not subsumes(tr, tp)

    def test_irreflexive(self, polygons):
        tr = polygons.find_class("T(R)")
        assert not subsumes(tr, tr)

    def test_requires_equivalent_members(self):
        general = cls("g", qprop("p", "cm"))
        specific = cls("s", qprop("p", "kg"), qprop("q"))
        assert not subsumes(general, specific)

    @settings(max_examples=100)
    @given(core_only_classes("a"), core_only_classes("b"), core_only_classes("c"))
    def test_transitive(self, a, b, c):
        if subsumes(a, b) and subsumes(b, c):
            assert subsumes(a, c)


class TestStateEquality:
    def test_class_values_matter(self):
        a = cls("a", qprop("p", "cm", 4))
        b = cls("b", qprop("p", "cm", 3))
        assert not class_state_equal(a, b)
        assert class_state_equal(a, cls("c", qprop("p", "cm", 4)))

    def test_object_degrees_matter(self):
        a = obj("a", qual("q", degree=1.0))
        assert object_state_equal(a, obj("b", qual("q", degree=1.0)))
        assert not object_state_equal(a, obj("b", qual("q", degree=0.5)))

    def test_parameter_names_matter(self):
        a = cls("a", meth("f", ("x",)))
        assert not class_state_equal(a, cls("b", meth("f", ("y",))))
