import pytest

from oodn import Modifier, ModifierError, ModifierKind, classify, compose
from oodn.expr import parse
from oodn.model import ClassDef, ModelError, classes_member_equivalent
from oodn.modifiers import (
    AddMethod,
    AddProperty,
    RemoveMethod,
    RemoveProperty,
    ReplaceMethod,
    ReplaceProperty,
    SetExpression,
    SetUnits,
    SetValue,
    apply_to_class,
    apply_to_object,
)

from .helpers import cls, meth, obj, qprop, qual


def class_modifier(name, *edits):
    return Modifier(name, "class", tuple(edits))


def object_modifier(name, *edits):
    return Modifier(name, "object", tuple(edits))


class TestValidation:
    def test_edits_nonempty(self):
        with pytest.raises(ModifierError):
            Modifier("m", "class", ())

    def test_name_nonempty(self):
        with pytest.raises(ModifierError) as exc:
            Modifier("", "class", (SetValue("p", 1.0),))
        assert type(exc.value) is ModifierError
        assert str(exc.value) == "modifier name must be nonempty"

    def test_target_kind_checked(self):
        with pytest.raises(ModifierError):
            Modifier("m", "thing", (SetValue("p", 1.0),))

    def test_wrong_target_kind_on_apply(self):
        m = object_modifier("m", SetValue("p", 1.0))
        with pytest.raises(ModifierError, match="targets objects"):
            apply_to_class(m, cls("t", qprop("p")))

    @pytest.mark.parametrize(
        "apply, m, node, message",
        [
            (
                apply_to_class,
                class_modifier("m", SetValue("p", 1.0)),
                obj("o", qprop("p", value=1)),
                "targets classes, not objects",
            ),
            (
                apply_to_object,
                object_modifier("m", SetValue("p", 1.0)),
                cls("t", qprop("p")),
                "targets objects, not classes",
            ),
        ],
    )
    def test_node_of_the_wrong_type_on_apply(self, apply, m, node, message):
        with pytest.raises(ModifierError, match=message):
            apply(m, node)


class TestApply:
    def test_set_value(self):
        t = cls("t", qprop("p", "cm", 4))
        out = apply_to_class(class_modifier("m", SetValue("p", 3.0)), t)
        assert out.core.specification.get("p").value == 3.0
        assert t.core.specification.get("p").value == 4.0  # original untouched

    def test_set_value_needs_quantitative(self):
        t = cls("t", qual("q", degree=1.0))
        with pytest.raises(ModifierError, match="not quantitative"):
            apply_to_class(class_modifier("m", SetValue("q", 1.0)), t)

    def test_set_units(self):
        t = cls("t", qprop("p", "cm"))
        out = apply_to_class(class_modifier("m", SetUnits("p", "m")), t)
        assert out.core.specification.get("p").units == "m"

    def test_set_expression_on_property(self):
        t = cls("t", qual("q", "self.p.value > 0"))
        m = class_modifier("m", SetExpression("q", parse("self.p.value > 1")))
        out = apply_to_class(m, t)
        assert out.core.specification.get("q").verification == parse("self.p.value > 1")

    def test_set_expression_falls_back_to_method_body(self):
        t = cls("t", meth("f", ("a",)))
        m = class_modifier("m", SetExpression("f", parse("a * 2")))
        out = apply_to_class(m, t)
        assert out.core.signature.get("f").body == parse("a * 2")

    def test_add_remove_replace_property(self):
        t = cls("t", qprop("p"))
        added = apply_to_class(class_modifier("m", AddProperty(qprop("q", "kg"))), t)
        assert added.core.specification.names == ("p", "q")
        removed = apply_to_class(class_modifier("m", RemoveProperty("q")), added)
        assert removed.core.specification.names == ("p",)
        replaced = apply_to_class(
            class_modifier("m", ReplaceProperty("p", qual("ok", degree=1.0))), t
        )
        assert replaced.core.specification.names == ("ok",)

    def test_add_existing_rejected(self):
        t = cls("t", qprop("p"))
        with pytest.raises(ModifierError, match="already exists"):
            apply_to_class(class_modifier("m", AddProperty(qprop("p", "kg"))), t)

    def test_remove_missing_rejected(self):
        t = cls("t", qprop("p"))
        with pytest.raises(ModifierError, match="no property"):
            apply_to_class(class_modifier("m", RemoveProperty("ghost")), t)

    def test_method_edits(self):
        t = cls("t", meth("f", ("a",), "a + 1"))
        added = apply_to_class(class_modifier("m", AddMethod(meth("g"))), t)
        assert added.core.signature.names == ("f", "g")
        removed = apply_to_class(class_modifier("m", RemoveMethod("g")), added)
        assert removed.core.signature.names == ("f",)
        replaced = apply_to_class(
            class_modifier("m", ReplaceMethod("f", meth("f", ("a",), "a * 2"))), t
        )
        assert replaced.core.signature.get("f").body == parse("a * 2")

    def test_edits_run_in_order(self):
        t = cls("t", qprop("p"))
        m = class_modifier(
            "m", AddProperty(qprop("q", "kg")), SetValue("q", 7.0)
        )
        out = apply_to_class(m, t)
        assert out.core.specification.get("q").value == 7.0
        # Reversed order is inapplicable: q does not exist yet.
        bad = class_modifier("m", SetValue("q", 7.0), AddProperty(qprop("q", "kg")))
        with pytest.raises(ModifierError):
            apply_to_class(bad, t)

    def test_apply_to_object(self):
        o = obj("o", qprop("p", value=4))
        out = apply_to_object(object_modifier("m", SetValue("p", 3.0)), o)
        assert out.find_property("p").value == 3.0
        assert out.identifier == "o"
        assert o.find_property("p").value == 4.0


class TestPolygonFixture:
    def test_inverse_pair(self, polygons):
        tr, ts = polygons.find_class("T(R)"), polygons.find_class("T(S)")
        m1 = polygons.find_modifier("M1(T(S))")
        m2 = polygons.find_modifier("M2(T(R))")
        grown = apply_to_class(m2, tr)
        assert classes_member_equivalent(grown, ts)
        shrunk = apply_to_class(m1, ts)
        assert classes_member_equivalent(shrunk, tr)
        # Round trip is the identity on member sets.
        assert classes_member_equivalent(apply_to_class(m1, grown), tr)
        assert classes_member_equivalent(apply_to_class(m2, shrunk), ts)

    def test_classify_destroying(self, polygons):
        ts = polygons.find_class("T(S)")
        kinds = classify(polygons.find_modifier("M1(T(S))"), ts)
        assert kinds == {ModifierKind.PARTIAL, ModifierKind.DESTROYING}

    def test_classify_value_tweak(self, polygons):
        tr = polygons.find_class("T(R)")
        kinds = classify(polygons.find_modifier("M1(T(R))"), tr)
        assert kinds == {ModifierKind.PARTIAL}

    def test_classify_generating(self, polygons):
        tr = polygons.find_class("T(R)")
        kinds = classify(polygons.find_modifier("M2(T(R))"), tr)
        assert kinds == {ModifierKind.PARTIAL, ModifierKind.GENERATING}


class TestClassify:
    def test_full_when_every_member_touched(self):
        t = cls("t", qual("q", "self.p.value > 0"), meth("f", ("a",)), qprop("p"))
        m = class_modifier(
            "m",
            SetExpression("q", parse("self.p.value > 1")),
            SetExpression("f", parse("a * 2")),
            SetValue("p", 1.0),
        )
        assert classify(m, t) == {ModifierKind.FULL}

    def test_partial_on_larger_target(self):
        m = class_modifier("m", SetValue("p", 1.0))
        small = cls("s", qprop("p"))
        large = cls("l", qprop("p"), qprop("q", "kg"))
        assert ModifierKind.FULL in classify(m, small)
        assert ModifierKind.PARTIAL in classify(m, large)

    def test_replace_is_commutable(self):
        t = cls("t", qprop("p"))
        m = class_modifier("m", ReplaceProperty("p", qprop("p", "kg")))
        assert classify(m, t) == {ModifierKind.FULL, ModifierKind.COMMUTABLE}

    def test_add_only_is_partial_generating(self):
        t = cls("t", qprop("p"))
        m = class_modifier("m", AddMethod(meth("g")))
        assert classify(m, t) == {ModifierKind.PARTIAL, ModifierKind.GENERATING}

    def test_classify_against_object(self):
        o = obj("o", qprop("p", value=1))
        m = object_modifier("m", SetValue("p", 2.0))
        assert classify(m, o) == {ModifierKind.FULL}

    def test_expression_on_added_property_leaves_method_uncovered(self):
        # The expression goes to the property added first, not to method f.
        t = cls("t", meth("f"))
        m = class_modifier(
            "m",
            AddProperty(qual("f", degree=1.0)),
            SetExpression("f", parse("self.p.value > 0")),
        )
        assert classify(m, t) == {ModifierKind.PARTIAL, ModifierKind.GENERATING}

    def test_expression_after_removal_covers_method(self):
        # Once property q is gone, the expression sets method q's body.
        t = cls("t", qprop("q"), meth("q"))
        m = class_modifier("m", RemoveProperty("q"), SetExpression("q", parse("1 + 2")))
        assert classify(m, t) == {ModifierKind.FULL, ModifierKind.DESTROYING}

    @pytest.mark.parametrize(
        "m, target, message",
        [
            (class_modifier("m", RemoveProperty("p")), cls("t", qprop("p")), "empty core"),
            (
                object_modifier("m", AddProperty(qprop("q"))),
                obj("o", qprop("p", value=1)),
                "must carry a concrete value",
            ),
        ],
    )
    def test_raises_where_the_result_cannot_exist(self, m, target, message):
        apply = apply_to_class if m.target_kind == "class" else apply_to_object
        with pytest.raises(ModelError, match=message):
            apply(m, target)
        with pytest.raises(ModelError, match=message):
            classify(m, target)

    def test_inapplicable_modifier_rejected(self):
        t = cls("t", qprop("p"))
        with pytest.raises(ModifierError):
            classify(class_modifier("m", RemoveProperty("ghost")), t)

    @pytest.mark.parametrize(
        "m, node",
        [
            (object_modifier("M1", SetValue("p", 1.0)), cls("T(P)", qprop("p"))),
            (class_modifier("M2", SetValue("p", 1.0)), obj("R_1", qprop("p", value=1))),
        ],
    )
    def test_node_of_the_other_kind_raises_as_apply(self, m, node):
        apply = apply_to_class if isinstance(node, ClassDef) else apply_to_object
        with pytest.raises(ModifierError) as applied:
            apply(m, node)
        with pytest.raises(ModifierError) as classified:
            classify(m, node)
        assert str(classified.value) == str(applied.value)


class TestCompose:
    def test_application_order(self, polygons):
        tr = polygons.find_class("T(R)")
        m2 = polygons.find_modifier("M2(T(R))")
        m1 = polygons.find_modifier("M1(T(S))")
        round_trip = compose(m2, m1)
        assert classes_member_equivalent(apply_to_class(round_trip, tr), tr)

    def test_associative(self):
        a = class_modifier("a", AddProperty(qprop("x", "cm")))
        b = class_modifier("b", SetValue("x", 1.0))
        c = class_modifier("c", RemoveProperty("x"))
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        assert left.edits == right.edits

    def test_kinds_accumulate(self):
        t = cls("t", qprop("p"))
        add = class_modifier("a", AddProperty(qprop("q", "kg")))
        remove = class_modifier("r", RemoveProperty("p"))
        kinds = classify(compose(add, remove), t)
        assert ModifierKind.GENERATING in kinds
        assert ModifierKind.DESTROYING in kinds

    def test_mixed_targets_rejected(self):
        a = class_modifier("a", SetValue("p", 1.0))
        b = object_modifier("b", SetValue("p", 1.0))
        with pytest.raises(ModifierError, match="mixed target kinds"):
            compose(a, b)

    def test_default_name(self):
        a = class_modifier("a", SetValue("p", 1.0))
        b = class_modifier("b", SetValue("p", 2.0))
        assert compose(a, b).name == "compose(a,b)"
