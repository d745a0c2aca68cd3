"""The contract every engine value class keeps: it is a frozen, slotted
`dataclass` whose constructor takes the parameters and defaults its
fields imply and runs its `__post_init__`.

`expr._frozen` builds each of these classes with its own `__init__`, so
this table holds one sample per class, built from keyword arguments that
leave out each `default_factory` field it can.  A value class added to
`src/oodn` without a row here fails `test_every_value_class_has_a_sample`.
"""

from __future__ import annotations

import dataclasses
import inspect
from dataclasses import MISSING, FrozenInstanceError

import pytest

from oodn import exploiters, expr, model, modifiers, network
from oodn.expr import ExprError, Num, ParamRef, PropRef
from oodn.network import NetworkError, NodeRef

_X, _Y, _Z = ParamRef("x"), ParamRef("y"), ParamRef("z")
_P = model.QuantitativeProperty("p", "cm")
_M = model.Method("m")

_SAMPLES = [
    (expr.Num, dict(value=1.0)),
    (expr.Text, dict(value="a")),
    (expr.PropRef, dict(prop="p", attr="value")),
    (expr.ParamRef, dict(name="x")),
    (expr.Arith, dict(op="+", left=_X, right=_Y)),
    (expr.Compare, dict(op="<", left=_X, right=_Y)),
    (expr.Not, dict(operand=_X)),
    (expr.Connective, dict(op="and", left=_X, right=_Y)),
    (expr.Aggregate, dict(fn="sum", arg=PropRef("p", "values"))),
    (expr.If, dict(condition=_X, then=_Y, orelse=_Z)),
    (expr.EvalContext, dict()),
    (model.QuantitativeProperty, dict(name="p", units="cm")),
    (model.QualitativeProperty, dict(name="q", degree=0.5)),
    (model.Specification, dict()),
    (model.Method, dict(name="m")),
    (model.Signature, dict()),
    (model.ObjectInstance, dict(identifier="o")),
    (model.Core, dict()),
    (model.Projection, dict(source_label="s", signature=model.Signature((_M,)))),
    (model.Projection, dict(source_label="s", specification=model.Specification((_P,)))),
    (model.ClassDef, dict(name="T", core=model.Core(model.Specification((_P,))))),
    (modifiers.SetValue, dict(property_name="p", value=1.0)),
    (modifiers.SetUnits, dict(property_name="p", units="cm")),
    (modifiers.SetExpression, dict(property_name="q", expression=Num(0.5))),
    (modifiers.AddProperty, dict(prop=_P)),
    (modifiers.RemoveProperty, dict(property_name="p")),
    (modifiers.ReplaceProperty, dict(property_name="p", replacement=_P)),
    (modifiers.AddMethod, dict(method=_M)),
    (modifiers.RemoveMethod, dict(method_name="m")),
    (modifiers.ReplaceMethod, dict(method_name="m", replacement=_M)),
    (modifiers.Modifier, dict(name="m", target_kind="class", edits=[modifiers.RemoveMethod("m")])),
    (exploiters.OperationResult, dict(reason="none")),
    (network.NodeRef, dict(kind="class", name="A")),
    (network.Relation, dict(source=NodeRef("class", "A"), target=NodeRef("class", "B"), kind="is-a")),
    (network.Network, dict()),
]


def _value_classes() -> set:
    """Every dataclass defined in an engine module."""
    return {
        value
        for module in (expr, model, modifiers, exploiters, network)
        for value in vars(module).values()
        if isinstance(value, type)
        and value.__module__ == module.__name__
        and dataclasses.is_dataclass(value)
    }


def test_every_value_class_has_a_sample():
    classes = _value_classes()
    assert len(classes) == 34
    assert {cls for cls, _ in _SAMPLES} == classes


@pytest.mark.parametrize(
    "cls, kwargs", _SAMPLES, ids=[f"{cls.__name__}-{i}" for i, (cls, _) in enumerate(_SAMPLES)]
)
def test_value_class_contract(cls, kwargs):
    params = inspect.signature(cls).parameters
    init_fields = [f for f in dataclasses.fields(cls) if f.init]
    assert list(params) == [f.name for f in init_fields]
    for f in init_fields:
        p = params[f.name]
        assert p.kind is p.POSITIONAL_OR_KEYWORD
        if f.default_factory is not MISSING:
            assert repr(p.default) == "<factory>"
        elif f.default is MISSING:
            assert p.default is p.empty
        else:
            assert p.default is f.default

    a, b = cls(**kwargs), cls(**kwargs)
    assert a == b and repr(a) == repr(b)
    assert dataclasses.replace(a) == a
    assert not hasattr(a, "__dict__")
    for f in dataclasses.fields(cls):
        value = getattr(a, f.name)  # every slot is set, `init=False` ones too
        with pytest.raises(FrozenInstanceError):
            setattr(a, f.name, value)
        if f.default_factory is not MISSING and f.name not in kwargs:
            assert value is not getattr(b, f.name)


def test_replace_runs_post_init():
    with pytest.raises(ExprError, match="a bool is not a number"):
        dataclasses.replace(Num(1.0), value=True)
    with pytest.raises(NetworkError, match="node name must be a nonempty string"):
        dataclasses.replace(NodeRef("class", "A"), name="")
