"""A frozen copy of how `oodn.modifiers` ran and classified edits before
one interpreter both applied the edits and reported the members they
found: `_apply_edit`, `_apply_edits`, the two `apply_to_*` wrappers, and
`classify` with the `_target_members` and `_touched` it called.

`tests/test_modifiers_differential.py` holds the engine to this copy:
`apply_to_class` and `apply_to_object` must give equal results or the
same error message, and `classify` the same kinds on edit lists without
`SetExpression` (where this copy guessed an expression's target from the
original members, not from the member the edit reached).  Do not edit
this file to follow the engine.
"""

from __future__ import annotations

import dataclasses

from oodn.model import (
    ClassDef,
    Core,
    ObjectInstance,
    QualitativeProperty,
    QuantitativeProperty,
    Signature,
    Specification,
    require_homogeneous,
)
from oodn.modifiers import (
    CLASS,
    OBJECT,
    AddMethod,
    AddProperty,
    ModificationFunction,
    Modifier,
    ModifierError,
    ModifierKind,
    RemoveMethod,
    RemoveProperty,
    ReplaceMethod,
    ReplaceProperty,
    SetExpression,
    SetUnits,
    SetValue,
)


def _apply_edit(
    spec: list, sig: list, edit: ModificationFunction, who: str
) -> None:
    def find(members: list, name: str) -> int | None:
        return next((i for i, x in enumerate(members) if x.name == name), None)

    def index(members: list, name: str, what: str) -> int:
        i = find(members, name)
        if i is None:
            raise ModifierError(f"{who}: no {what} named {name!r}")
        return i

    if isinstance(edit, (SetValue, SetUnits)):
        i = index(spec, edit.property_name, "property")
        if not isinstance(spec[i], QuantitativeProperty):
            raise ModifierError(
                f"{who}: property {edit.property_name!r} is not quantitative"
            )
        change = {"value": edit.value} if isinstance(edit, SetValue) else {"units": edit.units}
        spec[i] = dataclasses.replace(spec[i], **change)
    elif isinstance(edit, SetExpression):
        # Targets a qualitative property's verification, or (when no such
        # property exists) a method's body.
        i = find(spec, edit.property_name)
        if i is not None:
            if not isinstance(spec[i], QualitativeProperty):
                raise ModifierError(
                    f"{who}: property {edit.property_name!r} is not qualitative"
                )
            spec[i] = dataclasses.replace(spec[i], verification=edit.expression)
        else:
            i = index(sig, edit.property_name, "method")
            sig[i] = dataclasses.replace(sig[i], body=edit.expression)
    elif isinstance(edit, AddProperty):
        if any(p.name == edit.prop.name for p in spec):
            raise ModifierError(f"{who}: property {edit.prop.name!r} already exists")
        spec.append(edit.prop)
    elif isinstance(edit, RemoveProperty):
        del spec[index(spec, edit.property_name, "property")]
    elif isinstance(edit, ReplaceProperty):
        i = index(spec, edit.property_name, "property")
        if edit.replacement.name != edit.property_name and any(
            p.name == edit.replacement.name for p in spec
        ):
            raise ModifierError(
                f"{who}: property {edit.replacement.name!r} already exists"
            )
        spec[i] = edit.replacement
    elif isinstance(edit, AddMethod):
        if any(m.name == edit.method.name for m in sig):
            raise ModifierError(f"{who}: method {edit.method.name!r} already exists")
        sig.append(edit.method)
    elif isinstance(edit, RemoveMethod):
        del sig[index(sig, edit.method_name, "method")]
    elif isinstance(edit, ReplaceMethod):
        i = index(sig, edit.method_name, "method")
        if edit.replacement.name != edit.method_name and any(
            m.name == edit.replacement.name for m in sig
        ):
            raise ModifierError(f"{who}: method {edit.replacement.name!r} already exists")
        sig[i] = edit.replacement
    else:
        raise ModifierError(f"{who}: unknown edit {edit!r}")


def _apply_edits(
    spec: Specification, sig: Signature, m: Modifier
) -> tuple[Specification, Signature]:
    props = list(spec)
    methods = list(sig)
    who = f"modifier {m.name!r}"
    for edit in m.edits:
        _apply_edit(props, methods, edit, who)
    return Specification(tuple(props)), Signature(tuple(methods))


def apply_to_class(m: Modifier, t: ClassDef) -> ClassDef:
    """Apply a class modifier to a copy of `t`; `t` itself is unchanged."""
    if m.target_kind != CLASS:
        raise ModifierError(f"modifier {m.name!r} targets objects, not classes")
    core = require_homogeneous(t, f"modifier {m.name!r}")
    spec, sig = _apply_edits(core.specification, core.signature, m)
    return ClassDef(name=t.name, core=Core(spec, sig))


def apply_to_object(m: Modifier, o: ObjectInstance) -> ObjectInstance:
    """Apply an object modifier to a copy of `o`; the caller may remap the
    identifier afterwards."""
    if m.target_kind != OBJECT:
        raise ModifierError(f"modifier {m.name!r} targets classes, not objects")
    spec, sig = _apply_edits(o.specification, o.signature, m)
    return dataclasses.replace(o, specification=spec, signature=sig)


def _target_members(target) -> tuple[Specification, Signature]:
    if isinstance(target, ClassDef):
        core = require_homogeneous(target, "classify")
        return core.specification, core.signature
    if isinstance(target, ObjectInstance):
        return target.specification, target.signature
    raise ModifierError(f"cannot classify against {target!r}")


def _touched(edit: ModificationFunction, original: set) -> tuple[str, str] | None:
    """Namespaced name of the pre-existing member an edit touches, if any."""
    if isinstance(edit, SetExpression):
        if ("p", edit.property_name) in original:
            return ("p", edit.property_name)
        return ("m", edit.property_name)
    if isinstance(edit, (SetValue, SetUnits, RemoveProperty, ReplaceProperty)):
        return ("p", edit.property_name)
    if isinstance(edit, (RemoveMethod, ReplaceMethod)):
        return ("m", edit.method_name)
    return None  # additions touch nothing pre-existing


def classify(m: Modifier, target) -> frozenset:
    """Effect-derived kind set against a concrete target.  Includes full
    or partial by coverage of pre-existing members, plus generating /
    destroying / commutable per the edit primitives used."""
    spec, sig = _target_members(target)
    # Applicability check: the edits must run cleanly in order.
    _apply_edits(spec, sig, m)

    original = {("p", p.name) for p in spec} | {("m", mm.name) for mm in sig}
    coverage = set()
    kinds = set()
    for edit in m.edits:
        touched = _touched(edit, original)
        if touched is not None and touched in original:
            coverage.add(touched)
        if isinstance(edit, (AddProperty, AddMethod)):
            kinds.add(ModifierKind.GENERATING)
        elif isinstance(edit, (RemoveProperty, RemoveMethod)):
            kinds.add(ModifierKind.DESTROYING)
        elif isinstance(edit, (ReplaceProperty, ReplaceMethod)):
            kinds.add(ModifierKind.COMMUTABLE)
    if original and coverage == original:
        kinds.add(ModifierKind.FULL)
    else:
        kinds.add(ModifierKind.PARTIAL)
    return frozenset(kinds)
