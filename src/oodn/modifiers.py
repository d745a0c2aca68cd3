"""Modifiers: ordered lists of primitive edits, effect-derived kind
classification, composition, and application to objects and classes.

Classification is target-relative: the same edit list can be full on a
small class and partial on a larger one.  Coverage is the set of
pre-existing members that the edits find by name, each in the list
(properties or methods) where that edit applies; the modifier is full
when coverage holds every member of the target and partial otherwise.
Pure additions find nothing, so they classify as partial.  Classifying
raises exactly where applying does, also on a node of the other kind.
"""

from __future__ import annotations

import dataclasses
from enum import Enum
from typing import Union

from .errors import OodnError
from .expr import Expr, _frozen
from .model import (
    ClassDef,
    Core,
    Method,
    ObjectInstance,
    Property,
    QualitativeProperty,
    QuantitativeProperty,
    Signature,
    Specification,
    coerce_value,
    require_homogeneous,
)


class ModifierError(OodnError):
    """Inapplicable edit or malformed modifier."""


# --- primitive edits ---------------------------------------------------------


@_frozen
class SetValue:
    property_name: str
    value: float | tuple

    def __post_init__(self):
        object.__setattr__(self, "value", coerce_value(self.value))


@_frozen
class SetUnits:
    property_name: str
    units: str


@_frozen
class SetExpression:
    property_name: str
    expression: Expr


@_frozen
class AddProperty:
    prop: Property


@_frozen
class RemoveProperty:
    property_name: str


@_frozen
class ReplaceProperty:
    property_name: str
    replacement: Property


@_frozen
class AddMethod:
    method: Method


@_frozen
class RemoveMethod:
    method_name: str


@_frozen
class ReplaceMethod:
    method_name: str
    replacement: Method


ModificationFunction = Union[
    SetValue,
    SetUnits,
    SetExpression,
    AddProperty,
    RemoveProperty,
    ReplaceProperty,
    AddMethod,
    RemoveMethod,
    ReplaceMethod,
]

OBJECT = "object"
CLASS = "class"


@_frozen
class Modifier:
    name: str
    target_kind: str  # "object" | "class"
    edits: tuple = ()

    def __post_init__(self):
        if not self.name:
            raise ModifierError("modifier name must be nonempty")
        if self.target_kind not in (OBJECT, CLASS):
            raise ModifierError(
                f"modifier {self.name!r}: target kind must be 'object' or 'class'"
            )
        object.__setattr__(self, "edits", tuple(self.edits))
        if not self.edits:
            raise ModifierError(f"modifier {self.name!r}: edit list must be nonempty")


class ModifierKind(Enum):
    FULL = "full"
    PARTIAL = "partial"
    GENERATING = "generating"
    DESTROYING = "destroying"
    COMMUTABLE = "commutable"


# --- edit application --------------------------------------------------------

_METHOD_EDITS = (AddMethod, RemoveMethod, ReplaceMethod)


def _apply_edits(m: Modifier, t, source) -> tuple[ClassDef | ObjectInstance, set]:
    """`t` rebuilt with `m`'s edits run in order on copies of the property
    and method lists of `source` (a class's core, or an object itself).
    Also returns the (kind, name) of each member an edit found by name,
    with kind "property" or "method" for the list the edit applied to."""
    lists = {"property": list(source.specification), "method": list(source.signature)}
    found = set()
    who = f"modifier {m.name!r}"

    def index(kind: str, name: str) -> int:
        for i, x in enumerate(lists[kind]):
            if x.name == name:
                found.add((kind, name))
                return i
        raise ModifierError(f"{who}: no {kind} named {name!r}")

    def vacant(kind: str, name: str) -> None:
        if any(x.name == name for x in lists[kind]):
            raise ModifierError(f"{who}: {kind} {name!r} already exists")

    for edit in m.edits:
        kind = "method" if isinstance(edit, _METHOD_EDITS) else "property"
        members = lists[kind]
        match edit:
            case SetValue(name, _) | SetUnits(name, _):
                i = index(kind, name)
                if not isinstance(members[i], QuantitativeProperty):
                    raise ModifierError(f"{who}: property {name!r} is not quantitative")
                field = "value" if isinstance(edit, SetValue) else "units"
                members[i] = dataclasses.replace(members[i], **{field: getattr(edit, field)})
            case SetExpression(name, expression):
                # Targets a qualitative property's verification, or (when no such
                # property exists) a method's body.
                if not any(p.name == name for p in members):
                    kind, members = "method", lists["method"]
                i = index(kind, name)
                if kind == "method":
                    members[i] = dataclasses.replace(members[i], body=expression)
                elif isinstance(members[i], QualitativeProperty):
                    members[i] = dataclasses.replace(members[i], verification=expression)
                else:
                    raise ModifierError(f"{who}: property {name!r} is not qualitative")
            case AddProperty(new) | AddMethod(new):
                vacant(kind, new.name)
                members.append(new)
            case RemoveProperty(name) | RemoveMethod(name):
                del members[index(kind, name)]
            case ReplaceProperty(name, new) | ReplaceMethod(name, new):
                i = index(kind, name)
                if new.name != name:
                    vacant(kind, new.name)
                members[i] = new
            case _:
                raise ModifierError(f"{who}: unknown edit {edit!r}")
    spec, sig = Specification(tuple(lists["property"])), Signature(tuple(lists["method"]))
    if isinstance(t, ClassDef):
        return ClassDef(name=t.name, core=Core(spec, sig)), found
    return dataclasses.replace(t, specification=spec, signature=sig), found


_NODE_TYPES = {CLASS: ClassDef, OBJECT: ObjectInstance}


def _edited_members(m: Modifier, t, kind: str, context: str) -> Core | ObjectInstance:
    """The members `m`'s edits run on in `t`: a class's core, or an object
    itself.  Raises a `ModifierError` unless `m` targets `kind` and `t` is
    a node of that kind, and the `ModelError` that names `context` when a
    class `t` is not core-only."""
    if m.target_kind != kind or not isinstance(t, _NODE_TYPES[kind]):
        if m.target_kind == OBJECT:
            raise ModifierError(f"modifier {m.name!r} targets objects, not classes")
        raise ModifierError(f"modifier {m.name!r} targets classes, not objects")
    return t if kind == OBJECT else require_homogeneous(t, context)


def apply_to_class(m: Modifier, t: ClassDef) -> ClassDef:
    """Apply a class modifier to a copy of `t`; `t` itself is unchanged."""
    return _apply_edits(m, t, _edited_members(m, t, CLASS, f"modifier {m.name!r}"))[0]


def apply_to_object(m: Modifier, o: ObjectInstance) -> ObjectInstance:
    """Apply an object modifier to a copy of `o`; the caller may remap the
    identifier afterwards."""
    return _apply_edits(m, o, _edited_members(m, o, OBJECT, f"modifier {m.name!r}"))[0]


# --- classification ----------------------------------------------------------


def classify(m: Modifier, target) -> frozenset:
    """Effect-derived kind set against a concrete target: full when the
    edits find every pre-existing member, partial otherwise, plus
    generating / destroying / commutable per the edit primitives used.
    Raises where applying `m` to `target` raises: when `target` is not a
    node of `m`'s target kind, when an edit does not apply, or when the
    modified node cannot exist."""
    members = _edited_members(m, target, m.target_kind, "classify")
    _, found = _apply_edits(m, target, members)
    original = {("property", name) for name in members.specification.names}
    original |= {("method", name) for name in members.signature.names}
    kinds = {ModifierKind.FULL if original and original <= found else ModifierKind.PARTIAL}
    for edit in m.edits:
        if isinstance(edit, (AddProperty, AddMethod)):
            kinds.add(ModifierKind.GENERATING)
        elif isinstance(edit, (RemoveProperty, RemoveMethod)):
            kinds.add(ModifierKind.DESTROYING)
        elif isinstance(edit, (ReplaceProperty, ReplaceMethod)):
            kinds.add(ModifierKind.COMMUTABLE)
    return frozenset(kinds)


def compose(first: Modifier, second: Modifier) -> Modifier:
    """Concatenate edit lists; application runs `first` then `second`."""
    if first.target_kind != second.target_kind:
        raise ModifierError(
            f"cannot compose {first.name!r} with {second.name!r}: "
            "mixed target kinds"
        )
    return Modifier(
        name=f"compose({first.name},{second.name})",
        target_kind=first.target_kind,
        edits=first.edits + second.edits,
    )
