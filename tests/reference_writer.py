"""A frozen copy of the original document writer, for tests only.

`oodn.io.save_text` is a faster rewrite of this code: it prints each
shared tree once and writes the JSON text directly.  The differential
tests in `test_writer.py` hold the two to the same bytes.  Do not change
this file to follow the engine: it is the reference the engine is checked
against.
"""

from __future__ import annotations

import json

from oodn.model import ClassDef, Method, ObjectInstance, QuantitativeProperty
from oodn.modifiers import (
    AddMethod,
    AddProperty,
    Modifier,
    RemoveMethod,
    RemoveProperty,
    ReplaceMethod,
    ReplaceProperty,
    SetExpression,
    SetUnits,
    SetValue,
)
from oodn.network import OBJECT, Network, NodeRef, Relation

from .reference_printer import print_expr


def _value_to_json(value):
    if isinstance(value, tuple):
        return list(value)
    return value


def _property_to_json(p):
    if isinstance(p, QuantitativeProperty):
        return {
            "name": p.name,
            "kind": "quantitative",
            "units": p.units,
            "value": _value_to_json(p.value),
        }
    return {
        "name": p.name,
        "kind": "qualitative",
        "verification": print_expr(p.verification) if p.verification else None,
        "degree": p.degree,
    }


def _method_to_json(m: Method):
    return {
        "name": m.name,
        "parameters": list(m.parameters),
        "body": print_expr(m.body) if m.body else None,
    }


def _members_to_json(spec, sig):
    return {
        "properties": [_property_to_json(p) for p in spec],
        "methods": [_method_to_json(m) for m in sig],
    }


def _class_to_json(t: ClassDef):
    doc = {"name": t.name, "core": None, "projections": []}
    if t.core is not None:
        doc["core"] = _members_to_json(t.core.specification, t.core.signature)
    for pr in t.projections:
        entry = {"source": pr.source_label}
        entry.update(_members_to_json(pr.specification, pr.signature))
        doc["projections"].append(entry)
    return doc


def _object_to_json(o: ObjectInstance):
    doc = {"identifier": o.identifier, "cloneIndex": o.clone_index}
    doc.update(_members_to_json(o.specification, o.signature))
    return doc


def _edit_to_json(e):
    if isinstance(e, SetValue):
        return {"edit": "setValue", "property": e.property_name, "value": _value_to_json(e.value)}
    if isinstance(e, SetUnits):
        return {"edit": "setUnits", "property": e.property_name, "units": e.units}
    if isinstance(e, SetExpression):
        return {
            "edit": "setExpression",
            "property": e.property_name,
            "expression": print_expr(e.expression),
        }
    if isinstance(e, AddProperty):
        return {"edit": "addProperty", "propertyDef": _property_to_json(e.prop)}
    if isinstance(e, RemoveProperty):
        return {"edit": "removeProperty", "property": e.property_name}
    if isinstance(e, ReplaceProperty):
        return {
            "edit": "replaceProperty",
            "property": e.property_name,
            "propertyDef": _property_to_json(e.replacement),
        }
    if isinstance(e, AddMethod):
        return {"edit": "addMethod", "methodDef": _method_to_json(e.method)}
    if isinstance(e, RemoveMethod):
        return {"edit": "removeMethod", "method": e.method_name}
    if isinstance(e, ReplaceMethod):
        return {
            "edit": "replaceMethod",
            "method": e.method_name,
            "methodDef": _method_to_json(e.replacement),
        }
    raise TypeError(f"unknown edit {e!r}")


def _modifier_to_json(m: Modifier):
    return {
        "name": m.name,
        "target": m.target_kind,
        "edits": [_edit_to_json(e) for e in m.edits],
    }


def _node_ref_to_json(ref: NodeRef):
    doc = {"kind": ref.kind, "name": ref.name}
    if ref.kind == OBJECT:
        doc["cloneIndex"] = ref.clone_index
    return doc


def _relation_to_json(r: Relation):
    return {
        "from": _node_ref_to_json(r.source),
        "to": _node_ref_to_json(r.target),
        "relation": r.kind,
        "provenance": r.provenance,
    }


def save_text(n: Network) -> str:
    doc = {
        "format": "oodn/1",
        "classes": [_class_to_json(t) for t in sorted(n.classes, key=lambda t: t.name)],
        "objects": [
            _object_to_json(o)
            for o in sorted(n.objects, key=lambda o: (o.identifier, o.clone_index))
        ],
        "modifiers": [_modifier_to_json(m) for m in sorted(n.modifiers, key=lambda m: m.name)],
        "relations": [_relation_to_json(r) for r in sorted(n.relations, key=Relation.sort_key)],
        "exploiters": sorted(n.exploiters),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
