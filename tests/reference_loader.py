"""A frozen copy of how `oodn.io` loaded documents before its checks
built error paths only when raising: `load_text` and every `_load_*`
function it called, with the `_get`, `_expect`, `_parse_expr` and `_wrap`
helpers and the load half of the edit codec table.

`tests/test_loader_differential.py` holds `oodn.io.load_text` to this
copy: on each document both must load networks that save to the same
bytes, or raise the same exception type with the same message.  The one
difference allowed is that this copy lets the `SortError` of an
ill-sorted verification escape bare, where the engine raises a
`LoadError` at the property's path.  Do not edit this file to follow the
engine.
"""

from __future__ import annotations

import json

from oodn.expr import ExprError, parse
from oodn.io import FORMAT, LoadError
from oodn.model import (
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
    coerce_value,
)
from oodn.modifiers import (
    AddMethod,
    AddProperty,
    Modifier,
    ModifierError,
    RemoveMethod,
    RemoveProperty,
    ReplaceMethod,
    ReplaceProperty,
    SetExpression,
    SetUnits,
    SetValue,
)
from oodn.network import EXPLOITER_NAMES, Network, NetworkError, NodeRef, Relation


def _expect(value, type_, path: str, what: str):
    if not isinstance(value, type_) or isinstance(value, bool):
        raise LoadError(f"expected {what}", path)
    return value


def _get(obj: dict, key: str, type_, path: str, what: str, default=_expect):
    if key not in obj:
        if default is not _expect:
            return default
        raise LoadError(f"missing required key {key!r}", path)
    return _expect(obj[key], type_, f"{path}.{key}", what)


def _parse_expr(text: str, path: str, trees: dict):
    """The tree of `text`, parsed once per load: `trees` maps each source
    parsed so far in this `load_text` call to its tree, and is also the
    `parse` leaf table, whose keys are tuples.  Trees are frozen, so
    members with the same source share one, and trees share leaves."""
    tree = trees.get(text)
    if tree is None:
        try:
            tree = trees[text] = parse(text, trees)
        except ExprError as exc:
            raise LoadError(f"bad expression: {exc}", path) from exc
    return tree


def _wrap(path: str, fn, *args):
    try:
        return fn(*args)
    except (ModelError, ModifierError, NetworkError) as exc:
        raise LoadError(str(exc), path) from exc


def _load_property(doc, path: str, trees: dict):
    _expect(doc, dict, path, "a property object")
    name = _get(doc, "name", str, path, "a string")
    kind = _get(doc, "kind", str, path, "a string")
    if kind == "quantitative":
        units = _get(doc, "units", str, path, "a string")
        value = doc.get("value")
        if value is not None and not isinstance(value, (int, float, list)):
            raise LoadError("expected a number, a list of numbers, or null", f"{path}.value")
        if isinstance(value, list):
            for i, v in enumerate(value):
                _expect(v, (int, float), f"{path}.value[{i}]", "a number")
        return _wrap(path, QuantitativeProperty, name, units, value)
    if kind == "qualitative":
        verification = doc.get("verification")
        if verification is not None:
            verification = _parse_expr(
                _expect(verification, str, f"{path}.verification", "a string"),
                f"{path}.verification",
                trees,
            )
        degree = doc.get("degree")
        if degree is not None:
            _expect(degree, (int, float), f"{path}.degree", "a number")
        return _wrap(path, QualitativeProperty, name, verification, degree)
    raise LoadError(f"unknown property kind {kind!r}", f"{path}.kind")


def _load_method(doc, path: str, trees: dict):
    _expect(doc, dict, path, "a method object")
    name = _get(doc, "name", str, path, "a string")
    params = _get(doc, "parameters", list, path, "a list of strings", default=[])
    for i, p in enumerate(params):
        _expect(p, str, f"{path}.parameters[{i}]", "a string")
    body = doc.get("body")
    if body is not None:
        body = _parse_expr(_expect(body, str, f"{path}.body", "a string"), f"{path}.body", trees)
    return _wrap(path, Method, name, tuple(params), body)


def _load_members(doc, path: str, trees: dict):
    props = _get(doc, "properties", list, path, "a list", default=[])
    methods = _get(doc, "methods", list, path, "a list", default=[])
    spec = _wrap(
        f"{path}.properties",
        Specification,
        tuple(
            _load_property(p, f"{path}.properties[{i}]", trees) for i, p in enumerate(props)
        ),
    )
    sig = _wrap(
        f"{path}.methods",
        Signature,
        tuple(_load_method(m, f"{path}.methods[{i}]", trees) for i, m in enumerate(methods)),
    )
    return spec, sig


def _load_class(doc, path: str, trees: dict) -> ClassDef:
    _expect(doc, dict, path, "a class object")
    name = _get(doc, "name", str, path, "a string")
    core_doc = doc.get("core")
    core = None
    if core_doc is not None:
        spec, sig = _load_members(
            _expect(core_doc, dict, f"{path}.core", "an object"), f"{path}.core", trees
        )
        core = Core(spec, sig)
    projections = []
    for i, pr in enumerate(_get(doc, "projections", list, path, "a list", default=[])):
        pr_path = f"{path}.projections[{i}]"
        _expect(pr, dict, pr_path, "a projection object")
        label = _get(pr, "source", str, pr_path, "a string")
        spec, sig = _load_members(pr, pr_path, trees)
        projections.append(_wrap(pr_path, Projection, label, spec, sig))
    return _wrap(path, ClassDef, name, core, tuple(projections))


def _load_object(doc, path: str, trees: dict) -> ObjectInstance:
    _expect(doc, dict, path, "an object")
    identifier = _get(doc, "identifier", str, path, "a string")
    clone_index = _get(doc, "cloneIndex", int, path, "an integer", default=0)
    spec, sig = _load_members(doc, path, trees)
    return _wrap(path, ObjectInstance, identifier, spec, sig, clone_index)


def _load_modifier(doc, path: str, trees: dict) -> Modifier:
    _expect(doc, dict, path, "a modifier object")
    name = _get(doc, "name", str, path, "a string")
    target = _get(doc, "target", str, path, "a string")
    edits = _get(doc, "edits", list, path, "a list")
    loaded = tuple(_load_edit(e, f"{path}.edits[{i}]", trees) for i, e in enumerate(edits))
    return _wrap(path, Modifier, name, target, loaded)


def _load_node_ref(doc, path: str, refs: dict) -> NodeRef:
    """The ref `doc` names, shared by every endpoint naming it in this load."""
    _expect(doc, dict, path, "a node reference")
    kind = _get(doc, "kind", str, path, "a string")
    name = _get(doc, "name", str, path, "a string")
    clone_index = _get(doc, "cloneIndex", int, path, "an integer", default=0)
    key = (kind, name, clone_index)
    ref = refs.get(key)
    if ref is None:
        ref = refs[key] = _wrap(path, NodeRef, kind, name, clone_index)
    return ref


def _load_relation(doc, path: str, refs: dict) -> Relation:
    _expect(doc, dict, path, "a relation object")
    return _wrap(
        path,
        Relation,
        _load_node_ref(doc.get("from"), f"{path}.from", refs),
        _load_node_ref(doc.get("to"), f"{path}.to", refs),
        _get(doc, "relation", str, path, "a string"),
        _get(doc, "provenance", str, path, "a string", default="declared"),
    )


def load_text(text: str) -> Network:
    """Parse a network document; every expression is parsed and every
    network invariant validated before the network is returned.  Each
    distinct expression source is parsed once, and its tree shared."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also too many digits, too deep
        raise LoadError(f"not valid JSON: {exc}", "$") from exc
    _expect(doc, dict, "$", "a JSON object")
    fmt = _get(doc, "format", str, "$", "a string")
    if fmt != FORMAT:
        raise LoadError(f"unsupported format {fmt!r} (expected {FORMAT!r})", "$.format")

    trees = {}  # expression source -> tree, and leaf key -> leaf, for this call only
    classes = tuple(
        _load_class(c, f"$.classes[{i}]", trees)
        for i, c in enumerate(_get(doc, "classes", list, "$", "a list", default=[]))
    )
    objects = tuple(
        _load_object(o, f"$.objects[{i}]", trees)
        for i, o in enumerate(_get(doc, "objects", list, "$", "a list", default=[]))
    )
    modifiers = tuple(
        _load_modifier(m, f"$.modifiers[{i}]", trees)
        for i, m in enumerate(_get(doc, "modifiers", list, "$", "a list", default=[]))
    )
    refs = {}  # (kind, name, clone index) -> ref, for this call only
    relations = tuple(
        _load_relation(r, f"$.relations[{i}]", refs)
        for i, r in enumerate(_get(doc, "relations", list, "$", "a list", default=[]))
    )
    exploiters = _get(doc, "exploiters", list, "$", "a list", default=None)
    if exploiters is None:
        enabled = EXPLOITER_NAMES
    else:
        for i, e in enumerate(exploiters):
            _expect(e, str, f"$.exploiters[{i}]", "a string")
        enabled = frozenset(exploiters)
    return _wrap("$", Network, objects, classes, relations, enabled, modifiers)


def _load_set_value(doc, key: str, path: str, trees: dict):
    value = doc.get(key)
    if value is None:
        raise LoadError("expected a number or a list of numbers", f"{path}.{key}")
    return _wrap(f"{path}.{key}", coerce_value, value)


# The load half of each field codec; this copy saves nothing.
_STRING = lambda doc, key, path, trees: _get(doc, key, str, path, "a string")  # noqa: E731
_VALUE = _load_set_value
_EXPRESSION = lambda doc, key, path, trees: _parse_expr(  # noqa: E731
    _get(doc, key, str, path, "a string"), f"{path}.{key}", trees
)
_PROPERTY = lambda doc, key, path, trees: _load_property(  # noqa: E731
    doc.get(key), f"{path}.{key}", trees
)
_METHOD = lambda doc, key, path, trees: _load_method(  # noqa: E731
    doc.get(key), f"{path}.{key}", trees
)

# JSON `edit` tag -> (edit class, (JSON key, field loader) per class field, in order).
_EDITS = {
    "setValue": (SetValue, (("property", _STRING), ("value", _VALUE))),
    "setUnits": (SetUnits, (("property", _STRING), ("units", _STRING))),
    "setExpression": (SetExpression, (("property", _STRING), ("expression", _EXPRESSION))),
    "addProperty": (AddProperty, (("propertyDef", _PROPERTY),)),
    "removeProperty": (RemoveProperty, (("property", _STRING),)),
    "replaceProperty": (ReplaceProperty, (("property", _STRING), ("propertyDef", _PROPERTY))),
    "addMethod": (AddMethod, (("methodDef", _METHOD),)),
    "removeMethod": (RemoveMethod, (("method", _STRING),)),
    "replaceMethod": (ReplaceMethod, (("method", _STRING), ("methodDef", _METHOD))),
}


def _load_edit(doc, path: str, trees: dict):
    _expect(doc, dict, path, "an edit object")
    kind = _get(doc, "edit", str, path, "a string")
    if kind not in _EDITS:
        raise LoadError(f"unknown edit kind {kind!r}", f"{path}.edit")
    cls, fields = _EDITS[kind]
    return cls(*(load(doc, key, path, trees) for key, load in fields))
