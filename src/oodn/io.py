"""Canonical JSON persistence (`.oodn.json`) and DOT graph export.

The document is a direct textual image of a network: named top-level
collections, expressions embedded as grammar text, degrees as numbers.
Serialization is deterministic (collections sorted), so equal networks
produce identical bytes.  Schema reference: docs/format.md.
"""

from __future__ import annotations

import dataclasses
import json
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .errors import OodnError
from .expr import ExprError, parse, print_expr
from .model import (
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
from .modifiers import (
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
from .network import (
    EXPLOITER_NAMES,
    OBJECT,
    Network,
    NetworkError,
    NodeRef,
    Relation,
)

FORMAT = "oodn/1"
_NULL = type(None)  # in the types `_get` takes: the field may be null


class LoadError(OodnError):
    """Schema violation; the message carries a path into the document."""

    def __init__(self, message: str, path: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def _expect(value, type_, path: str, what: str):
    if not isinstance(value, type_) or type(value) is bool:
        raise LoadError(f"expected {what}", path)
    return value


def _get(obj: dict, key: str, type_, path: str, what: str, default=_expect):
    """`obj[key]` as `_expect` checks it, or `default` if given where `key`
    is missing.  The error path `path.key` is built only when raising."""
    if key not in obj:
        if default is not _expect:
            return default
        raise LoadError(f"missing required key {key!r}", path)
    value = obj[key]
    if not isinstance(value, type_) or type(value) is bool:
        raise LoadError(f"expected {what}", f"{path}.{key}")
    return value


def _parse_expr(text: str, path: str, key: str, trees: dict):
    """The tree of `text` at `path.key`, parsed once per load: `trees`
    maps each source parsed so far in this `load_text` call to its tree,
    and is also the `parse` leaf table, whose keys are tuples.  Trees are
    frozen, so members with the same source share one, and trees share leaves."""
    tree = trees.get(text)
    if tree is None:
        try:
            tree = trees[text] = parse(text, trees)
        except ExprError as exc:
            raise LoadError(f"bad expression: {exc}", f"{path}.{key}") from exc
    return tree


def _wrap(path: str, fn, *args):
    """`fn(*args)`, each failed check in it (a sort check too) a `LoadError` at `path`."""
    try:
        return fn(*args)
    except (ModelError, ModifierError, NetworkError, ExprError) as exc:
        raise LoadError(str(exc), path) from exc


# --- loading -----------------------------------------------------------------


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
                if type(v) is not float and type(v) is not int:
                    raise LoadError("expected a number", f"{path}.value[{i}]")
        return _wrap(path, QuantitativeProperty, name, units, value)
    if kind == "qualitative":
        verification = _get(doc, "verification", (str, _NULL), path, "a string", None)
        if verification is not None:
            verification = _parse_expr(verification, path, "verification", trees)
        degree = _get(doc, "degree", (int, float, _NULL), path, "a number", None)
        return _wrap(path, QualitativeProperty, name, verification, degree)
    raise LoadError(f"unknown property kind {kind!r}", f"{path}.kind")


def _load_method(doc, path: str, trees: dict):
    _expect(doc, dict, path, "a method object")
    name = _get(doc, "name", str, path, "a string")
    params = _get(doc, "parameters", list, path, "a list of strings", default=[])
    for i, p in enumerate(params):
        if type(p) is not str:
            raise LoadError("expected a string", f"{path}.parameters[{i}]")
    body = _get(doc, "body", (str, _NULL), path, "a string", None)
    if body is not None:
        body = _parse_expr(body, path, "body", trees)
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
    core_doc = _get(doc, "core", (dict, _NULL), path, "an object", None)
    core = None
    if core_doc is not None:
        core = Core(*_load_members(core_doc, f"{path}.core", trees))
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


def load_file(path) -> Network:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise LoadError(f"not UTF-8 text ({exc.reason} at byte {exc.start})", str(path)) from exc
    return load_text(text)


# --- saving ------------------------------------------------------------------
#
# Each `*_to_json` builds the JSON value of one part.  `texts` maps the
# identity of each tree printed so far in one `save_text` call to its text:
# the network being saved holds every tree until the call returns, so no
# identity is reused while the map lives, and the map dies with the call.


def _print_expr(e, texts: dict) -> str:
    """`print_expr(e)`, printed once per save for each tree."""
    text = texts.get(id(e))
    if text is None:
        text = texts[id(e)] = print_expr(e)
    return text


def _value_to_json(value):
    if isinstance(value, tuple):
        return list(value)
    return value


def _property_to_json(p, texts: dict):
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
        "verification": _print_expr(p.verification, texts) if p.verification else None,
        "degree": p.degree,
    }


def _method_to_json(m: Method, texts: dict):
    return {
        "name": m.name,
        "parameters": list(m.parameters),
        "body": _print_expr(m.body, texts) if m.body else None,
    }


def _members_to_json(spec, sig, texts: dict):
    return {
        "properties": [_property_to_json(p, texts) for p in spec],
        "methods": [_method_to_json(m, texts) for m in sig],
    }


def _class_to_json(t: ClassDef, texts: dict):
    doc = {"name": t.name, "core": None, "projections": []}
    if t.core is not None:
        doc["core"] = _members_to_json(t.core.specification, t.core.signature, texts)
    for pr in t.projections:
        entry = {"source": pr.source_label}
        entry.update(_members_to_json(pr.specification, pr.signature, texts))
        doc["projections"].append(entry)
    return doc


def _object_to_json(o: ObjectInstance, texts: dict):
    doc = {"identifier": o.identifier, "cloneIndex": o.clone_index}
    doc.update(_members_to_json(o.specification, o.signature, texts))
    return doc


# --- edits -------------------------------------------------------------------
#
# A field codec is a (load, save) pair: load(edit doc, JSON key, edit path,
# trees) reads one field, save(field, texts) writes it back.


def _load_set_value(doc, key: str, path: str, trees: dict):
    value = doc.get(key)
    if value is None:
        raise LoadError("expected a number or a list of numbers", f"{path}.{key}")
    return _wrap(f"{path}.{key}", coerce_value, value)


_STRING = (
    lambda doc, key, path, trees: _get(doc, key, str, path, "a string"),
    lambda s, texts: s,
)
_VALUE = (_load_set_value, lambda value, texts: _value_to_json(value))
_EXPRESSION = (
    lambda doc, key, path, trees: _parse_expr(
        _get(doc, key, str, path, "a string"), path, key, trees
    ),
    _print_expr,
)
_PROPERTY = (
    lambda doc, key, path, trees: _load_property(doc.get(key), f"{path}.{key}", trees),
    _property_to_json,
)
_METHOD = (
    lambda doc, key, path, trees: _load_method(doc.get(key), f"{path}.{key}", trees),
    _method_to_json,
)

# JSON `edit` tag -> (edit class, (JSON key, field codec) per class field, in order).
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
_EDIT_TAGS = {cls: tag for tag, (cls, _) in _EDITS.items()}


def _load_edit(doc, path: str, trees: dict):
    _expect(doc, dict, path, "an edit object")
    kind = _get(doc, "edit", str, path, "a string")
    if kind not in _EDITS:
        raise LoadError(f"unknown edit kind {kind!r}", f"{path}.edit")
    cls, fields = _EDITS[kind]
    return cls(*(load(doc, key, path, trees) for key, (load, _) in fields))


def _edit_to_json(edit, texts: dict):
    tag = _EDIT_TAGS.get(type(edit))
    if tag is None:
        raise TypeError(f"unknown edit {edit!r}")
    _, fields = _EDITS[tag]
    doc = {"edit": tag}
    for (key, (_, save)), f in zip(fields, dataclasses.fields(edit)):
        doc[key] = save(getattr(edit, f.name), texts)
    return doc


def _modifier_to_json(m: Modifier, texts: dict):
    return {
        "name": m.name,
        "target": m.target_kind,
        "edits": [_edit_to_json(e, texts) for e in m.edits],
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


# --- writing -----------------------------------------------------------------


def _write(value, indent: str, write) -> None:
    """Write the text of a JSON value in pieces with `write`, byte for
    byte as `json.dumps(value, indent=2, sort_keys=True)` writes it.

    `indent` is a newline and the indentation of the line on which `value`
    starts.  A saved document holds only dicts with string keys, lists,
    strings, ints, floats (finite: the model admits no other), bools and
    None, and the writer refuses every other type.  Written directly, they
    skip the checks and dispatch of the general `json` encoder, which with
    `indent` is pure Python."""
    t = type(value)
    if t is str:
        write(encode_basestring_ascii(value))
    elif t is dict:
        if not value:
            write("{}")
            return
        inner = indent + "  "
        sep = "{" + inner
        for key in sorted(value):
            write(sep + encode_basestring_ascii(key) + ": ")
            _write(value[key], inner, write)
            sep = "," + inner
        write(indent + "}")
    elif t is list:
        if not value:
            write("[]")
            return
        inner = indent + "  "
        sep = "[" + inner
        for item in value:
            write(sep)
            _write(item, inner, write)
            sep = "," + inner
        write(indent + "]")
    elif t is float:
        write(float.__repr__(value))
    elif t is int:
        write(int.__repr__(value))
    elif value is None:
        write("null")
    elif value is True:
        write("true")
    elif value is False:
        write("false")
    else:
        raise TypeError(f"not a JSON value of a saved document: {value!r}")


def _dumps(value) -> str:
    """`json.dumps(value, indent=2, sort_keys=True)`, for the values
    `_write` takes."""
    pieces = []
    _write(value, "\n", pieces.append)
    return "".join(pieces)


def save_text(n: Network) -> str:
    """Deterministic serialization: collections sorted, stable key order;
    load_text(save_text(n)) reproduces n member-for-member.  Each tree is
    printed once, however many members share it."""
    texts = {}  # id(tree) -> printed text, for this call only
    doc = {
        "format": FORMAT,
        "classes": [
            _class_to_json(t, texts) for t in sorted(n.classes, key=lambda t: t.name)
        ],
        "objects": [
            _object_to_json(o, texts)
            for o in sorted(n.objects, key=lambda o: (o.identifier, o.clone_index))
        ],
        "modifiers": [
            _modifier_to_json(m, texts) for m in sorted(n.modifiers, key=lambda m: m.name)
        ],
        "relations": [
            _relation_to_json(r) for r in sorted(n.relations, key=Relation.sort_key)
        ],
        "exploiters": sorted(n.exploiters),
    }
    return _dumps(doc) + "\n"


def save_file(n: Network, path) -> None:
    Path(path).write_text(save_text(n), encoding="utf-8")


# --- DOT export --------------------------------------------------------------


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(n: Network) -> str:
    """DOT digraph: classes as boxes, objects as ellipses, edges labeled
    with their relation kind.  Recorded exploiter edges (operand-of /
    result-of) are dashed, mirroring operations whose results do not
    always exist."""
    lines = ["digraph oodn {"]
    for t in sorted(n.classes, key=lambda t: t.name):
        lines.append(f"  {_dot_quote(t.name)} [shape=box];")
    for o in sorted(n.objects, key=lambda o: (o.identifier, o.clone_index)):
        lines.append(f"  {_dot_quote(o.node_name)} [shape=ellipse];")
    for r in sorted(n.relations, key=Relation.sort_key):
        attrs = f"label={_dot_quote(r.kind)}"
        if r.provenance == "recorded" and r.kind in ("operand-of", "result-of"):
            attrs += " style=dashed"
        lines.append(
            f"  {_dot_quote(r.source.display)} -> {_dot_quote(r.target.display)} [{attrs}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
