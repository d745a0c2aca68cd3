"""Mutated documents either fail to load with a `LoadError` or re-save
byte for byte.

Hypothesis mutates the JSON of both fixtures, and of `polygons` after
inference: it deletes keys and list items, swaps a value for one of
another type, nests a value in a list or an object, puts huge, negative
or non-finite numbers where numbers stand, and renames nodes to names
that other kinds of node already use.  Any exception other than
`LoadError` fails the test.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from oodn import LoadError, fixture_text, load_text, save_text, with_inferred

_DOCUMENTS = (
    fixture_text("figures.oodn.json"),
    fixture_text("polygons.oodn.json"),
    save_text(with_inferred(load_text(fixture_text("polygons.oodn.json")))),
)

_NUMBERS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([10**400, -(10**400), 10**308 * 2, -1.5, 1e308, 2**63]),
    st.floats(allow_nan=True, allow_infinity=True),
)
_VALUES = st.one_of(
    _NUMBERS,
    st.none(),
    st.booleans(),
    st.text(max_size=4),
    st.sampled_from(["x + 1", "self.side_count.value", "T(R)", "R_1#1", "quantitative"]),
    st.just([]),
    st.just({}),
)


def _paths(node, path=()):
    """The path of every value inside `node`, as (key or index, ...)."""
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, path + (key,))


def _names(doc) -> list:
    """Every class, object (as displayed) and modifier name in `doc`."""
    names = [c["name"] for c in doc.get("classes", [])]
    names += [m["name"] for m in doc.get("modifiers", [])]
    for o in doc.get("objects", []):
        k = o.get("cloneIndex", 0)
        names.append(f"{o['identifier']}#{k}" if k else o["identifier"])
    return names


_NAMES = sorted({name for text in _DOCUMENTS for name in _names(json.loads(text))})


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutate(data, doc) -> None:
    paths = list(_paths(doc))
    kind = data.draw(st.sampled_from(["delete", "replace", "nest", "number", "rename"]))
    if kind == "number":
        paths = [
            p for p in paths
            if isinstance(_at(doc, p), (int, float)) and not isinstance(_at(doc, p), bool)
        ] or paths
    elif kind == "rename":
        paths = [p for p in paths if p[-1] in ("name", "identifier")] or paths
    path = data.draw(st.sampled_from(paths))
    parent, key = _at(doc, path[:-1]), path[-1]
    if kind == "delete":
        del parent[key]
    elif kind == "replace":
        parent[key] = data.draw(_VALUES)
    elif kind == "nest":
        parent[key] = data.draw(st.sampled_from([[parent[key]], {"value": parent[key]}]))
    elif kind == "number":
        parent[key] = data.draw(_NUMBERS)
    else:
        parent[key] = data.draw(st.sampled_from(_NAMES))


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(_DOCUMENTS), st.integers(1, 3))
def test_mutants_load_or_fail_with_load_error(data, text, count):
    doc = json.loads(text)
    for _ in range(count):
        _mutate(data, doc)
    try:
        n = load_text(json.dumps(doc))
    except LoadError:
        return
    saved = save_text(n)
    assert save_text(load_text(saved)) == saved
