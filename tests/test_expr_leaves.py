"""A load shares one node per distinct expression leaf: each number
literal text, property reference and parameter name is one `Num`,
`PropRef` or `ParamRef` object across all the trees of one `load_text`
call, and no two calls share a node."""

from __future__ import annotations

import dataclasses
import json

import pytest

from oodn import fixture_text, load_text, save_text, with_inferred
from oodn.expr import Num, ParamRef, PropRef, parse

from . import reference_writer

FIXTURES = ("figures.oodn.json", "polygons.oodn.json")
_LEAVES = (Num, PropRef, ParamRef)


def _leaves(value, found: list) -> list:
    """Every leaf node reachable from `value` through dataclass fields and
    tuples, once per place that holds it."""
    if isinstance(value, _LEAVES):
        found.append(value)
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        for f in dataclasses.fields(value):
            _leaves(getattr(value, f.name), found)
    elif isinstance(value, (tuple, frozenset)):
        for v in value:
            _leaves(v, found)
    return found


def _document(*bodies: str) -> str:
    """A document with one class whose methods have these bodies."""
    methods = [
        {"name": f"m{i}", "parameters": ["x", "y"], "body": body} for i, body in enumerate(bodies)
    ]
    props = [{"name": "p", "kind": "quantitative", "units": "cm", "value": None}]
    core = {"properties": props, "methods": methods}
    return json.dumps({"format": "oodn/1", "classes": [{"name": "C", "core": core}]})


def test_one_node_per_leaf_by_literal_text():
    n = load_text(
        _document("x + 1", "x * 1 + self.p.value", "1.0 + y", "y - self.p.value", "x / 1e0 - y")
    )
    m = {method.name: method.body for method in n.classes[0].core.signature}
    one, x, ref = m["m0"].right, m["m0"].left, m["m1"].right
    assert m["m1"].left.right is one and m["m1"].left.left is x
    assert m["m3"].right is ref and m["m3"].left is m["m2"].right
    # Equal numbers written differently are equal nodes, not one node.
    assert m["m2"].left == one and m["m2"].left is not one
    assert m["m4"].left.right == one and m["m4"].left.right is not one


@pytest.mark.parametrize("name", FIXTURES)
def test_a_load_shares_one_node_per_reference(name):
    leaves = _leaves(load_text(fixture_text(name)), [])
    refs = [leaf for leaf in leaves if not isinstance(leaf, Num)]
    first = {}
    for leaf in refs:
        assert first.setdefault(leaf, leaf) is leaf
    assert len(first) < len(refs)  # the fixture repeats some, so sharing shows


@pytest.mark.parametrize("name", FIXTURES)
def test_loads_share_no_leaf(name):
    text = fixture_text(name)
    a, b = (_leaves(load_text(text), []) for _ in range(2))
    assert a == b
    assert {id(leaf) for leaf in a}.isdisjoint(id(leaf) for leaf in b)


def test_parse_without_a_table_shares_nothing_across_calls():
    assert parse("x") == parse("x") and parse("x") is not parse("x")
    leaves = {}
    assert parse("x + 1", leaves).left is parse("1 - x", leaves).right
    assert all(isinstance(key, tuple) for key in leaves)


@pytest.mark.parametrize("name", FIXTURES)
def test_saved_bytes_match_the_reference_writer(name):
    n = load_text(fixture_text(name))
    assert save_text(n) == reference_writer.save_text(n)
    inferred = with_inferred(n)
    assert save_text(inferred) == reference_writer.save_text(inferred)
