"""`oodn.io.load_text` against the frozen reference loader.

Seeded mutants of both fixtures, and of `polygons` after inference (for
its relations), each change one thing: a field of the wrong type, a
missing key, a bad expression or an ill-sorted one.  On each, both
loaders must load networks that save to the same bytes, or raise the
same exception type with the same message.  Two differences are allowed,
and asserted.  On an ill-sorted verification the reference lets its
`SortError` escape, and the engine raises a `LoadError` at the path of
the property, the same message after the path.  On a bool property
`value` the reference reports `expected a number, got True` at the
property, and the engine reports it at the value with the message every
other non-number gets.
"""

from __future__ import annotations

import copy
import json
import random

import pytest

from oodn import LoadError, fixture_text, load_text, save_text, with_inferred
from oodn.expr import SortError

from . import reference_loader

_DOCUMENTS = {
    "figures": fixture_text("figures.oodn.json"),
    "polygons": fixture_text("polygons.oodn.json"),
    "polygons-inferred": save_text(with_inferred(load_text(fixture_text("polygons.oodn.json")))),
}
_WRONG = [None, True, 0, -2, 2.5, 10**400, "", "x", "quantitative", [], [1], ["x"], {}, {"a": 1}]
_EXPRESSION_KEYS = ("verification", "body", "expression")
_BAD = [
    "", "1 +", "(x", "x @ y", "self.p.size", "self.p", "median(x)", "1e400", "sum(x, y)",
    "x < y < z", "not", "if x then y", "x y", '"open',
]
_ILL_SORTED = [
    '"a" + 1 > 0', '"a" < "b"', "sum(x) > 0", "if 2 then 1 else 0", "not 3",
    "self.p.units * 2 > 0", '0.5 and "t"', "if 1 then 0.5 else \"t\"",
]
_MUTANTS = 60  # per document and kind


def _paths(node, path=()):
    """The path of every value inside `node`, as (key or index, ...)."""
    for key, child in node.items() if isinstance(node, dict) else enumerate(node):
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, path + (key,))


def _json_path(path) -> str:
    return "$" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)


def _mutant(rng: random.Random, doc: dict, kind: str):
    """A copy of `doc` with one change of `kind`, and the path it changed."""
    doc = copy.deepcopy(doc)
    paths = list(_paths(doc))
    if kind == "missing":
        path = rng.choice([p for p in paths if isinstance(p[-1], str)])
    elif kind == "wrong":
        path = rng.choice(paths)
    else:
        path = rng.choice([p for p in paths if p[-1] in _EXPRESSION_KEYS])
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    old = parent[path[-1]]
    if kind == "missing":
        del parent[path[-1]]
    elif kind == "wrong":
        parent[path[-1]] = rng.choice([v for v in _WRONG if type(v) is not type(old)])
    else:
        parent[path[-1]] = rng.choice(_BAD if kind == "bad" else _ILL_SORTED)
    return json.dumps(doc), path


def _outcome(load, text: str):
    try:
        return "saved", save_text(load(text))
    except Exception as exc:  # compared with the other loader's outcome
        return type(exc), str(exc)


def _bool_value(reference, path) -> bool:
    """Whether the reference failed on a bool property `value` at `path`."""
    prop = _json_path(path[:-1])
    return path[-1] == "value" and reference == (LoadError, f"{prop}: expected a number, got True")


def _bool_value_error(path):
    return LoadError, f"{_json_path(path)}: expected a number, a list of numbers, or null"


@pytest.mark.parametrize("kind", ["wrong", "missing", "bad", "ill-sorted"])
@pytest.mark.parametrize("name", sorted(_DOCUMENTS))
def test_loaders_agree(name, kind):
    rng = random.Random(f"{name}/{kind}")
    doc = json.loads(_DOCUMENTS[name])
    seen = {"saved": 0, "error": 0, "sort": 0}
    for _ in range(_MUTANTS):
        text, path = _mutant(rng, doc, kind)
        engine, reference = _outcome(load_text, text), _outcome(reference_loader.load_text, text)
        if reference[0] is SortError:
            assert path[-1] == "verification", text
            prop = _json_path(path[:-1])
            assert engine == (LoadError, f"{prop}: {reference[1]}"), text
            seen["sort"] += 1
        elif _bool_value(reference, path):
            assert engine == _bool_value_error(path), text
        else:
            assert engine == reference, text
            seen["saved" if engine[0] == "saved" else "error"] += 1
    assert seen["error"] > 0
    if kind == "ill-sorted":
        assert seen["sort"] > 0
    else:
        assert seen["sort"] == 0


@pytest.mark.parametrize("name", sorted(_DOCUMENTS))
def test_bool_property_value(name):
    """Every property `value` of the document set to `true` in turn: the
    second allowed difference, on every path where it can occur."""
    doc = json.loads(_DOCUMENTS[name])
    seen = 0
    for path in (p for p in _paths(doc) if p[-1] == "value"):
        mutant = copy.deepcopy(doc)
        parent = mutant
        for key in path[:-1]:
            parent = parent[key]
        if parent.get("kind") != "quantitative":  # an edit's value
            continue
        parent["value"] = True
        text = json.dumps(mutant)
        assert _bool_value(_outcome(reference_loader.load_text, text), path), text
        assert _outcome(load_text, text) == _bool_value_error(path), text
        seen += 1
    assert seen > 0
