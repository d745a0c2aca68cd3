"""The static checks that members run on their trees, against references.

`param_refs` must give the set that a `walk` over the tree gives, and
`infer_sort` the sort, or the `SortError` with the same message and the
same offending node, that `reference_sort` gives.  `reference_sort` is the
`isinstance` chain that `infer_sort` was before it read its rules from a
table.  Both checks, and `normalize`, raise the same `TypeError` on a
non-node.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from oodn.expr import (
    Aggregate,
    Arith,
    Compare,
    Connective,
    If,
    Not,
    Num,
    ParamRef,
    PropRef,
    Sort,
    SortError,
    Text,
    infer_sort,
    normalize,
    param_refs,
    parse,
    walk,
)

from .strategies import expressions, unsorted_expressions


def _numeric(s):
    return s in (Sort.NUMBER, Sort.DEGREE)


def reference_sort(e):
    if isinstance(e, Num):
        return Sort.DEGREE if 0.0 <= e.value <= 1.0 else Sort.NUMBER
    if isinstance(e, Text):
        return Sort.TEXT
    if isinstance(e, PropRef):
        return {"units": Sort.TEXT, "values": Sort.NUMBER_LIST}.get(e.attr, Sort.NUMBER)
    if isinstance(e, ParamRef):
        return Sort.NUMBER
    if isinstance(e, Arith):
        for side in (e.left, e.right):
            if not _numeric(reference_sort(side)):
                raise SortError(f"arithmetic '{e.op}' needs numeric operands", e)
        return Sort.NUMBER
    if isinstance(e, Compare):
        ls, rs = reference_sort(e.left), reference_sort(e.right)
        if ls is Sort.TEXT and rs is Sort.TEXT:
            if e.op not in ("==", "!="):
                raise SortError(f"ordering '{e.op}' is not defined for text", e)
            return Sort.DEGREE
        if _numeric(ls) and _numeric(rs):
            return Sort.DEGREE
        raise SortError(f"comparison '{e.op}' needs two numbers or two texts", e)
    if isinstance(e, Not):
        _reference_degree(e.operand, e)
        return Sort.DEGREE
    if isinstance(e, Connective):
        _reference_degree(e.left, e)
        _reference_degree(e.right, e)
        return Sort.DEGREE
    if isinstance(e, Aggregate):
        if reference_sort(e.arg) is not Sort.NUMBER_LIST:
            raise SortError(f"{e.fn} expects a list of numbers", e)
        return Sort.DEGREE if e.fn == "all_equal" else Sort.NUMBER
    if isinstance(e, If):
        _reference_degree(e.condition, e)
        ts, os_ = reference_sort(e.then), reference_sort(e.orelse)
        if ts == os_:
            return ts
        if _numeric(ts) and _numeric(os_):
            return Sort.NUMBER
        raise SortError("if branches have incompatible sorts", e)
    raise TypeError(f"not an expression node: {e!r}")


def _reference_degree(operand, parent):
    s = reference_sort(operand)
    if s is Sort.DEGREE or (s is Sort.NUMBER and not isinstance(operand, Num)):
        return
    raise SortError("connective operand must be a degree in [0, 1]", parent)


def _outcome(fn, e):
    try:
        return ("ok", fn(e))
    except SortError as exc:
        # The offending node by identity: equal subtrees may sit apart.
        return ("SortError", str(exc), id(exc.node))


def _agree(e):
    assert _outcome(infer_sort, e) == _outcome(reference_sort, e)
    assert param_refs(e) == {n.name for n in walk(e) if isinstance(n, ParamRef)}


@settings(max_examples=400, deadline=None)
@given(e=unsorted_expressions())
def test_unsorted_trees_agree(e):
    _agree(e)


@settings(max_examples=200, deadline=None)
@given(e=expressions())
def test_well_sorted_trees_agree(e):
    _agree(e)


@pytest.mark.parametrize(
    "source",
    [
        "x + y * f",
        "sum(x) > 2",
        "if x > 0 then y else z",
        "if x then 2 else 0.5",
        'if 1 then "a" else 2',
        "not 2",
        "2 and x",
        '"a" < "b"',
        '"a" == 1',
        "self.p.units + 1",
        "self.p.units == \"cm\" and all_equal(self.p.values)",
        "count(self.p.values) * k / (n - 1)",
    ],
)
def test_panel_agrees(source):
    _agree(parse(source))


_BARE = object()


@pytest.mark.parametrize(
    "tree, bad",
    [
        pytest.param(_BARE, _BARE, id="object()"),
        ("1", "1"),
        (Arith("+", Num(1.0), 2.0), 2.0),
        (Not(Connective("and", ParamRef("x"), None)), None),
    ],
    ids=repr,
)
def test_non_node_is_a_type_error(tree, bad):
    for check in (param_refs, infer_sort, reference_sort, normalize):
        with pytest.raises(TypeError) as exc:
            check(tree)
        assert str(exc.value) == f"not an expression node: {bad!r}"
