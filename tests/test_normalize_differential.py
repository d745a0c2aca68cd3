"""`oodn.expr.normalize` against the frozen copy in
`tests/reference_normalize.py`.

The engine computes each subtree's order key while it normalizes, where
the reference walked every commutative operand again with `_key`.  On
`tests/strategies.py` trees, well-sorted or not, and on a fixed panel, the
two must give equal normal forms, and the engine's order key must equal
the reference `_key` of that normal form.  The flag `_normalize` computes
in the same pass must say whether the normal form is `equal_up_to_order`
to the tree.  A value that is not a node, at the top or inside a tree,
raises the reference's `TypeError`.  A normal form normalizes to the very
same object, since a node whose normalized children are its own is kept.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodn.expr import Not, _normalize, equal_up_to_order, normal_form, normalize, parse

from . import reference_normalize as reference
from .strategies import expressions, unsorted_expressions

_PANEL = (
    "y + x",
    "x * 2 + 1",
    "b == a and c < d",
    "not not (x > 1)",
    "not (1 < 2)",
    "if 1 then y + x else z",
    "if x > 0 then 2 * 3 else sum(self.p.values)",
    '"kg" == self.p.units or 0.5',
    "count(self.p.values) * k / (n - 1)",
    "1e308 * 10",
    '"a" + 1',
)
_NOT_NODES = (1, None, "x", Not(1))


def _agrees(e) -> None:
    got, key, reordered_only = _normalize(e)
    assert got == reference.normalize(e), e
    assert key == reference._key(got), e
    assert normalize(e) == got
    assert reordered_only == equal_up_to_order(got, e), e


@pytest.mark.parametrize("source", _PANEL + _NOT_NODES, ids=str)
def test_panel_agrees(source):
    if source in _PANEL:
        _agrees(parse(source))
        return
    with pytest.raises(TypeError) as expected:
        reference.normalize(source)
    for f in (normalize, normal_form):
        with pytest.raises(TypeError) as got:
            f(source)
        assert str(got.value) == str(expected.value)


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(e=st.one_of(expressions(), unsorted_expressions()))
def test_random_trees_agree(e):
    _agrees(e)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(e=st.one_of(expressions(), unsorted_expressions()))
def test_normal_forms_normalize_to_themselves(e):
    n = normalize(e)
    assert normalize(n) is n
    assert normal_form(n) == (n, True)
