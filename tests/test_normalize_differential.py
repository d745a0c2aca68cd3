"""`oodn.expr.normalize` against the frozen copy in
`tests/reference_normalize.py`.

The engine computes each subtree's order key while it normalizes, where
the reference walked every commutative operand again with `_key`.  On
`tests/strategies.py` trees, well-sorted or not, and on a fixed panel, the
two must give equal normal forms, and the engine's order key must equal
the reference `_key` of that normal form.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodn.expr import _normalize, normalize, parse

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


def _agrees(e) -> None:
    got, key = _normalize(e)
    assert got == reference.normalize(e), e
    assert key == reference._key(got), e
    assert normalize(e) == got


@pytest.mark.parametrize("source", _PANEL)
def test_panel_agrees(source):
    _agrees(parse(source))


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(e=st.one_of(expressions(), unsorted_expressions()))
def test_random_trees_agree(e):
    _agrees(e)
