"""`oodn.expr.print_expr` against the frozen reference printer.

Both print `tests/strategies.py` trees, well-sorted or not, and an
exhaustive panel: every operator (the twelve binary ones, `not`, unary
minus and `if`) placed in every child position of every operator.  The
two must give the same text, and the panel's text must parse back to
its tree.  A value that is not a node, at the top or as a child, raises
the reference's `TypeError`.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodn.expr import Arith, Compare, Connective, If, Not, Num, ParamRef, parse, print_expr

from . import reference_printer
from .strategies import expressions, unsorted_expressions

_NODES = {
    **dict.fromkeys(["+", "-", "*", "/"], Arith),
    **dict.fromkeys(["==", "!=", "<", "<=", ">", ">="], Compare),
    **dict.fromkeys(["and", "or"], Connective),
}
_X, _Y, _Z = ParamRef("x"), ParamRef("y"), ParamRef("z")


def _positions() -> list:
    """One function per (operator, child position) that puts a child there."""
    places = []
    for op, node in _NODES.items():
        places.append(lambda c, op=op, node=node: node(op, c, _Y))
        places.append(lambda c, op=op, node=node: node(op, _X, c))
    places.append(Not)
    places.append(lambda c: Arith("-", Num(0.0), c))  # unary minus
    places.append(lambda c: If(c, _Y, _Z))
    places.append(lambda c: If(_X, c, _Z))
    places.append(lambda c: If(_X, _Y, c))
    return places


_PANEL = [outer(inner(ParamRef("a"))) for outer in _positions() for inner in _positions()]
_NOT_NODES = [1, None, "x", *(place(1) for place in _positions())]


def test_panel_matches_reference():
    assert len(_PANEL) == 29 * 29
    for tree in _PANEL:
        text = print_expr(tree)
        assert text == reference_printer.print_expr(tree), tree
        assert parse(text) == tree, text
    for value in _NOT_NODES:
        with pytest.raises(TypeError) as expected:
            reference_printer.print_expr(value)
        with pytest.raises(TypeError) as got:
            print_expr(value)
        assert str(got.value) == str(expected.value), value


@settings(max_examples=300, deadline=None)
@given(st.one_of(expressions(), unsorted_expressions()))
def test_print_matches_reference(tree):
    assert print_expr(tree) == reference_printer.print_expr(tree)
