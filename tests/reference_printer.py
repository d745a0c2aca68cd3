"""A frozen copy of the original expression printer, for tests only.

`oodn.expr.print_expr` is a rewrite of this code that reads each binary
operator's binding level from one operator table.  The differential test
in `test_printer_differential.py` holds the two to the same text.  Do not
change this file to follow the engine: it is the reference the engine is
checked against.
"""

from __future__ import annotations

from oodn.expr import (
    Aggregate,
    Arith,
    Compare,
    Connective,
    Expr,
    If,
    Not,
    Num,
    ParamRef,
    PropRef,
    Text,
)


def _escape(s: str) -> str:
    return (
        s.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\t", "\\t")
    )


_PREC_IF = 0
_PREC_OR = 1
_PREC_AND = 2
_PREC_NOT = 3
_PREC_CMP = 4
_PREC_ADD = 5
_PREC_MUL = 6
_PREC_ATOM = 9


def _prec(e: Expr) -> int:
    if isinstance(e, If):
        return _PREC_IF
    if isinstance(e, Connective):
        return _PREC_OR if e.op == "or" else _PREC_AND
    if isinstance(e, Not):
        return _PREC_NOT
    if isinstance(e, Compare):
        return _PREC_CMP
    if isinstance(e, Arith):
        return _PREC_ADD if e.op in ("+", "-") else _PREC_MUL
    return _PREC_ATOM


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _render(e: Expr) -> str:
    if isinstance(e, Num):
        return _fmt_num(e.value)
    if isinstance(e, Text):
        return f'"{_escape(e.value)}"'
    if isinstance(e, PropRef):
        return f"self.{e.prop}.{e.attr}"
    if isinstance(e, ParamRef):
        return e.name
    if isinstance(e, Arith):
        p = _prec(e)
        return f"{_child(e.left, p, tight=False)} {e.op} {_child(e.right, p, tight=True)}"
    if isinstance(e, Compare):
        p = _prec(e)
        # Comparison is non-chaining: parenthesize comparison operands.
        return f"{_child(e.left, p, tight=True)} {e.op} {_child(e.right, p, tight=True)}"
    if isinstance(e, Not):
        return f"not {_child(e.operand, _PREC_NOT, tight=False)}"
    if isinstance(e, Connective):
        p = _prec(e)
        return f"{_child(e.left, p, tight=False)} {e.op} {_child(e.right, p, tight=True)}"
    if isinstance(e, Aggregate):
        return f"{e.fn}({_render(e.arg)})"
    if isinstance(e, If):
        # `then` and `else` delimit the parts, so no part needs
        # parentheses; adding them would add nesting levels.
        return f"if {_render(e.condition)} then {_render(e.then)} else {_render(e.orelse)}"
    raise TypeError(f"not an expression node: {e!r}")


def _child(e: Expr, parent_prec: int, tight: bool) -> str:
    p = _prec(e)
    if p < parent_prec or (tight and p == parent_prec):
        return f"({_render(e)})"
    return _render(e)


def print_expr(e: Expr) -> str:
    """Render `e` with minimal parentheses; parse(print_expr(e)) == e."""
    return _render(e)
