"""A frozen copy of `oodn.expr.normalize` as it was when a separate `_key`
walk ordered the operands of commutative operators, for tests only.

`tests/test_normalize_differential.py` holds the engine to this copy: the
same normal form for every tree, and an order key that equals `_key` of
that normal form.  Do not change this file to follow the engine: it is
the reference the engine is checked against.
"""

from __future__ import annotations

import math

from oodn.expr import (
    Aggregate,
    Arith,
    Compare,
    Connective,
    EvalContext,
    EvalError,
    Expr,
    If,
    Not,
    Num,
    ParamRef,
    PropRef,
    Text,
    evaluate,
)

_COMMUTATIVE = frozenset(["or", "and", "==", "!=", "+", "*"])
_LITERALS = (Num, Text)
_NO_CONTEXT = EvalContext()


def _key(e: Expr):
    """Fixed total order on subtrees: variant tag, then payload, then children."""
    if isinstance(e, Num):
        return (0, e.value)
    if isinstance(e, Text):
        return (1, e.value)
    if isinstance(e, PropRef):
        return (2, e.prop, e.attr)
    if isinstance(e, ParamRef):
        return (3, e.name)
    if isinstance(e, Arith):
        return (4, e.op, _key(e.left), _key(e.right))
    if isinstance(e, Compare):
        return (5, e.op, _key(e.left), _key(e.right))
    if isinstance(e, Not):
        return (6, _key(e.operand))
    if isinstance(e, Connective):
        return (7, e.op, _key(e.left), _key(e.right))
    if isinstance(e, Aggregate):
        return (8, e.fn, _key(e.arg))
    if isinstance(e, If):
        return (9, _key(e.condition), _key(e.then), _key(e.orelse))
    raise TypeError(f"not an expression node: {e!r}")


def normalize(e: Expr) -> Expr:
    """Canonical normal form: commutative operands sorted, double negation
    removed, and each operator over literals replaced by the number
    `evaluate` gives it, unless evaluation fails or overflows (so that
    every normal form prints).  Idempotent and semantics-preserving."""
    if isinstance(e, (Num, Text, PropRef, ParamRef)):
        return e
    if isinstance(e, Aggregate):
        return Aggregate(e.fn, normalize(e.arg))
    if isinstance(e, If):
        cond = normalize(e.condition)
        then, orelse = normalize(e.then), normalize(e.orelse)
        if isinstance(cond, Num):
            return then if cond.value > 0 else orelse
        return If(cond, then, orelse)
    if isinstance(e, Not):
        operand = normalize(e.operand)
        if isinstance(operand, Not):
            return operand.operand
        e = Not(operand)
        literal = isinstance(operand, _LITERALS)
    elif isinstance(e, (Arith, Compare, Connective)):
        left, right = normalize(e.left), normalize(e.right)
        if e.op in _COMMUTATIVE and _key(right) < _key(left):
            left, right = right, left
        e = type(e)(e.op, left, right)
        literal = isinstance(left, _LITERALS) and isinstance(right, _LITERALS)
    else:
        raise TypeError(f"not an expression node: {e!r}")
    if literal:
        try:
            value = evaluate(e, _NO_CONTEXT)
        except EvalError:
            return e
        if math.isfinite(value):
            return Num(value)
    return e
