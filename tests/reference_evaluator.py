"""A frozen copy of the `isinstance`-chain expression evaluator, for tests only.

`oodn.expr.evaluate` is a table-dispatched rewrite of this code.  The
differential test in `test_evaluator_differential.py` holds the two to the
same values and the same `EvalError` messages and nodes.  Do not change
this file to follow the engine: it is the reference the engine is checked
against.
"""

from __future__ import annotations

import operator

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
    Value,
)


def evaluate(e: Expr, ctx: EvalContext) -> Value:
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Text):
        return e.value
    if isinstance(e, PropRef):
        return _eval_propref(e, ctx)
    if isinstance(e, ParamRef):
        if e.name not in ctx.arguments:
            raise EvalError(f"unresolved parameter {e.name!r}", e)
        return ctx.arguments[e.name]
    if isinstance(e, Arith):
        a = _number(evaluate(e.left, ctx), e.left)
        b = _number(evaluate(e.right, ctx), e.right)
        if e.op == "+":
            return a + b
        if e.op == "-":
            return a - b
        if e.op == "*":
            return a * b
        if b == 0:
            raise EvalError("division by zero", e)
        return a / b
    if isinstance(e, Compare):
        return _eval_compare(e, ctx)
    if isinstance(e, Not):
        return 1.0 - _degree(evaluate(e.operand, ctx), e.operand)
    if isinstance(e, Connective):
        a = _degree(evaluate(e.left, ctx), e.left)
        b = _degree(evaluate(e.right, ctx), e.right)
        return min(a, b) if e.op == "and" else max(a, b)
    if isinstance(e, Aggregate):
        return _eval_aggregate(e, ctx)
    if isinstance(e, If):
        cond = _degree(evaluate(e.condition, ctx), e.condition)
        return evaluate(e.then if cond > 0 else e.orelse, ctx)
    raise TypeError(f"not an expression node: {e!r}")


def _eval_propref(e: PropRef, ctx: EvalContext) -> Value:
    if ctx.subject is None:
        raise EvalError(f"no subject to resolve self.{e.prop}", e)
    prop = ctx.subject.find_property(e.prop)
    if prop is None:
        raise EvalError(f"subject has no property {e.prop!r}", e)
    quantitative = hasattr(prop, "units")
    if e.attr == "units":
        if not quantitative:
            raise EvalError(f"property {e.prop!r} has no units", e)
        return prop.units
    if e.attr == "value":
        if quantitative:
            if prop.value is None:
                raise EvalError(f"property {e.prop!r} has no concrete value", e)
            if isinstance(prop.value, tuple):
                raise EvalError(
                    f"property {e.prop!r} is list-valued; use .values", e
                )
            return prop.value
        if prop.degree is None:
            raise EvalError(f"property {e.prop!r} has no stored degree", e)
        return prop.degree
    if e.attr == "values":
        if not quantitative or not isinstance(prop.value, tuple):
            raise EvalError(f"property {e.prop!r} is not list-valued", e)
        return prop.value
    # count
    if not quantitative or not isinstance(prop.value, tuple):
        raise EvalError(f"property {e.prop!r} is not list-valued", e)
    return float(len(prop.value))


_COMPARISONS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _eval_compare(e: Compare, ctx: EvalContext) -> float:
    a = evaluate(e.left, ctx)
    b = evaluate(e.right, ctx)
    if isinstance(a, str) and isinstance(b, str):
        if e.op not in ("==", "!="):
            raise EvalError(f"ordering '{e.op}' is not defined for text", e)
    elif _is_number(a) and _is_number(b):
        pass
    else:
        raise EvalError("comparison needs two numbers or two texts", e)
    return 1.0 if _COMPARISONS[e.op](a, b) else 0.0


def _eval_aggregate(e: Aggregate, ctx: EvalContext) -> float:
    arg = evaluate(e.arg, ctx)
    if not isinstance(arg, tuple):
        raise EvalError(f"{e.fn} expects a list of numbers", e)
    if e.fn == "count":
        return float(len(arg))
    if not arg:
        raise EvalError(f"{e.fn} of an empty list", e)
    if e.fn == "sum":
        return float(sum(arg))
    if e.fn == "min":
        return float(min(arg))
    if e.fn == "max":
        return float(max(arg))
    # all_equal
    return 1.0 if all(v == arg[0] for v in arg) else 0.0


def _is_number(v: Value) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)  # a bool is no number


def _number(v: Value, node: Expr) -> float:
    if _is_number(v):
        return float(v)
    raise EvalError("expected a number", node)


def _degree(v: Value, node: Expr) -> float:
    n = _number(v, node)
    if not 0.0 <= n <= 1.0:
        raise EvalError(f"degree out of range: {n}", node)
    return n
