"""Expression language used for verification predicates and method bodies.

Concrete syntax (full EBNF in docs/grammar.md):

    expr        = ifexpr | orexpr
    ifexpr      = "if" expr "then" expr "else" expr
    orexpr      = andexpr { "or" andexpr }
    andexpr     = notexpr { "and" notexpr }
    notexpr     = "not" notexpr | comparison
    comparison  = additive [ ("==" | "!=" | "<" | "<=" | ">" | ">=") additive ]
    additive    = multiplicative { ("+" | "-") multiplicative }
    multiplicative = unary { ("*" | "/") unary }
    unary       = "-" unary | primary
    primary     = NUMBER | STRING | propref | aggregate | IDENT | "(" expr ")"
    propref     = "self" "." IDENT "." ("value" | "units" | "values" | "count")
    aggregate   = ("sum" | "min" | "max" | "count" | "all_equal") "(" expr ")"

Connectives use fuzzy semantics: `and` is minimum, `or` is maximum,
`not x` is `1 - x`.  Comparisons yield degree 1 or 0.  An `if` condition
is taken as true when its degree is greater than zero.
"""

from __future__ import annotations

import math
import operator
import re
from collections import namedtuple
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterator, Mapping, NoReturn, Union

from .errors import OodnError

Value = Union[float, str, tuple]


class ExprError(OodnError):
    """Base class for expression-layer failures."""


class ExprSyntaxError(ExprError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class SortError(ExprError):
    """The expression is not well-sorted."""

    def __init__(self, message: str, node: "Expr | None" = None):
        super().__init__(message)
        self.node = node


class EvalError(ExprError):
    """Evaluation failed; `node` is the offending subexpression."""

    def __init__(self, message: str, node: "Expr | None" = None):
        super().__init__(message)
        self.node = node


# --- abstract syntax ---------------------------------------------------------

REF_ATTRS = ("value", "units", "values", "count")
AGGREGATES = ("sum", "min", "max", "count", "all_equal")


@dataclass(frozen=True, slots=True)
class Num:
    value: float

    def __post_init__(self):
        if isinstance(self.value, bool):
            raise ExprError(f"a bool is not a number: {self.value}")
        if not isinstance(self.value, (int, float)):
            raise ExprError(f"expected a number, got {self.value!r}")
        try:
            finite = math.isfinite(self.value)
        except OverflowError:  # an int beyond the range of a float
            raise ExprError("number out of range") from None
        if not finite:
            raise ExprError(f"number {self.value} is not finite")


@dataclass(frozen=True, slots=True)
class Text:
    value: str


@dataclass(frozen=True, slots=True)
class PropRef:
    """Reference to a property of the evaluation subject (`self.<p>.<attr>`)."""

    prop: str
    attr: str


@dataclass(frozen=True, slots=True)
class ParamRef:
    """Reference to a method parameter by name."""

    name: str


@dataclass(frozen=True, slots=True)
class Arith:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class Compare:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class Not:
    operand: "Expr"


@dataclass(frozen=True, slots=True)
class Connective:
    op: str  # "and" | "or"
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True, slots=True)
class Aggregate:
    fn: str
    arg: "Expr"


@dataclass(frozen=True, slots=True)
class If:
    condition: "Expr"
    then: "Expr"
    orelse: "Expr"


Expr = Union[Num, Text, PropRef, ParamRef, Arith, Compare, Not, Connective, Aggregate, If]


# Every binary operator: its binding level (a higher level binds more
# tightly), the node it builds, whether `normalize` may swap its operands,
# and the function `evaluate` applies to the two operand values.  Each
# associates to the left, except the comparisons, which do not chain.
_Operator = namedtuple("_Operator", "prec node commutative meaning")
_BINARY = {
    "or": _Operator(1, Connective, True, max),
    "and": _Operator(2, Connective, True, min),
    "==": _Operator(4, Compare, True, operator.eq),
    "!=": _Operator(4, Compare, True, operator.ne),
    "<": _Operator(4, Compare, False, operator.lt),
    "<=": _Operator(4, Compare, False, operator.le),
    ">": _Operator(4, Compare, False, operator.gt),
    ">=": _Operator(4, Compare, False, operator.ge),
    "+": _Operator(5, Arith, True, operator.add),
    "-": _Operator(5, Arith, False, operator.sub),
    "*": _Operator(6, Arith, True, operator.mul),
    "/": _Operator(6, Arith, False, operator.truediv),
}
CMP_OPS = tuple(op for op, row in _BINARY.items() if row.node is Compare)

# The other binding levels.
_PREC_IF = 0
_PREC_OR = _BINARY["or"].prec  # the loosest binary level
_PREC_NOT = 3  # between "and" and the comparisons
_PREC_ATOM = 9


def children(e: Expr) -> tuple:
    if isinstance(e, (Num, Text, PropRef, ParamRef)):
        return ()
    if isinstance(e, (Arith, Compare, Connective)):
        return (e.left, e.right)
    if isinstance(e, Not):
        return (e.operand,)
    if isinstance(e, Aggregate):
        return (e.arg,)
    if isinstance(e, If):
        return (e.condition, e.then, e.orelse)
    raise TypeError(f"not an expression node: {e!r}")


def walk(e: Expr) -> Iterator[Expr]:
    yield e
    for c in children(e):
        yield from walk(c)


def param_refs(e: Expr) -> set[str]:
    names, stack = set(), [e]  # the same set as `walk` gives, in any order
    while stack:
        node = stack.pop()
        if isinstance(node, ParamRef):
            names.add(node.name)
        elif not isinstance(node, (Num, Text, PropRef)):
            stack.extend(children(node))
    return names


# --- sorts -------------------------------------------------------------------


class Sort(Enum):
    NUMBER = "number"
    DEGREE = "degree"
    TEXT = "text"
    NUMBER_LIST = "list-of-number"


def _numeric(s: Sort) -> bool:
    return s in (Sort.NUMBER, Sort.DEGREE)


def infer_sort(e: Expr) -> Sort:
    """Static result sort of `e`; raises SortError when ill-sorted.

    A numeric literal inside [0, 1] counts as a degree.  References have
    sort NUMBER and are accepted where a degree is expected; evaluation
    enforces the [0, 1] range dynamically."""
    try:
        rule = _SORT_RULES[type(e)]
    except KeyError:
        raise TypeError(f"not an expression node: {e!r}") from None
    return rule(e)


def _sort_arith(e: Arith) -> Sort:
    if not (_numeric(infer_sort(e.left)) and _numeric(infer_sort(e.right))):
        raise SortError(f"arithmetic '{e.op}' needs numeric operands", e)
    return Sort.NUMBER


def _sort_compare(e: Compare) -> Sort:
    ls, rs = infer_sort(e.left), infer_sort(e.right)
    if ls is Sort.TEXT and rs is Sort.TEXT:
        if e.op not in ("==", "!="):
            raise SortError(f"ordering '{e.op}' is not defined for text", e)
    elif not (_numeric(ls) and _numeric(rs)):
        raise SortError(f"comparison '{e.op}' needs two numbers or two texts", e)
    return Sort.DEGREE


def _sort_degrees(e: Not | Connective) -> Sort:
    for operand in children(e):
        _check_degree_operand(operand, e)
    return Sort.DEGREE


def _sort_aggregate(e: Aggregate) -> Sort:
    if infer_sort(e.arg) is not Sort.NUMBER_LIST:
        raise SortError(f"{e.fn} expects a list of numbers", e)
    return Sort.DEGREE if e.fn == "all_equal" else Sort.NUMBER


def _sort_if(e: If) -> Sort:
    _check_degree_operand(e.condition, e)
    ts, os_ = infer_sort(e.then), infer_sort(e.orelse)
    if ts != os_ and not (_numeric(ts) and _numeric(os_)):
        raise SortError("if branches have incompatible sorts", e)
    return ts if ts == os_ else Sort.NUMBER


_REF_SORTS = {"units": Sort.TEXT, "values": Sort.NUMBER_LIST}
_SORT_RULES = {
    Num: lambda e: Sort.DEGREE if 0.0 <= e.value <= 1.0 else Sort.NUMBER,
    Text: lambda e: Sort.TEXT,
    PropRef: lambda e: _REF_SORTS.get(e.attr, Sort.NUMBER),
    ParamRef: lambda e: Sort.NUMBER,
    Arith: _sort_arith,
    Compare: _sort_compare,
    Not: _sort_degrees,
    Connective: _sort_degrees,
    Aggregate: _sort_aggregate,
    If: _sort_if,
}


def _check_degree_operand(operand: Expr, parent: Expr) -> None:
    s = infer_sort(operand)
    if s is Sort.DEGREE:
        return
    # A literal outside [0,1] can never be a degree; references might be.
    if s is Sort.NUMBER and not isinstance(operand, Num):
        return
    raise SortError("connective operand must be a degree in [0, 1]", parent)


# --- lexer -------------------------------------------------------------------

_KEYWORDS = frozenset(
    {"and", "or", "not", "if", "then", "else", "self"} | set(AGGREGATES)
)

_TOKEN_RE = re.compile(
    r"""
    \s*(?:
      (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
    | (?P<string>"(?:[^"\\]|\\.)*")
    | (?P<ref>self\s*\.\s*(?P<prop>[A-Za-z_][A-Za-z0-9_]*)\s*\.\s*(?P<attr>[A-Za-z_][A-Za-z0-9_]*))
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op><=|>=|==|!=|[<>+\-*/().,])
    | (?P<bad>\S)
    )
    """,
    re.VERBOSE,
)
_REF = _TOKEN_RE.groupindex["ref"]


def _tokenize(source: str) -> list[tuple]:
    """(kind, text, offset) of each token, ending with an "eof" token.

    One match is one token with the whitespace before it, so the token's
    text and offset are those of its group, `m.lastindex`.  A well-formed
    property reference `self . IDENT . IDENT` is one token of kind "ref"
    and text "self" at the offset of `self`, which also carries the
    property name, the accessor and the accessor's offset; a malformed
    one lexes as its separate tokens.  A character that starts no token
    is a token of kind "bad", which the parser reports; `bad` takes no
    whitespace.  The search stops before the trailing whitespace, from
    which every start would fail only after scanning to the end, a cost
    quadratic in its length.  `str.rstrip` and the pattern agree on which
    characters are whitespace.
    """
    tokens = []
    for m in _TOKEN_RE.finditer(source, 0, len(source.rstrip())):
        i = m.lastindex
        if i == _REF:  # the enclosing group closes last, so it is `lastindex`
            tokens.append(("ref", "self", m.start(i), m["prop"], m["attr"], m.start("attr")))
        else:
            tokens.append((m.lastgroup, m[i], m.start(i)))
    tokens.append(("eof", "", len(source)))
    return tokens


_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)
_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}


def _unescape(raw: str) -> str:
    """The body of a string literal, escapes replaced in one left-to-right
    pass; a backslash before any other character stays as written."""
    return _ESCAPE_RE.sub(lambda m: _ESCAPES.get(m[1], m[0]), raw[1:-1])


def _escape(s: str) -> str:
    return (
        s.replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
        .replace("\t", "\\t")
    )


# --- parser ------------------------------------------------------------------

# Limits on one expression (see docs/grammar.md).  Together they bound the
# parser's recursion and the depth of every tree it returns, so that the
# recursive tree walkers stay well inside the interpreter's recursion
# limit.  Printing a tree never adds levels or operators, so printed text
# always parses again.
MAX_DEPTH = 64
MAX_OPERATORS = 128


class _Parser:
    """Recursive descent over the token list.

    `kind` and `text` are those of the current token.  Operator, keyword,
    number and string texts never coincide, so most checks test `text` alone.
    `leaves` maps the key of each leaf made so far to its node.
    """

    def __init__(self, source: str, leaves: dict):
        self.source = source
        self.tokens = _tokenize(source)
        self.leaves = leaves
        self.pos = 0
        self.kind, self.text = self.tokens[0][:2]
        self.depth = 0
        self.operators = 0

    def advance(self) -> str:
        """Consume the current token and return its text."""
        text = self.text
        self.pos += 1
        token = self.tokens[self.pos]
        self.kind, self.text = token[0], token[1]
        return text

    def error(self, message: str, offset: int | None = None) -> NoReturn:
        """Raise at `offset`, by default the current token's.

        The first bad character takes precedence wherever it stands, as if
        the whole source were lexed before parsing.  No rule consumes a bad
        token, so every source holding one ends here.
        """
        for token in self.tokens:
            if token[0] == "bad":
                message, offset = f"unexpected character {token[1]!r}", token[2]
                break
        if offset is None:
            offset = self.tokens[self.pos][2]
        line = self.source.count("\n", 0, offset) + 1
        raise ExprSyntaxError(message, line, offset - self.source.rfind("\n", 0, offset))

    def fail(self, expected: str) -> NoReturn:
        got = repr(self.text) if self.kind != "eof" else "end of input"
        self.error(f"expected {expected}, got {got}")

    def nest(self) -> None:
        """Enter one level of recursion; the caller leaves it."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.error(f"expression nested more than {MAX_DEPTH} levels deep")

    def operator(self) -> str:
        """Consume an arithmetic, comparison or connective operator."""
        self.operators += 1
        if self.operators > MAX_OPERATORS:
            self.error(f"expression has more than {MAX_OPERATORS} operators")
        return self.advance()

    def expect(self, text: str) -> None:
        if self.text != text:
            self.fail(f"'{text}'")
        self.advance()

    def expect_ident(self, what: str) -> str:
        if self.kind != "ident":
            self.fail(what)
        return self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        if self.kind != "eof":
            self.fail("end of input")
        return e

    def expr(self) -> Expr:
        self.nest()
        if self.text == "if":
            self.advance()
            cond = self.expr()
            self.expect("then")
            then = self.expr()
            self.expect("else")
            orelse = self.expr()
            e = If(cond, then, orelse)
        else:
            e = self.binary(_PREC_OR)
        self.depth -= 1
        return e

    def binary(self, lowest: int) -> Expr:
        """Precedence climbing over `_BINARY`: an operand, then each operator
        binding at least as tightly as `lowest`, the tighter ones on its right.
        `highest` caps the next operator: after an operator, its own level or
        looser (left association); after a comparison, only looser (no chains)."""
        highest = _PREC_ATOM
        if self.text == "not" and lowest <= _PREC_NOT:
            self.advance()
            self.nest()
            e = Not(self.binary(_PREC_NOT))
            self.depth -= 1
            highest = _PREC_NOT - 1
        else:
            e = self.unary()
        while True:
            row = _BINARY.get(self.text)
            if row is None or not lowest <= row.prec <= highest:
                return e
            e = row.node(self.operator(), e, self.binary(row.prec + 1))
            highest = row.prec - 1 if row.node is Compare else row.prec

    def unary(self) -> Expr:
        if self.text == "-":
            self.operator()
            self.nest()
            operand = self.unary()
            self.depth -= 1
            if isinstance(operand, Num):
                return Num(-operand.value)
            return Arith("-", Num(0.0), operand)
        return self.primary()

    def leaf(self, key: tuple, make, *args) -> Expr:
        """Consume the current token and return its leaf, `make(*args)`
        when `leaves` has no node under `key` yet."""
        node = self.leaves.get(key)
        if node is None:
            node = self.leaves[key] = make(*args)
        self.advance()
        return node

    def number(self, text: str) -> Num:
        value = float(text)
        if not math.isfinite(value):
            self.error("number out of range")
        return Num(value)

    def primary(self) -> Expr:
        kind, text = self.kind, self.text
        if kind == "ref":
            _, _, _, prop, attr, offset = self.tokens[self.pos]
            if attr not in REF_ATTRS:
                self.error(
                    f"unknown property accessor {attr!r} (expected one of {', '.join(REF_ATTRS)})",
                    offset,
                )
            return self.leaf((PropRef, prop, attr), PropRef, prop, attr)
        if kind == "number":
            return self.leaf((Num, text), self.number, text)
        if kind == "string":
            self.advance()
            return Text(_unescape(text))
        if text == "(":
            self.advance()
            e = self.expr()
            self.expect(")")
            return e
        if kind == "ident":
            if text == "self":
                return self.propref()
            if text in AGGREGATES:
                return self.aggregate()
            if text in _KEYWORDS:
                self.fail("an expression")
            if self.tokens[self.pos + 1][1] == "(":
                self.error(f"unknown function {text!r}")
            return self.leaf((ParamRef, text), ParamRef, text)
        self.fail("an expression")

    def propref(self) -> NoReturn:
        """A `self` that starts no "ref" token: the first of its parts that
        is missing.  Each part present is an IDENT or a ".", so the last
        one, had it been an IDENT, would have made the whole a "ref"."""
        self.advance()  # "self"
        self.expect(".")
        self.expect_ident("a property name")
        self.expect(".")
        self.fail("one of value/units/values/count")

    def aggregate(self) -> Expr:
        fn = self.advance()
        self.expect("(")
        arg = self.expr()
        if self.text == ",":
            self.error(f"{fn} takes exactly one argument")
        self.expect(")")
        return Aggregate(fn, arg)


def parse(source: str, leaves: dict | None = None) -> Expr:
    """Parse `source` into an AST; whitespace-insensitive.

    Trees parsed with the same `leaves` dict share one node per distinct
    number literal text, property reference and parameter; the dict's
    keys are tuples, so it may also hold other keys, such as source texts."""
    return _Parser(source, {} if leaves is None else leaves).parse()


# --- printer -----------------------------------------------------------------

def _prec(e: Expr) -> int:
    if isinstance(e, (Arith, Compare, Connective)):
        return _BINARY[e.op].prec
    if isinstance(e, If):
        return _PREC_IF
    if isinstance(e, Not):
        return _PREC_NOT
    return _PREC_ATOM


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def print_expr(e: Expr) -> str:
    """Render `e` with minimal parentheses; parse(print_expr(e)) == e."""
    if isinstance(e, Num):
        return _fmt_num(e.value)
    if isinstance(e, Text):
        return f'"{_escape(e.value)}"'
    if isinstance(e, PropRef):
        return f"self.{e.prop}.{e.attr}"
    if isinstance(e, ParamRef):
        return e.name
    if isinstance(e, (Arith, Compare, Connective)):
        p, tight = _BINARY[e.op].prec, isinstance(e, Compare)  # comparisons do not chain
        return f"{_child(e.left, p, tight)} {e.op} {_child(e.right, p, tight=True)}"
    if isinstance(e, Not):
        return f"not {_child(e.operand, _PREC_NOT, tight=False)}"
    if isinstance(e, Aggregate):
        return f"{e.fn}({print_expr(e.arg)})"
    if isinstance(e, If):
        # `then` and `else` delimit the parts, so no part needs
        # parentheses; adding them would add nesting levels.
        return (
            f"if {print_expr(e.condition)} then {print_expr(e.then)} "
            f"else {print_expr(e.orelse)}"
        )
    raise TypeError(f"not an expression node: {e!r}")


def _child(e: Expr, parent_prec: int, tight: bool) -> str:
    p = _prec(e)
    if p < parent_prec or (tight and p == parent_prec):
        return f"({print_expr(e)})"
    return print_expr(e)


# --- normal form -------------------------------------------------------------

_LITERALS = (Num, Text)
_BINARY_TAGS = {Arith: 4, Compare: 5, Connective: 7}


def normalize(e: Expr) -> Expr:
    """Canonical normal form: commutative operands sorted, double negation
    removed, and each operator over literals replaced by the number
    `evaluate` gives it, unless evaluation fails or overflows (so that
    every normal form prints).  Idempotent and semantics-preserving."""
    return _normalize(e)[0]


def _normalize(e: Expr) -> tuple:
    """`normalize(e)` and its order key, a fixed total order on subtrees:
    variant tag, then payload, then the children's keys."""
    if isinstance(e, Num):
        return e, (0, e.value)
    if isinstance(e, Text):
        return e, (1, e.value)
    if isinstance(e, PropRef):
        return e, (2, e.prop, e.attr)
    if isinstance(e, ParamRef):
        return e, (3, e.name)
    if isinstance(e, Aggregate):
        arg, arg_key = _normalize(e.arg)
        return Aggregate(e.fn, arg), (8, e.fn, arg_key)
    if isinstance(e, If):
        cond, then, orelse = map(_normalize, (e.condition, e.then, e.orelse))
        if isinstance(cond[0], Num):
            return then if cond[0].value > 0 else orelse
        return If(cond[0], then[0], orelse[0]), (9, cond[1], then[1], orelse[1])
    if isinstance(e, Not):
        operand, operand_key = _normalize(e.operand)
        if isinstance(operand, Not):
            return operand.operand, operand_key[1]
        e, key = Not(operand), (6, operand_key)
        literal = isinstance(operand, _LITERALS)
    elif isinstance(e, (Arith, Compare, Connective)):
        left, right = _normalize(e.left), _normalize(e.right)
        if _BINARY[e.op].commutative and right[1] < left[1]:
            left, right = right, left
        e = type(e)(e.op, left[0], right[0])
        key = (_BINARY_TAGS[type(e)], e.op, left[1], right[1])
        literal = isinstance(left[0], _LITERALS) and isinstance(right[0], _LITERALS)
    else:
        raise TypeError(f"not an expression node: {e!r}")
    if literal:
        try:
            value = evaluate(e, _NO_CONTEXT)
        except EvalError:
            return e, key
        if math.isfinite(value):
            return Num(value), (0, value)
    return e, key


def expr_equal(a: Expr, b: Expr) -> bool:
    """Structural equality of normal forms."""
    return normalize(a) == normalize(b)


# --- evaluation --------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class EvalContext:
    """Evaluation context: a subject exposing find_property(name) plus
    named argument values for parameter references."""

    subject: Any = None
    arguments: Mapping[str, Value] = field(default_factory=dict)


_NO_CONTEXT = EvalContext()


def evaluate(e: Expr, ctx: EvalContext) -> Value:
    """The value of `e` for the subject and arguments of `ctx`.

    `_RULES` maps each node type to the rule that evaluates it, so one
    node costs one dict read; a rule evaluates its children through
    `evaluate` again."""
    try:
        rule = _RULES[type(e)]
    except KeyError:
        raise TypeError(f"not an expression node: {e!r}") from None
    return rule(e, ctx)


def _eval_literal(e: Num | Text, ctx: EvalContext) -> Value:
    return e.value


def _eval_param(e: ParamRef, ctx: EvalContext) -> Value:
    if e.name not in ctx.arguments:
        raise EvalError(f"unresolved parameter {e.name!r}", e)
    return ctx.arguments[e.name]


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
    if not quantitative or not isinstance(prop.value, tuple):
        raise EvalError(f"property {e.prop!r} is not list-valued", e)
    return prop.value if e.attr == "values" else float(len(prop.value))


def _eval_arith(e: Arith, ctx: EvalContext) -> float:
    a = _number(evaluate(e.left, ctx), e.left)
    b = _number(evaluate(e.right, ctx), e.right)
    if b == 0 and e.op == "/":
        raise EvalError("division by zero", e)
    return _BINARY[e.op].meaning(a, b)


def _eval_compare(e: Compare, ctx: EvalContext) -> float:
    a = evaluate(e.left, ctx)
    b = evaluate(e.right, ctx)
    if type(a) is not float or type(b) is not float:  # two floats are the common case
        if isinstance(a, str) and isinstance(b, str):
            if e.op not in ("==", "!="):
                raise EvalError(f"ordering '{e.op}' is not defined for text", e)
        elif not (_is_number(a) and _is_number(b)):
            raise EvalError("comparison needs two numbers or two texts", e)
    return 1.0 if _BINARY[e.op].meaning(a, b) else 0.0


def _eval_not(e: Not, ctx: EvalContext) -> float:
    return 1.0 - _degree(evaluate(e.operand, ctx), e.operand)


def _eval_connective(e: Connective, ctx: EvalContext) -> float:
    a = _degree(evaluate(e.left, ctx), e.left)
    b = _degree(evaluate(e.right, ctx), e.right)
    return _BINARY[e.op].meaning(a, b)


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


def _eval_if(e: If, ctx: EvalContext) -> Value:
    cond = _degree(evaluate(e.condition, ctx), e.condition)
    return evaluate(e.then if cond > 0 else e.orelse, ctx)


_RULES = {
    Num: _eval_literal,
    Text: _eval_literal,
    PropRef: _eval_propref,
    ParamRef: _eval_param,
    Arith: _eval_arith,
    Compare: _eval_compare,
    Not: _eval_not,
    Connective: _eval_connective,
    Aggregate: _eval_aggregate,
    If: _eval_if,
}


def _is_number(v: Value) -> bool:
    """A bool is not a number, although Python makes it an int."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _number(v: Value, node: Expr) -> float:
    if type(v) is float or _is_number(v):
        return float(v)
    raise EvalError("expected a number", node)


def _degree(v: Value, node: Expr) -> float:
    n = v if type(v) is float else _number(v, node)
    if not 0.0 <= n <= 1.0:
        raise EvalError(f"degree out of range: {n}", node)
    return n
