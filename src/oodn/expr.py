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
import string
from collections import namedtuple
from dataclasses import MISSING, dataclass, field, fields
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

_FACTORY = type("_Factory", (), {"__repr__": lambda self: "<factory>"})()  # as `dataclass` shows it


def _frozen(cls):
    """`dataclass(frozen=True, slots=True)`, with an `__init__` that stores
    each field through its slot descriptor's `__set__`: about twice as fast
    as `dataclass`'s own, which calls `object.__setattr__`.  Invariant: the
    same fields in the same order, the same parameters and defaults (an
    `init=False` field gets its default, a `default_factory` field a fresh
    value), then the same `__post_init__`; `dataclass`'s contract (equality,
    hashing, `repr`, `replace`, `fields`, frozen-ness) is otherwise unchanged."""
    cls = dataclass(frozen=True, slots=True)(cls)
    env, params, body = {"FACTORY": _FACTORY, "__name__": cls.__module__}, [], []
    for i, f in enumerate(fields(cls)):
        made, given = f.default_factory is not MISSING, f.default is not MISSING
        env[f"set{i}"] = cls.__dict__[f.name].__set__
        env[f"default{i}"] = f.default_factory if made else f.default
        value = f"default{i}()" if made else f"default{i}"
        if f.init:
            params.append(f"{f.name}=FACTORY" if made else f"{f.name}={value}" if given else f.name)
            value = f"{value} if {f.name} is FACTORY else {f.name}" if made else f.name
        if f.init or made or given:  # else `dataclass` leaves the field unset
            body.append(f"set{i}(self, {value})")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec(f"def __init__(self, {', '.join(params)}):\n    " + "\n    ".join(body), env)
    cls.__init__ = env["__init__"]
    return cls


REF_ATTRS = ("value", "units", "values", "count")
AGGREGATES = ("sum", "min", "max", "count", "all_equal")


@_frozen
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


@_frozen
class Text:
    value: str


@_frozen
class PropRef:
    """Reference to a property of the evaluation subject (`self.<p>.<attr>`)."""

    prop: str
    attr: str


@_frozen
class ParamRef:
    """Reference to a method parameter by name."""

    name: str


class _BinaryNode:
    """Checks that `op` is an operator of `_BINARY` that builds this type."""

    __slots__ = ()

    def __post_init__(self):
        row = _BINARY.get(self.op)
        if row is None or row.node is not type(self):
            raise ExprError(f"{type(self).__name__} has no operator {self.op!r}")


@_frozen
class Arith(_BinaryNode):
    op: str
    left: "Expr"
    right: "Expr"


@_frozen
class Compare(_BinaryNode):
    op: str
    left: "Expr"
    right: "Expr"


@_frozen
class Not:
    operand: "Expr"


@_frozen
class Connective(_BinaryNode):
    op: str  # "and" | "or"
    left: "Expr"
    right: "Expr"


@_frozen
class Aggregate:
    fn: str
    arg: "Expr"

    def __post_init__(self):
        if self.fn not in AGGREGATES:
            raise ExprError(f"unknown aggregate {self.fn!r}")


@_frozen
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


# Each node type -> the function giving the children of its nodes, in order.
_CHILDREN = {
    **dict.fromkeys((Num, Text, PropRef, ParamRef), lambda e: ()),
    **dict.fromkeys((Arith, Compare, Connective), lambda e: (e.left, e.right)),
    Not: lambda e: (e.operand,),
    Aggregate: lambda e: (e.arg,),
    If: lambda e: (e.condition, e.then, e.orelse),
}


def children(e: Expr) -> tuple:
    get = _CHILDREN.get(type(e))
    if get is None:
        raise TypeError(f"not an expression node: {e!r}")
    return get(e)


def walk(e: Expr) -> Iterator[Expr]:
    yield e
    for c in children(e):
        yield from walk(c)


def param_refs(e: Expr) -> set[str]:
    names, stack = set(), [e]  # the same set as `walk` gives, in any order
    while stack:
        node = stack.pop()
        if type(node) is ParamRef:
            names.add(node.name)
        else:  # a non-node falls through to `children`, which raises
            stack.extend(_CHILDREN.get(type(node), children)(node))
    return names


# --- sorts -------------------------------------------------------------------


class Sort(Enum):
    NUMBER = "number"
    DEGREE = "degree"
    TEXT = "text"
    NUMBER_LIST = "list-of-number"


_NUMERIC = (Sort.NUMBER, Sort.DEGREE)  # a tuple: `in` tests identity before `Enum.__hash__`


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
    if not (infer_sort(e.left) in _NUMERIC and infer_sort(e.right) in _NUMERIC):
        raise SortError(f"arithmetic '{e.op}' needs numeric operands", e)
    return Sort.NUMBER


def _sort_compare(e: Compare) -> Sort:
    ls, rs = infer_sort(e.left), infer_sort(e.right)
    if ls is Sort.TEXT and rs is Sort.TEXT:
        if e.op not in ("==", "!="):
            raise SortError(f"ordering '{e.op}' is not defined for text", e)
    elif not (ls in _NUMERIC and rs in _NUMERIC):
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
    if ts != os_ and not (ts in _NUMERIC and os_ in _NUMERIC):
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

_IDENT_START = frozenset(string.ascii_letters + "_")
_SYMBOLS = ("<=", ">=", "==", "!=", *"<>+-*/().,")  # a two-character one before its prefix
_TOKEN_RE = re.compile(
    rf"""
    \s*(
      \d+(?:\.\d+)?(?:[eE][+-]?\d+)?                  # number
    | "(?:[^"\\]|\\.)*"                               # string
    | self\s*\.\s*[A-Za-z_][A-Za-z0-9_]*\s*\.\s*[A-Za-z_][A-Za-z0-9_]*  # ref
    | [A-Za-z_][A-Za-z0-9_]*                          # ident
    | {"|".join(map(re.escape, _SYMBOLS))}            # op
    | \S                                              # bad
    )
    """,
    re.VERBOSE,
)


def _tokenize(source: str) -> list[str]:
    """The text of each token, then "" for the end of input; kinds and
    offsets are built only to report an error (`_kind`, `_Parser.error`).

    One match is one token, the pattern's one group, with the whitespace
    before it, so `findall` runs no Python code per token.  A well-formed
    property reference `self . IDENT . IDENT` is one token; a malformed one
    lexes as its separate tokens.  A character that starts no token is a
    bad token of its own, which the parser reports.  The search stops
    before the trailing whitespace, from which every start would fail only
    after scanning to the end, a cost quadratic in its length.  `str.rstrip`
    and the pattern agree on which characters are whitespace.
    """
    tokens = _TOKEN_RE.findall(source, 0, len(source.rstrip()))
    tokens.append("")
    return tokens


def _kind(text: str) -> str:
    """The kind of the token `text`, told by its first character: "ref",
    "ident" (keywords too), "number" (`\\d` is `str.isdecimal`), "string",
    "op", "bad", or "eof" for "".  Only error reports call it;
    `_Parser.operand` makes the same tests inline, on the success path."""
    first = text[:1]
    if first in _IDENT_START:
        return "ref" if "." in text else "ident"
    if first.isdecimal():
        return "number"
    if first == '"' and len(text) > 1:  # a lone quote starts no string
        return "string"
    return "op" if text in _SYMBOLS else "bad" if text else "eof"


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
    """Precedence climbing over the token list (Pratt, "Top Down Operator
    Precedence", 1973): `expr` reads an `if`, `binary` the operators and
    `operand` what they apply to.

    `tokens` holds token texts, and `text` is the current one, `tokens[pos]`;
    only the "eof" token has empty text.  No two kinds of token share a
    text, so most checks test `text` alone, and `operand` tells a leaf by
    its first character.  `leaves` maps the key of each leaf made so far
    to its node.
    """

    __slots__ = ("source", "tokens", "leaves", "pos", "text", "depth", "operators")

    def __init__(self, source: str, leaves: dict):
        self.source = source
        self.tokens = _tokenize(source)
        self.leaves = leaves
        self.pos = 0
        self.text = self.tokens[0]
        self.depth = 0
        self.operators = 0

    def advance(self) -> str:
        """Consume the current token and return its text."""
        text = self.text
        self.pos += 1
        self.text = self.tokens[self.pos]
        return text

    def error(self, message: str, within: int = 0) -> NoReturn:
        """Raise `within` characters into the current token.

        The first bad character takes precedence wherever it stands, as if
        the whole source were lexed before parsing.  No rule consumes a bad
        token, so every source holding one ends here.
        """
        source = self.source  # one `finditer` gives the tokens' offsets
        starts = [m.start(1) for m in _TOKEN_RE.finditer(source, 0, len(source.rstrip()))]
        starts.append(len(source))
        offset = starts[self.pos] + within
        for i, text in enumerate(self.tokens):
            if _kind(text) == "bad":
                message, offset = f"unexpected character {text!r}", starts[i]
                break
        line = source.count("\n", 0, offset) + 1
        raise ExprSyntaxError(message, line, offset - source.rfind("\n", 0, offset))

    def fail(self, expected: str) -> NoReturn:
        """Raise "expected ..., got" the current token; a property reference shows as `self`."""
        text = self.text
        got = repr("self" if _kind(text) == "ref" else text) if text else "end of input"
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
        text = self.text
        self.pos += 1
        self.text = self.tokens[self.pos]
        return text

    def expect(self, text: str) -> None:
        if self.text != text:
            self.fail(f"'{text}'")
        self.advance()

    def parse(self) -> Expr:
        e = self.expr()
        if self.text:
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
            e = self.operand()
        while True:
            row = _BINARY.get(self.text)
            if row is None or not lowest <= row.prec <= highest:
                return e
            e = row.node(self.operator(), e, self.binary(row.prec + 1))
            highest = row.prec - 1 if row.node is Compare else row.prec

    def operand(self) -> Expr:
        """A unary minus and its operand, or a primary.  A leaf is made
        once per key of `leaves` and consumed here without a call."""
        pos, text = self.pos, self.text
        first = text[:1]
        word = first in _IDENT_START
        if word and "." in text:
            _, prop, attr = text.split(".")
            prop, attr = prop.strip(), attr.strip()
            if attr not in REF_ATTRS:
                self.error(
                    f"unknown property accessor {attr!r} (expected one of {', '.join(REF_ATTRS)})",
                    len(text) - len(attr),
                )
            key = (PropRef, prop, attr)
        elif first.isdecimal():
            key = (Num, text)
        elif word and text not in _KEYWORDS:
            if self.tokens[pos + 1] == "(":
                self.error(f"unknown function {text!r}")
            key = (ParamRef, text)
        elif text == "(":
            self.advance()
            e = self.expr()
            self.expect(")")
            return e
        elif text == "-":
            self.operator()
            self.nest()
            e = self.operand()
            self.depth -= 1
            return Num(-e.value) if type(e) is Num else Arith("-", Num(0.0), e)
        elif first == '"' and len(text) > 1:
            self.advance()
            return Text(_unescape(text))
        elif text == "self":
            return self.propref()
        elif text in AGGREGATES:
            return self.aggregate()
        else:
            self.fail("an expression")
        node = self.leaves.get(key)
        if node is None:
            node = self.leaves[key] = self.leaf(key)
        self.pos = pos + 1
        self.text = self.tokens[pos + 1]
        return node

    def leaf(self, key: tuple) -> Expr:
        """The node of a leaf key: its type, then its fields' values, or
        for a number its literal text."""
        if key[0] is not Num:
            return key[0](*key[1:])
        value = float(key[1])
        if not math.isfinite(value):
            self.error("number out of range")
        return Num(value)

    def propref(self) -> NoReturn:
        """A `self` that starts no "ref" token: the first of its parts that
        is missing.  Each part present is an IDENT or a ".", so the last
        one, had it been an IDENT, would have made the whole a "ref"."""
        self.advance()  # "self"
        self.expect(".")
        if _kind(self.text) != "ident":
            self.fail("a property name")
        self.advance()
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
    if not isinstance(source, str):
        raise TypeError(f"parse takes a str, not {type(source).__name__}")
    return _Parser(source, {} if leaves is None else leaves).parse()


# --- printer -----------------------------------------------------------------


def print_expr(e: Expr) -> str:
    """Render `e` with minimal parentheses; parse(print_expr(e)) == e."""
    return _NODES[type(e)].print(e)


def _child(e: Expr, parent_prec: int, tight: bool) -> str:
    node = _NODES[type(e)]
    p = _BINARY[e.op].prec if node.prec is None else node.prec
    if p < parent_prec or (tight and p == parent_prec):
        return f"({node.print(e)})"
    return node.print(e)


def _print_num(e: Num) -> str:
    if e.value == int(e.value) and abs(e.value) < 1e16:
        return str(int(e.value))
    return repr(e.value)


def _print_binary(e: Arith | Compare | Connective) -> str:
    p, tight = _BINARY[e.op].prec, type(e) is Compare  # comparisons do not chain
    return f"{_child(e.left, p, tight)} {e.op} {_child(e.right, p, True)}"


# --- normal form -------------------------------------------------------------

_LITERALS = (Num, Text)


def normalize(e: Expr) -> Expr:
    """Canonical normal form: commutative operands sorted, double negation
    removed, and each operator over literals replaced by the number
    `evaluate` gives it, unless evaluation fails or overflows (so that
    every normal form prints).  Idempotent and semantics-preserving."""
    return _normalize(e)[0]


def normal_form(e: Expr) -> tuple[Expr, bool]:
    """`normalize(e)`, and whether it is `equal_up_to_order` to `e`: true
    unless normalizing removed a double negation, folded an operator over
    literals or pruned an `if`, each of which may change a value or an
    error."""
    node, _, reordered_only = _normalize(e)
    return node, reordered_only


def _normalize(e: Expr) -> tuple:
    """`normalize(e)`, its order key, a fixed total order on subtrees
    (variant tag, then payload, then the children's keys), and whether
    it differs from `e` only in operand order."""
    return _NODES[type(e)].normalize(e)


def _normalize_binary(tag: int):  # the rule of a binary type whose keys start with `tag`
    def rule(e: Arith | Compare | Connective) -> tuple:
        left, right = _normalize(e.left), _normalize(e.right)
        if _BINARY[e.op].commutative and right[1] < left[1]:
            left, right = right, left
        if left[0] is not e.left or right[0] is not e.right:
            e = type(e)(e.op, left[0], right[0])
        literal = isinstance(left[0], _LITERALS) and isinstance(right[0], _LITERALS)
        return _fold(e, (tag, e.op, left[1], right[1]), left[2] and right[2], literal)
    return rule


def _normalize_not(e: Not) -> tuple:
    operand, key, same = _normalize(e.operand)
    if type(operand) is Not:
        return operand.operand, key[1], False
    e = e if operand is e.operand else Not(operand)
    return _fold(e, (6, key), same, isinstance(operand, _LITERALS))


def _fold(e: Expr, key: tuple, same: bool, literal: bool) -> tuple:
    """`_normalize(e)` for an operator over normalized operands, folded if `literal`."""
    if literal:
        try:
            value = evaluate(e, _NO_CONTEXT)
        except EvalError:
            return e, key, same
        if math.isfinite(value):
            return Num(value), (0, value), False
    return e, key, same


def _normalize_aggregate(e: Aggregate) -> tuple:
    arg, key, same = _normalize(e.arg)
    return e if arg is e.arg else Aggregate(e.fn, arg), (8, e.fn, key), same


def _normalize_if(e: If) -> tuple:
    cond, then, orelse = map(_normalize, (e.condition, e.then, e.orelse))
    if type(cond[0]) is Num:
        kept = then if cond[0].value > 0 else orelse
        return kept[0], kept[1], False
    if cond[0] is not e.condition or then[0] is not e.then or orelse[0] is not e.orelse:
        e = If(cond[0], then[0], orelse[0])
    return e, (9, cond[1], then[1], orelse[1]), cond[2] and then[2] and orelse[2]


def _not_a_node(e, ctx: EvalContext | None = None) -> NoReturn:
    raise TypeError(f"not an expression node: {e!r}")


class _ByType(dict):
    """A table keyed by node type; any other type reads `missing`."""

    def __init__(self, missing, rows: dict):
        super().__init__(rows)
        self.missing = missing

    def __missing__(self, kind: type):
        return self.missing


# Each node type -> the rules `print_expr` and `_normalize` apply to its
# nodes, and their binding level: the atoms' by default, None for a binary
# node (its operator's).  Any other type reads rules that raise.
_Node = namedtuple("_Node", "print normalize prec", defaults=(_PREC_ATOM,))
_NODES = _ByType(_Node(_not_a_node, _not_a_node), {
    Num: _Node(_print_num, lambda e: (e, (0, e.value), True)),
    Text: _Node(lambda e: f'"{_escape(e.value)}"', lambda e: (e, (1, e.value), True)),
    PropRef: _Node(lambda e: f"self.{e.prop}.{e.attr}", lambda e: (e, (2, e.prop, e.attr), True)),
    ParamRef: _Node(lambda e: e.name, lambda e: (e, (3, e.name), True)),
    Arith: _Node(_print_binary, _normalize_binary(4), None),
    Compare: _Node(_print_binary, _normalize_binary(5), None),
    Not: _Node(lambda e: f"not {_child(e.operand, _PREC_NOT, False)}", _normalize_not, _PREC_NOT),
    Connective: _Node(_print_binary, _normalize_binary(7), None),
    Aggregate: _Node(lambda e: f"{e.fn}({print_expr(e.arg)})", _normalize_aggregate),
    If: _Node(  # `then` and `else` delimit the parts: parentheses would only add nesting
        lambda e: "if %s then %s else %s" % tuple(map(print_expr, (e.condition, e.then, e.orelse))),
        _normalize_if,
        _PREC_IF,
    ),
})


def expr_equal(a: Expr, b: Expr) -> bool:
    """Structural equality of normal forms."""
    return normalize(a) == normalize(b)


def equal_up_to_order(a: Expr, b: Expr) -> bool:
    """`a` and `b` are the same tree once the operands of each commutative
    operator of `_BINARY` are put in one order.  Such trees evaluate to
    equal values for every subject and arguments, since IEEE `+` and `*`
    commute exactly, `and` and `or` take the minimum and maximum of two
    degrees (never NaN), and `==` and `!=` are symmetric.  Both evaluate
    the same nodes, so they raise `EvalError` for the same contexts,
    though the message may name a different failing operand.

    Each pair of subtrees, one of `a` and one of `b`, is compared at most
    once, since only its parent pair compares it."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (Arith, Compare, Connective)):
        return a.op == b.op and (
            (equal_up_to_order(a.left, b.left) and equal_up_to_order(a.right, b.right))
            or (
                _BINARY[a.op].commutative
                and equal_up_to_order(a.left, b.right)
                and equal_up_to_order(a.right, b.left)
            )
        )
    kids = children(a)
    if not kids:
        return a == b
    return getattr(a, "fn", None) == getattr(b, "fn", None) and all(
        map(equal_up_to_order, kids, children(b))
    )


# --- evaluation --------------------------------------------------------------


@_frozen
class EvalContext:
    """Evaluation context: a subject exposing find_property(name) plus
    named argument values for parameter references."""

    subject: Any = None
    arguments: Mapping[str, Value] = field(default_factory=dict)


_NO_CONTEXT = EvalContext()


def evaluate(e: Expr, ctx: EvalContext) -> Value:
    """The value of `e` for the subject and arguments of `ctx`.

    Both operands of a binary operator are evaluated, the left first, so
    an error in either is raised even when the other decides the value
    (`0 and self.m.value >= 1` raises without a property `m`); when both
    fail, the left one's error is reported.  `if` evaluates only the
    branch it takes.  The operand of `not`, those of `and` and `or`, and
    an `if` condition must be degrees in [0, 1].  `_RULES` maps each node
    type to its rule; a rule evaluates children through `_RULES` and tests
    a float operand inline, so a node costs one dict read and one call."""
    return _RULES[type(e)](e, ctx)


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
    if e.attr == "value":
        try:
            value = prop.value
        except AttributeError:  # a qualitative property: its stored degree
            value = prop.degree
            if value is None:
                raise EvalError(f"property {e.prop!r} has no stored degree", e) from None
        if type(value) is float:
            return value
        if value is None:
            raise EvalError(f"property {e.prop!r} has no concrete value", e)
        if isinstance(value, tuple):
            raise EvalError(f"property {e.prop!r} is list-valued; use .values", e)
        return value
    if e.attr == "units":
        units = getattr(prop, "units", None)  # only a quantitative property has units
        if units is None:
            raise EvalError(f"property {e.prop!r} has no units", e)
        return units
    value = getattr(prop, "value", None)
    if not isinstance(value, tuple):
        raise EvalError(f"property {e.prop!r} is not list-valued", e)
    return value if e.attr == "values" else float(len(value))


def _eval_arith(e: Arith, ctx: EvalContext) -> float:
    a = _RULES[type(e.left)](e.left, ctx)
    if type(a) is not float:
        a = _number(a, e.left)
    b = _RULES[type(e.right)](e.right, ctx)
    if type(b) is not float:
        b = _number(b, e.right)
    if b == 0 and e.op == "/":
        raise EvalError("division by zero", e)
    return _MEANINGS[e.op](a, b)


def _eval_compare(e: Compare, ctx: EvalContext) -> float:
    a = _RULES[type(e.left)](e.left, ctx)
    b = _RULES[type(e.right)](e.right, ctx)
    if type(a) is not float or type(b) is not float:  # two floats are the common case
        if isinstance(a, str) and isinstance(b, str):
            if e.op not in ("==", "!="):
                raise EvalError(f"ordering '{e.op}' is not defined for text", e)
        elif not (_is_number(a) and _is_number(b)):
            raise EvalError("comparison needs two numbers or two texts", e)
    return 1.0 if _MEANINGS[e.op](a, b) else 0.0


def _eval_not(e: Not, ctx: EvalContext) -> float:
    v = _RULES[type(e.operand)](e.operand, ctx)
    if type(v) is not float or not 0.0 <= v <= 1.0:
        v = _degree(v, e.operand)
    return 1.0 - v


def _eval_connective(e: Connective, ctx: EvalContext) -> float:
    a = _RULES[type(e.left)](e.left, ctx)
    if type(a) is not float or not 0.0 <= a <= 1.0:
        a = _degree(a, e.left)
    b = _RULES[type(e.right)](e.right, ctx)
    if type(b) is not float or not 0.0 <= b <= 1.0:
        b = _degree(b, e.right)
    return _MEANINGS[e.op](a, b)


def _eval_aggregate(e: Aggregate, ctx: EvalContext) -> float:
    arg = _RULES[type(e.arg)](e.arg, ctx)
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
    c = _RULES[type(e.condition)](e.condition, ctx)
    if type(c) is not float or not 0.0 <= c <= 1.0:
        c = _degree(c, e.condition)
    branch = e.then if c > 0 else e.orelse
    return _RULES[type(branch)](branch, ctx)


_RULES = _ByType(_not_a_node, {
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
})
_MEANINGS = {op: row.meaning for op, row in _BINARY.items()}


def _is_number(v: Value) -> bool:
    """A bool is not a number, although Python makes it an int."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _number(v: Value, node: Expr) -> float:
    if _is_number(v):
        return float(v)
    raise EvalError("expected a number", node)


def _degree(v: Value, node: Expr) -> float:
    n = _number(v, node)
    if not 0.0 <= n <= 1.0:
        raise EvalError(f"degree out of range: {n}", node)
    return n
