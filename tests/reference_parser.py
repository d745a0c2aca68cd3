"""A frozen copy of the original expression lexer and parser, for tests only.

`oodn.expr.parse` is a faster rewrite of this code.  The differential test in
`test_parser_differential.py` holds the two to the same trees and the same
`ExprSyntaxError` messages, lines and columns.  Do not change this file to
follow the engine: it is the reference the engine is checked against.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from oodn.expr import (
    Aggregate,
    Arith,
    Compare,
    Connective,
    Expr,
    ExprSyntaxError,
    If,
    Not,
    Num,
    ParamRef,
    PropRef,
    Text,
)

REF_ATTRS = ("value", "units", "values", "count")
AGGREGATES = ("sum", "min", "max", "count", "all_equal")
CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")
MAX_DEPTH = 64
MAX_OPERATORS = 128

_KEYWORDS = frozenset(
    {"and", "or", "not", "if", "then", "else", "self"} | set(AGGREGATES)
)

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
    | (?P<string>"(?:[^"\\]|\\.)*")
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op><=|>=|==|!=|[<>+\-*/().,])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # number | string | ident | op | eof
    text: str
    line: int
    column: int


def tokenize(source: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {source[pos]!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        if kind != "ws":
            tokens.append(_Token(kind, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


def _unescape(raw: str) -> str:
    body = raw[1:-1]
    return (
        body.replace("\\\\", "\0")
        .replace('\\"', '"')
        .replace("\\n", "\n")
        .replace("\\t", "\t")
        .replace("\0", "\\")
    )


class _Parser:
    def __init__(self, source: str):
        self.tokens = tokenize(source)
        self.pos = 0
        self.depth = 0
        self.operators = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.cur
        self.pos += 1
        return tok

    def fail(self, message: str) -> None:
        tok = self.cur
        got = repr(tok.text) if tok.kind != "eof" else "end of input"
        raise ExprSyntaxError(f"{message}, got {got}", tok.line, tok.column)

    def at_op(self, *symbols: str) -> bool:
        return self.cur.kind == "op" and self.cur.text in symbols

    def at_word(self, *words: str) -> bool:
        return self.cur.kind == "ident" and self.cur.text in words

    def nest(self) -> None:
        self.depth += 1
        if self.depth > MAX_DEPTH:
            tok = self.cur
            raise ExprSyntaxError(
                f"expression nested more than {MAX_DEPTH} levels deep", tok.line, tok.column
            )

    def operator(self) -> _Token:
        self.operators += 1
        if self.operators > MAX_OPERATORS:
            tok = self.cur
            raise ExprSyntaxError(
                f"expression has more than {MAX_OPERATORS} operators", tok.line, tok.column
            )
        return self.advance()

    def expect_op(self, symbol: str) -> None:
        if not self.at_op(symbol):
            self.fail(f"expected '{symbol}'")
        self.advance()

    def expect_word(self, word: str) -> None:
        if not self.at_word(word):
            self.fail(f"expected '{word}'")
        self.advance()

    def expect_ident(self, what: str) -> str:
        if self.cur.kind != "ident":
            self.fail(f"expected {what}")
        return self.advance().text

    def parse(self) -> Expr:
        e = self.expr()
        if self.cur.kind != "eof":
            self.fail("expected end of input")
        return e

    def expr(self) -> Expr:
        self.nest()
        if self.at_word("if"):
            self.advance()
            cond = self.expr()
            self.expect_word("then")
            then = self.expr()
            self.expect_word("else")
            orelse = self.expr()
            e = If(cond, then, orelse)
        else:
            e = self.orexpr()
        self.depth -= 1
        return e

    def orexpr(self) -> Expr:
        e = self.andexpr()
        while self.at_word("or"):
            self.operator()
            e = Connective("or", e, self.andexpr())
        return e

    def andexpr(self) -> Expr:
        e = self.notexpr()
        while self.at_word("and"):
            self.operator()
            e = Connective("and", e, self.notexpr())
        return e

    def notexpr(self) -> Expr:
        if self.at_word("not"):
            self.advance()
            self.nest()
            e = Not(self.notexpr())
            self.depth -= 1
            return e
        return self.comparison()

    def comparison(self) -> Expr:
        e = self.additive()
        if self.cur.kind == "op" and self.cur.text in CMP_OPS:
            op = self.operator().text
            e = Compare(op, e, self.additive())
        return e

    def additive(self) -> Expr:
        e = self.multiplicative()
        while self.at_op("+", "-"):
            op = self.operator().text
            e = Arith(op, e, self.multiplicative())
        return e

    def multiplicative(self) -> Expr:
        e = self.unary()
        while self.at_op("*", "/"):
            op = self.operator().text
            e = Arith(op, e, self.unary())
        return e

    def unary(self) -> Expr:
        if self.at_op("-"):
            self.operator()
            self.nest()
            operand = self.unary()
            self.depth -= 1
            if isinstance(operand, Num):
                return Num(-operand.value)
            return Arith("-", Num(0.0), operand)
        return self.primary()

    def primary(self) -> Expr:
        tok = self.cur
        if tok.kind == "number":
            value = float(tok.text)
            if not math.isfinite(value):
                raise ExprSyntaxError("number out of range", tok.line, tok.column)
            self.advance()
            return Num(value)
        if tok.kind == "string":
            self.advance()
            return Text(_unescape(tok.text))
        if self.at_op("("):
            self.advance()
            e = self.expr()
            self.expect_op(")")
            return e
        if tok.kind == "ident":
            if tok.text == "self":
                return self.propref()
            if tok.text in AGGREGATES:
                return self.aggregate()
            if tok.text in _KEYWORDS:
                self.fail("expected an expression")
            nxt = self.tokens[self.pos + 1]
            if nxt.kind == "op" and nxt.text == "(":
                raise ExprSyntaxError(
                    f"unknown function {tok.text!r}", tok.line, tok.column
                )
            self.advance()
            return ParamRef(tok.text)
        self.fail("expected an expression")
        raise AssertionError("unreachable")

    def propref(self) -> Expr:
        self.expect_word("self")
        self.expect_op(".")
        prop = self.expect_ident("a property name")
        self.expect_op(".")
        tok = self.cur
        attr = self.expect_ident("one of value/units/values/count")
        if attr not in REF_ATTRS:
            raise ExprSyntaxError(
                f"unknown property accessor {attr!r} (expected one of {', '.join(REF_ATTRS)})",
                tok.line,
                tok.column,
            )
        return PropRef(prop, attr)

    def aggregate(self) -> Expr:
        tok = self.advance()
        fn = tok.text
        self.expect_op("(")
        arg = self.expr()
        if self.at_op(","):
            raise ExprSyntaxError(
                f"{fn} takes exactly one argument", self.cur.line, self.cur.column
            )
        self.expect_op(")")
        return Aggregate(fn, arg)


def parse(source: str) -> Expr:
    return _Parser(source).parse()
