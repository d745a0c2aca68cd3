"""`oodn.expr.parse` against the frozen reference parser.

For every input the two must give the same tree, or raise the same error
type with the same message, line and column.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodn.expr import parse, print_expr

from . import reference_parser
from .strategies import expressions

# Grammar fragments, including ones that lex differently when glued to a
# neighbour ("1e" + "3", "x" + "and") and ones that fail only later.
_FRAGMENTS = [
    "0", "1", "2.5", "1e3", "1e", "3", "1e400", "0.1", "007", "\u0663",
    '"cm"', '"a b"', '"q\\"x"', '"n\\n"', '"two\nlines"', '"\\\\"', '"a\\\nb"',
    "x", "y", "d1", "_p", "self", ".", "p1", "side_sizes", "value", "units",
    "values", "count", "size", "self.p.value", "self.", "selfx", "valuex", ".value",
    "(", ")", ",", "+", "-", "*", "/", "==", "!=", "<", "<=", ">", ">=",
    "and", "or", "not", "if", "then", "else",
    "sum", "min", "max", "all_equal", "median",
]
_SPACES = ["", "", " ", " ", "\n", "\t", "  \n  ", "\r\n"]
_BAD = ["@", "#", "\\", "%", "!", "=", '"', "'", "\u00e9", "$", "\0", "[", "{", ":", ";"]
# Runs long enough to reach the nesting and operator limits.
_LONG = [
    "(" * 66, ")" * 66, "- " * 66, "not " * 66, "if x then " * 33,
    "sum(" * 66, "x + " * 130, "x\n* " * 130, "x > 0 and " * 130,
]
_ATOMS = [
    ["1"], ["2.5"], ["1e3"], ["x"], ["d1"], ['"cm"'], ['"two\nlines"'],
    ["self", ".", "p1", ".", "value"], ["self", ".", "side_sizes", ".", "values"],
    ["self", ".", "if", ".", "count"], ["self", ".", "_q", ".", "units"],
]
_BAD_ATOMS = [
    ["1e400"], ["self", ".", "p", ".", "size"], ["median", "(", "x", ")"],
    ["self", ".", "p"], ["self", ".", ".", "p", ".", "value"], ["self", ".", "p", ".", "1"],
]
_BINOPS = ["+", "-", "*", "/", "==", "!=", "<", "<=", ">", ">=", "and", "or"]


def _sentence(rng: random.Random, depth: int = 0) -> list[str]:
    """The tokens of a random expression, well formed but for a few atoms."""
    form = rng.randrange(7) if depth < 4 else 0
    if form == 0:
        return list(rng.choice(_BAD_ATOMS if rng.random() < 0.03 else _ATOMS))
    e = _sentence(rng, depth + 1)
    if form == 1:
        return e + [rng.choice(_BINOPS)] + _sentence(rng, depth + 1)
    if form == 2:
        return ["(", *e, ")"]
    if form == 3:
        return [rng.choice(["-", "not"]), *e]
    if form == 4:
        return ["if", *e, "then", *_sentence(rng, depth + 1), "else", *_sentence(rng, depth + 1)]
    if form == 5:
        return [rng.choice(["sum", "count", "all_equal"]), "(", *e, ")"]
    return e


def _soup(rng: random.Random) -> str:
    """Random fragments, or a random sentence that is sometimes mutated."""
    if rng.random() < 0.5:
        tokens = []
        for _ in range(rng.randint(0, 8)):
            roll = rng.random()
            pool = _BAD if roll < 0.03 else _LONG if roll < 0.05 else _FRAGMENTS
            tokens.append(rng.choice(pool))
    else:
        tokens = _sentence(rng)
        for _ in range(rng.choice([0, 0, 1, 2])):
            i = rng.randrange(len(tokens) + 1)
            mutation = rng.randrange(3)
            if mutation == 0 and i < len(tokens):
                del tokens[i]
            else:
                pool = _BAD if mutation == 1 else _FRAGMENTS
                tokens.insert(i, rng.choice(pool))
    return "".join(tok + rng.choice(_SPACES) for tok in tokens)


def _outcome(parser, source: str):
    try:
        return ("tree", parser(source))
    except Exception as exc:  # compared below: type, message, position
        return (type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None))


def _assert_agree(source: str) -> None:
    assert _outcome(parse, source) == _outcome(reference_parser.parse, source), repr(source)


def test_seeded_soups_agree():
    rng = random.Random(20150401)
    kinds = set()
    for _ in range(20_000):
        source = _soup(rng)
        _assert_agree(source)
        kinds.add(_outcome(parse, source)[0])
    # The soups reach both trees and syntax errors.
    assert {"tree"} < kinds


# Whitespace at either end, or alone: a lexer that folds whitespace into
# each token must neither drop it nor turn it into a token of its own.
_EDGE_SPACING = [
    "", "   ", "x ", " x", "x\n", "1 +\t2 \x0b", "x $ ", '"a" ', "x" + " " * 10_000,
]


@pytest.mark.parametrize("source", _EDGE_SPACING, ids=lambda s: repr(s[:12]))
def test_edge_spacing_agrees(source):
    _assert_agree(source)


@settings(max_examples=300, deadline=None)
@given(expressions(), st.lists(st.sampled_from(_SPACES), min_size=1))
def test_hypothesis_trees_with_random_spacing_agree(tree, spaces):
    tokens = [t.text for t in reference_parser.tokenize(print_expr(tree))[:-1]]
    source = "".join(tok + spaces[i % len(spaces)] for i, tok in enumerate(tokens))
    _assert_agree(source)
    # Spacing that keeps every token apart gives back the tree itself.
    if "" not in spaces:
        assert parse(source) == tree


# Property references, well formed and not: a well-formed one may lex as
# one token, and every other must fail as the separate tokens do.
_REFERENCES = [
    "self.p.value", "selfx.p.value", "self.", "self..p.value", "self.p", "self.p.",
    "self.p.1", "self.p.value.q", "self.p.valuex", "self.if.value", "self.p.if",
    "self\r\n.p\t.value", "self . p . count", "self\n\n.p.\n\nsize",
    "self.p@.value", "self.@p.value", "self.p.@value", "self@.p.value", "self.p.value@",
    "self.p.size @", '"cm"self.p.units', 'self.p.units"cm"', "2self.p.value",
    "self.p.value2", "self.p.value.5", "1.self.p.value", "self.1p.value", "self.p.e3",
    "x self.p.value", "self.p.value self.q.value", "(self.p.value", "sum(self.p.values",
    "self.p.value(1)", "self .p .value == self. q. value",
]


@pytest.mark.parametrize("source", _REFERENCES, ids=repr)
def test_property_references_agree(source):
    _assert_agree(source)


_REF_PROPS = ["p", "p1", "_x", "if", "self", "value", "1", "", "@"]
_REF_ATTRS = ["value", "units", "values", "count", "valuex", "size", "if", "1", "", "$"]
_REF_SIDES = ["", "", "1 + ", "- ", "not ", "(", ")", "2", '"s"', "x ", "+ 1", ".q", "sum(", "@"]


def _reference_soup(rng: random.Random) -> str:
    """A property reference with random spacing between its parts, a part
    sometimes dropped or doubled, and something random on either side."""
    parts = [rng.choice(["self", "self", "selfx"]), ".", rng.choice(_REF_PROPS), ".",
             rng.choice(_REF_ATTRS)]
    if rng.random() < 0.2:
        i = rng.randrange(len(parts))
        if rng.random() < 0.5:
            parts.insert(i, parts[i])
        else:
            del parts[i]
    spaced = "".join(part + rng.choice(_SPACES) for part in parts)
    return rng.choice(_REF_SIDES) + spaced + rng.choice(_REF_SIDES)


def test_seeded_reference_soups_agree():
    rng = random.Random(20151014)
    kinds = set()
    for _ in range(5_000):
        source = _reference_soup(rng)
        _assert_agree(source)
        kinds.add(_outcome(parse, source)[0])
    assert {"tree"} < kinds
