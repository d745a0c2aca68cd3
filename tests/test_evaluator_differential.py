"""`oodn.expr.evaluate` against the frozen reference evaluator.

Both run on `tests/strategies.py` trees, well-sorted or not, with a random
subject (scalar, list-valued, valueless, qualitative and missing
properties, or no subject at all) and random arguments (numbers, bools,
text, lists, or unbound), and again in a fixed panel of such contexts.
For every input the two must give the same value of the same type, or
raise the same exception with the same message and, for an `EvalError`,
the same offending node.  A derandomized sweep checks that every
`EvalError` message template is reached.
"""

from __future__ import annotations

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodn.expr import Arith, EvalContext, EvalError, Num, evaluate
from oodn.model import QualitativeProperty, QuantitativeProperty

from . import reference_evaluator
from .strategies import expressions, unsorted_expressions

# Every message `evaluate` can put in an `EvalError`, one pattern each.
_TEMPLATES = {
    "unresolved parameter": r"unresolved parameter '\w+'",
    "no subject": r"no subject to resolve self\.\w+",
    "no property": r"subject has no property '\w+'",
    "no units": r"property '\w+' has no units",
    "no concrete value": r"property '\w+' has no concrete value",
    "list-valued": r"property '\w+' is list-valued; use \.values",
    "no stored degree": r"property '\w+' has no stored degree",
    "not list-valued": r"property '\w+' is not list-valued",
    "division by zero": r"division by zero",
    "text ordering": r"ordering '(<|<=|>|>=)' is not defined for text",
    "mixed comparison": r"comparison needs two numbers or two texts",
    "aggregate of a non-list": r"(sum|min|max|count|all_equal) expects a list of numbers",
    "aggregate of an empty list": r"(sum|min|max|all_equal) of an empty list",
    "not a number": r"expected a number",
    "degree out of range": r"degree out of range: \S+",
}


_PROPS = ("p1", "p2", "side_sizes")
_PARAMS = ("x", "y", "width", "height", "d1")

# Each kind of property: scalar, list-valued, valueless, qualitative with
# and without a stored degree, and missing.
_KINDS = (
    lambda name: QuantitativeProperty(name, "cm", 0.0),
    lambda name: QuantitativeProperty(name, "cm", 2.0),
    lambda name: QuantitativeProperty(name, "cm", (1.0, 2.0)),
    lambda name: QuantitativeProperty(name, "cm", (3.0, 3.0)),
    lambda name: QuantitativeProperty(name, "cm"),
    lambda name: QualitativeProperty(name, degree=0.25),
    lambda name: QualitativeProperty(name, verification=Num(1.0)),
    lambda name: None,
)
_ARGUMENTS = (0.0, 0.5, 1.0, -3.0, 0, 5, True, "cm", "kg", (), (1.0, 2.0), None)


class _Subject:
    """A subject with the given properties, looked up by name."""

    def __init__(self, props):
        self._props = {p.name: p for p in props if p is not None}

    def find_property(self, name):
        return self._props.get(name)


def _context(subject_kinds, values) -> EvalContext:
    """Property `_PROPS[i]` of kind `subject_kinds[i]` (no subject when
    `subject_kinds` is None) and parameter `_PARAMS[i]` bound to
    `values[i]` (unbound when None)."""
    subject = None
    if subject_kinds is not None:
        subject = _Subject([_KINDS[k](name) for k, name in zip(subject_kinds, _PROPS)])
    arguments = {name: v for name, v in zip(_PARAMS, values) if v is not None}
    return EvalContext(subject=subject, arguments=arguments)


# Every tree also runs in a panel of contexts, in each of which all
# properties share one kind and all parameters one value, so that one
# case reaches many error paths.
_PANEL = [
    _context(None if k is None else (k,) * len(_PROPS), (v,) * len(_PARAMS))
    for k, v in zip([*range(len(_KINDS)), None] * 2, _ARGUMENTS * 2)
]

_cases = st.tuples(
    st.one_of(expressions(), unsorted_expressions()),
    st.one_of(st.tuples(*[st.integers(0, len(_KINDS) - 1)] * len(_PROPS)), st.none()),
    st.tuples(*[st.sampled_from(_ARGUMENTS)] * len(_PARAMS)),
)


def _outcome(evaluate_fn, tree, ctx):
    try:
        return "value", evaluate_fn(tree, ctx)
    except Exception as exc:  # every exception must match, not only EvalError
        return "error", exc


def _template(message: str) -> str:
    matches = [name for name, pattern in _TEMPLATES.items() if re.fullmatch(pattern, message)]
    assert len(matches) == 1, f"message {message!r} matches templates {matches}"
    return matches[0]


def _agree(tree, ctx) -> str | None:
    """Check one tree in one context; return the template of its
    `EvalError`, if any."""
    kind, got = _outcome(evaluate, tree, ctx)
    ref_kind, want = _outcome(reference_evaluator.evaluate, tree, ctx)
    assert kind == ref_kind, (got, want)
    if kind == "value":
        nan = got != got and want != want
        assert type(got) is type(want) and (got == want or nan), (got, want)
        return None
    assert (type(got), str(got)) == (type(want), str(want))
    if not isinstance(got, EvalError):
        return None
    assert got.node is want.node
    return _template(str(got))


def _agree_everywhere(case) -> set:
    """Check a tree in its drawn context and in every panel context;
    return the templates of the `EvalError`s raised."""
    tree, subject_kinds, values = case
    contexts = [_context(subject_kinds, values), *_PANEL]
    return {_agree(tree, ctx) for ctx in contexts} - {None}


@settings(max_examples=300, deadline=None)
@given(case=_cases)
def test_evaluate_matches_reference(case):
    _agree_everywhere(case)


def test_every_error_template_is_reached():
    reached = set()

    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(case=_cases)
    def sweep(case):
        reached.update(_agree_everywhere(case))

    sweep()
    assert reached == set(_TEMPLATES)


@pytest.mark.parametrize("tree", [object(), "1", Arith("+", Num(1.0), 2.0)], ids=repr)
def test_non_node_is_a_type_error(tree):
    for evaluate_fn in (evaluate, reference_evaluator.evaluate):
        with pytest.raises(TypeError, match="^not an expression node: "):
            evaluate_fn(tree, EvalContext())
