"""Hypothesis strategies for expressions and core-only classes."""

from __future__ import annotations

from hypothesis import strategies as st

from oodn.expr import (
    AGGREGATES,
    CMP_OPS,
    REF_ATTRS,
    Aggregate,
    Arith,
    Compare,
    Connective,
    If,
    Not,
    Num,
    ParamRef,
    PropRef,
    Text,
)

from .helpers import cls, meth, qprop, qual

_IDENT = st.sampled_from(["x", "y", "width", "height", "d1"])
_PROP = st.sampled_from(["p1", "p2", "side_sizes"])

_finite = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6
)

_number_leaf = st.one_of(
    _finite.map(lambda v: Num(float(v))),
    _IDENT.map(ParamRef),
    st.tuples(_PROP, st.sampled_from(["value", "count"])).map(
        lambda t: PropRef(*t)
    ),
)

_list_ref = _PROP.map(lambda p: PropRef(p, "values"))


def _extend(grow):
    """One recursion layer over (number expr, degree expr) pairs."""
    number, degree = grow
    bigger_number = st.one_of(
        number,
        st.tuples(st.sampled_from(["+", "-", "*", "/"]), number, number).map(
            lambda t: Arith(*t)
        ),
        st.tuples(
            st.sampled_from(["sum", "min", "max", "count"]), _list_ref
        ).map(lambda t: Aggregate(*t)),
        st.tuples(degree, number, number).map(lambda t: If(*t)),
    )
    bigger_degree = st.one_of(
        degree,
        st.tuples(
            st.sampled_from(["==", "!=", "<", "<=", ">", ">="]), number, number
        ).map(lambda t: Compare(*t)),
        degree.map(Not),
        st.tuples(st.sampled_from(["and", "or"]), degree, degree).map(
            lambda t: Connective(*t)
        ),
        _list_ref.map(lambda r: Aggregate("all_equal", r)),
    )
    return bigger_number, bigger_degree


def expressions():
    """Well-sorted expressions of either sort, up to three levels deep."""
    number = _number_leaf
    degree = st.floats(min_value=0.0, max_value=1.0).map(lambda v: Num(float(v)))
    for _ in range(3):
        number, degree = _extend((number, degree))
    return st.one_of(number, degree)


_text_leaf = st.one_of(
    st.sampled_from(["cm", "kg", ""]).map(Text), _PROP.map(lambda p: PropRef(p, "units"))
)
_any_leaf = st.one_of(
    st.one_of(_finite, st.sampled_from([0.0, 0.5, 1.0, 2.0])).map(lambda v: Num(float(v))),
    _text_leaf,
    _IDENT.map(ParamRef),
    st.tuples(_PROP, st.sampled_from(REF_ATTRS)).map(lambda t: PropRef(*t)),
)


def _either(a, b):
    """A draw of `a` or of `b`, half the time each; `st.one_of(a, b)` would
    flatten the branches of `b` and draw `a` less often."""
    return st.tuples(st.booleans(), a, b).map(lambda t: t[1] if t[0] else t[2])


def _operators(sub):
    """One node of each operator type over `sub` trees.  A comparison
    operand is text half the time, and an aggregate takes a parameter half
    the time."""
    return st.one_of(
        st.tuples(st.sampled_from(["+", "-", "*", "/"]), sub, sub).map(lambda t: Arith(*t)),
        st.tuples(st.sampled_from(CMP_OPS), *[_either(_text_leaf, sub)] * 2).map(
            lambda t: Compare(*t)
        ),
        sub.map(Not),
        st.tuples(st.sampled_from(["and", "or"]), sub, sub).map(lambda t: Connective(*t)),
        st.tuples(
            st.sampled_from(AGGREGATES), _either(_IDENT.map(ParamRef), st.one_of(_list_ref, sub))
        ).map(lambda t: Aggregate(*t)),
        st.tuples(sub, sub, sub).map(lambda t: If(*t)),
    )


def unsorted_expressions():
    """Trees of every node type in any arrangement, well-sorted or not
    (text in arithmetic, units in comparisons, aggregates of scalars), for
    tests of evaluation and its errors: an operator over leaves or over
    operators over leaves."""
    return _operators(st.one_of(_any_leaf, _operators(_any_leaf)))


# --- classes -----------------------------------------------------------------

_MEMBER_VARIANTS = {
    "p1": [qprop("p1", "cm"), qprop("p1", "kg")],
    "p2": [qprop("p2", "cm"), qprop("p2", "deg")],
    "p3": [
        qual("p3", verification="all_equal(self.p1.values)"),
        qual("p3", verification="self.p2.value > 0"),
        qual("p3", degree=1.0),
    ],
    "p4": [qprop("p4", "s")],
    "f1": [
        meth("f1", (), "1 + 2"),
        meth("f1", ("a",), "a * 2"),
        meth("f1"),
    ],
    "f2": [meth("f2", ("a", "b"), "a + b"), meth("f2", ("a", "b"))],
}


@st.composite
def core_only_classes(draw, name="t"):
    names = draw(
        st.sets(st.sampled_from(sorted(_MEMBER_VARIANTS)), min_size=1, max_size=6)
    )
    members = [
        draw(st.sampled_from(_MEMBER_VARIANTS[n])) for n in sorted(names)
    ]
    return cls(name, *members)
