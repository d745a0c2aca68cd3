"""Shared test utilities: compact builders, an independent member-matching
oracle for the set operations, random generators, a start network, and a
small DOT checker."""

from __future__ import annotations

import random
import re

from oodn import (
    ClassDef,
    Core,
    Method,
    ObjectInstance,
    QualitativeProperty,
    QuantitativeProperty,
    Signature,
    Specification,
)
from oodn.expr import normalize, parse, print_expr
from oodn.modifiers import AddProperty, Modifier, RemoveProperty, SetUnits, SetValue
from oodn.network import EXPLOITER_NAMES, Network

# --- builders ----------------------------------------------------------------


def qprop(name, units="cm", value=None):
    return QuantitativeProperty(name, units, value)


def qual(name, verification=None, degree=None):
    if isinstance(verification, str):
        verification = parse(verification)
    return QualitativeProperty(name, verification, degree)


def meth(name, params=(), body=None):
    if isinstance(body, str):
        body = parse(body)
    return Method(name, tuple(params), body)


def cls(name, *members):
    props = tuple(m for m in members if not isinstance(m, Method))
    methods = tuple(m for m in members if isinstance(m, Method))
    return ClassDef(name, Core(Specification(props), Signature(methods)))


def obj(identifier, *members, clone_index=0):
    props = tuple(m for m in members if not isinstance(m, Method))
    methods = tuple(m for m in members if isinstance(m, Method))
    return ObjectInstance(
        identifier, Specification(props), Signature(methods), clone_index
    )


# --- independent equivalence oracle ------------------------------------------


def member_key(m):
    """Equivalence key computed without the engine's judgment functions:
    kind + name + units for quantitative, kind + name + normalized
    expression text for qualitative / methods."""
    if isinstance(m, Method):
        body = None if m.body is None else print_expr(normalize(m.body))
        return ("method", m.name, len(m.parameters), body)
    if isinstance(m, QuantitativeProperty):
        return ("quant", m.name, m.units)
    v = None if m.verification is None else print_expr(normalize(m.verification))
    return ("qual", m.name, v)


def members_of(t: ClassDef):
    """name -> member for a core-only class."""
    assert t.core is not None and not t.projections
    out = {p.name: p for p in t.core.specification}
    out.update({m.name: m for m in t.core.signature})
    return out


def matched_names(a: ClassDef, b: ClassDef):
    """Names carried by equivalent members on both sides."""
    ma, mb = members_of(a), members_of(b)
    return {
        n for n in ma.keys() & mb.keys() if member_key(ma[n]) == member_key(mb[n])
    }


def oracle_union(a: ClassDef, b: ClassDef):
    """(core names, projection-a names, projection-b names)."""
    shared = matched_names(a, b)
    return (
        shared,
        set(members_of(a)) - shared,
        set(members_of(b)) - shared,
    )


def oracle_intersection(a, b):
    return matched_names(a, b)


def oracle_difference(a, b):
    return set(members_of(a)) - matched_names(a, b)


def result_core_names(t: ClassDef):
    if t.core is None:
        return set()
    return set(t.core.specification.names) | set(t.core.signature.names)


def projection_names(t: ClassDef):
    """Projection member-name sets in order."""
    return [
        set(pr.specification.names) | set(pr.signature.names) for pr in t.projections
    ]


# --- random class generation --------------------------------------------------

_PROP_NAMES = ["p1", "p2", "p3", "p4", "p5", "p6"]
_METHOD_NAMES = ["f1", "f2", "f3"]
_UNITS = ["cm", "kg", "s"]
_VERIFICATIONS = [
    "all_equal(self.p1.values)",
    "self.p1.value > 0",
    "min(self.p1.values) < max(self.p1.values)",
]


def random_member(rng, name):
    """A member for `name`; different draws for the same name may or may
    not be equivalent, producing partial overlap between classes."""
    if name.startswith("f"):
        arity = rng.randint(0, 2)
        params = tuple(f"x{i}" for i in range(arity))
        bodies = [None, "1 + 2", "sum(self.p1.values)"]
        if arity >= 1:
            bodies.append("x0 * 2")
        return meth(name, params, rng.choice(bodies))
    if rng.random() < 0.6:
        return qprop(name, units=rng.choice(_UNITS))
    if rng.random() < 0.5:
        return qual(name, verification=rng.choice(_VERIFICATIONS))
    return qual(name, degree=1.0)


def random_class(rng, name):
    """Core-only class with 1..8 members drawn from a shared name pool."""
    pool = _PROP_NAMES + _METHOD_NAMES
    k = rng.randint(1, 8)
    names = rng.sample(pool, k)
    return cls(name, *(random_member(rng, n) for n in names))


# --- a start network ----------------------------------------------------------


def helpers_network(seed: int, exploiters=EXPLOITER_NAMES) -> Network:
    """Five random classes, a class `Q`, five objects (one a clone) and
    five modifiers, class and object ones."""
    rng = random.Random(1000 + seed)
    classes = [random_class(rng, f"C{i}") for i in range(5)]
    classes.append(cls("Q", qprop("p1"), qual("p2", "self.p1.value > 0")))
    objects = [
        obj(f"o{i}", qprop("p1", value=float(i % 3)), qual("p2", degree=1.0))
        for i in range(4)
    ]
    objects.append(obj("o0", qprop("p1", value=0.0), clone_index=2))
    modifiers = [
        Modifier("kg", "class", (SetUnits("p1", "kg"),)),
        Modifier("grow", "class", (AddProperty(qprop("p7", "s")),)),
        Modifier("drop", "class", (RemoveProperty("p1"),)),
        Modifier("two", "object", (SetValue("p1", 2.0),)),
        Modifier("tag", "object", (AddProperty(qprop("p8", "kg", 1.0)),)),
    ]
    return Network(objects=objects, classes=classes, modifiers=modifiers, exploiters=exploiters)


# --- DOT well-formedness ------------------------------------------------------

_DOT_NODE = re.compile(r'^\s*"(?:[^"\\]|\\.)*"\s*\[[^\]]*\];$')
_DOT_EDGE = re.compile(r'^\s*"(?:[^"\\]|\\.)*"\s*->\s*"(?:[^"\\]|\\.)*"\s*\[[^\]]*\];$')


def check_dot(text):
    """Validate the DOT digraph shape; returns (node count, edge count)."""
    lines = text.strip().splitlines()
    assert lines[0] == "digraph oodn {"
    assert lines[-1] == "}"
    nodes = edges = 0
    for line in lines[1:-1]:
        if _DOT_EDGE.match(line):
            edges += 1
        elif _DOT_NODE.match(line):
            nodes += 1
        else:
            raise AssertionError(f"malformed DOT line: {line!r}")
    return nodes, edges
