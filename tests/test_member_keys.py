"""Differential test of the model's judgments against oracles defined only
on `helpers.member_key`.

Seeded random classes and objects are paired with variants of themselves.
A variant keeps, restates or redraws each member, so the pairs include
members that are equivalent but differ in value, degree or parameter
names: there, state equality and equivalence must disagree.
"""

import dataclasses
import random

from oodn import (
    ClassDef,
    Core,
    Method,
    ObjectInstance,
    Projection,
    QuantitativeProperty,
    Signature,
    Specification,
    objects_similar,
    subsumes,
)
from oodn.expr import param_refs
from oodn.model import (
    class_state_equal,
    classes_member_equivalent,
    object_state_equal,
)

from .helpers import member_key, random_member

_NAMES = ["p1", "p2", "p3", "p4", "f1", "f2", "f3"]

# --- oracles -------------------------------------------------------------------


def _state_key(m):
    if isinstance(m, Method):
        return (member_key(m), m.parameters)
    if isinstance(m, QuantitativeProperty):
        return (member_key(m), m.value)
    return (member_key(m), m.degree)


def _members(part):
    return list(part.specification) + list(part.signature)


def _covers(big, small, key):
    """Every member of `small` has a member of `big` with the same key."""
    return all(any(key(s) == key(b) for b in big) for s in small)


def _same(a, b, key):
    return _covers(a, b, key) and _covers(b, a, key)


def _parts_match(a: ClassDef, b: ClassDef, key) -> bool:
    if (a.core is None) != (b.core is None):
        return False
    if a.core is not None and not _same(_members(a.core), _members(b.core), key):
        return False
    if len(a.projections) != len(b.projections):
        return False
    return all(
        _same(_members(pa), _members(pb), key)
        for pa, pb in zip(a.projections, b.projections)
    )


def oracle_subsumes(g: ClassDef, s: ClassDef) -> bool:
    gm, sm = _members(g.core), _members(s.core)
    return _covers(sm, gm, member_key) and not _covers(gm, sm, member_key)


def oracle_objects_similar(a, b):
    return _same(_members(a), _members(b), member_key)


def oracle_object_state_equal(a, b):
    return _same(_members(a), _members(b), _state_key)


# --- generators ----------------------------------------------------------------


def _restate(rng, m, concrete):
    """Same equivalence key as `m`, possibly a different state."""
    if isinstance(m, Method):
        if m.body is not None and param_refs(m.body):
            return m
        prefix = rng.choice("xy")
        return dataclasses.replace(
            m, parameters=tuple(f"{prefix}{i}" for i in range(m.arity))
        )
    if isinstance(m, QuantitativeProperty):
        values = [1.0, 2.0, (1.0, 2.0)] + ([] if concrete else [None])
        return dataclasses.replace(m, value=rng.choice(values))
    degrees = [0.5, 1.0] + ([None] if m.verification is not None else [])
    return dataclasses.replace(m, degree=rng.choice(degrees))


def _draw(rng, name, concrete):
    return _restate(rng, random_member(rng, name), concrete)


def _variant(rng, members, concrete, spare=()):
    """Keep, restate, redraw or drop each member; maybe add one named from
    `spare`."""
    out = []
    for m in members:
        r = rng.random()
        if r < 0.35:
            out.append(m)
        elif r < 0.7:
            out.append(_restate(rng, m, concrete))
        elif r < 0.9:
            out.append(_draw(rng, m.name, concrete))
    if spare and rng.random() < 0.3:
        out.append(_draw(rng, rng.choice(spare), concrete))
    return out


def _spare(members):
    return [n for n in _NAMES if n not in {m.name for m in members}]


def _split(members):
    props = tuple(m for m in members if not isinstance(m, Method))
    methods = tuple(m for m in members if isinstance(m, Method))
    return Specification(props), Signature(methods)


def _random_members(rng, names, concrete):
    return [_draw(rng, n, concrete) for n in names]


def _random_class(rng):
    """A core-only or inhomogeneous class over disjoint name groups."""
    names = rng.sample(_NAMES, rng.randint(1, len(_NAMES)))
    groups = [names[i::3] for i in range(3)]
    groups = [g for g in groups if g]
    with_core = rng.random() < 0.7
    core_members = _random_members(rng, groups[0], False) if with_core else None
    rest = groups[1:] if with_core else groups
    n_proj = rng.randint(0 if with_core else 1, len(rest))
    projections = [_random_members(rng, g, False) for g in rest[:n_proj]]
    return core_members, projections


def _build_class(name, core_members, projections):
    core = None if core_members is None else Core(*_split(core_members))
    prs = tuple(
        Projection(f"{name}{i}", *_split(ms)) for i, ms in enumerate(projections)
    )
    return ClassDef(name, core, prs)


def _class_pairs(seed):
    rng = random.Random(seed)
    core_members, projections = _random_class(rng)
    a = _build_class("a", core_members, projections)
    b_core = None if core_members is None else _variant(rng, core_members, False)
    b_prs = [v for v in (_variant(rng, ms, False) for ms in projections) if v]
    if not b_prs and not b_core:
        b_core, b_prs = core_members, projections
    return a, _build_class("b", b_core, b_prs)


def _core_only_pairs(seed):
    rng = random.Random(seed)
    names = rng.sample(_NAMES, rng.randint(1, len(_NAMES)))
    members = _random_members(rng, names, False)
    a = ClassDef("a", Core(*_split(members)))
    b_members = _variant(rng, members, False, _spare(members)) or members
    return a, ClassDef("b", Core(*_split(b_members)))


def _object_pairs(seed):
    rng = random.Random(seed)
    names = rng.sample(_NAMES, rng.randint(0, len(_NAMES)))
    members = _random_members(rng, names, True)
    a = ObjectInstance("a", *_split(members))
    b = ObjectInstance("b", *_split(_variant(rng, members, True, _spare(members))))
    return a, b


SEEDS = range(400)


# --- tests ---------------------------------------------------------------------


def _check_both_ways(a, b, judgment, oracle):
    for x, y in ((a, b), (b, a), (a, a), (b, b)):
        assert judgment(x, y) == oracle(x, y), (x, y)


def test_subsumes_matches_oracle():
    outcomes = set()
    for seed in SEEDS:
        a, b = _core_only_pairs(seed)
        _check_both_ways(a, b, subsumes, oracle_subsumes)
        outcomes.add(subsumes(a, b) or subsumes(b, a))
    assert outcomes == {True, False}


def test_class_judgments_match_oracle():
    split = 0
    for seed in SEEDS:
        a, b = _class_pairs(seed)
        _check_both_ways(
            a, b, classes_member_equivalent, lambda x, y: _parts_match(x, y, member_key)
        )
        _check_both_ways(
            a, b, class_state_equal, lambda x, y: _parts_match(x, y, _state_key)
        )
        split += classes_member_equivalent(a, b) and not class_state_equal(a, b)
    assert split > 0


def test_object_judgments_match_oracle():
    split = 0
    for seed in SEEDS:
        a, b = _object_pairs(seed)
        _check_both_ways(a, b, objects_similar, oracle_objects_similar)
        _check_both_ways(a, b, object_state_equal, oracle_object_state_equal)
        split += objects_similar(a, b) and not object_state_equal(a, b)
    assert split > 0
