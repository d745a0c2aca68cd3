"""The edit interpreter of `oodn.modifiers` agrees with the frozen copy in
`tests/reference_modifiers.py`.

Seeded random edit lists use all nine primitive edits over random classes
and objects.  Names are drawn mostly from the target's members and from
earlier additions, and sometimes from names it lacks, so the lists include
missing names, duplicate additions, edits that hit the wrong property kind,
properties and methods that share a name, and replacements that rename a
member.  Every list must give an equal result or the same error, type and
message, on both implementations.  `classify` must give the same kinds or
the same error on lists without `SetExpression`; with it, the reference
guessed the edit's target from the original members, so only the error
and the generating / destroying / commutable kinds are compared there.
Where the reference classified edits whose result cannot exist (a class
left with no member, an object given a quantity with no value), the
engine's `classify` must raise the error that applying the edits raises.
"""

from __future__ import annotations

import random
import re
from collections import Counter

import pytest

from oodn import modifiers
from oodn.errors import OodnError
from oodn.exploiters import class_difference
from oodn.expr import parse
from oodn.model import QuantitativeProperty
from oodn.modifiers import (
    AddMethod,
    AddProperty,
    Modifier,
    ModifierKind,
    RemoveMethod,
    RemoveProperty,
    ReplaceMethod,
    ReplaceProperty,
    SetExpression,
    SetUnits,
    SetValue,
    classify,
)

from . import reference_modifiers as reference
from .helpers import cls, meth, obj, qprop, qual, random_class

SEEDS = range(8)
LISTS_PER_SEED = 150

_NAMES = ("p1", "p2", "p3", "p4", "p5", "p6", "f1", "f2", "f3", "ghost")
_UNITS = ("cm", "kg", "s")
_DEGREE_EXPRS = tuple(
    parse(s) for s in ("self.p1.value > 0", "all_equal(self.p1.values)", "0.5")
)
_BODY_EXPRS = tuple(parse(s) for s in ("1 + 2", "sum(self.p1.values)", "x0 * 2"))
_EDIT_TYPES = (
    SetValue, SetUnits, SetExpression, AddProperty, RemoveProperty, ReplaceProperty,
    AddMethod, RemoveMethod, ReplaceMethod,
)
# A pattern for each error an edit list can end in.
_ERRORS = (
    "no property named", "no method named", ": property '.*' already exists",
    ": method '.*' already exists", "is not quantitative", "is not qualitative",
    "empty core", "concrete value",
)
_SIDE_KINDS = {ModifierKind.GENERATING, ModifierKind.DESTROYING, ModifierKind.COMMUTABLE}


def _random_property(rng, name):
    if rng.random() < 0.5:
        return qprop(name, rng.choice(_UNITS), rng.choice((None, 1.0, 2.5)))
    if rng.random() < 0.5:
        return qual(name, rng.choice(_DEGREE_EXPRS))
    return qual(name, degree=rng.choice((0.0, 0.5, 1.0)))


def _random_method(rng, name):
    arity = rng.randint(0, 2)
    return meth(name, tuple(f"x{i}" for i in range(arity)), rng.choice((None, "1 + 2")))


def _random_target(rng, kind):
    """A random class or object, and its property and method names."""
    core = random_class(rng, "t").core
    props, methods = list(core.specification), list(core.signature)
    if methods and rng.random() < 0.3:
        # A property that shares its name with a method.
        props.append(_random_property(rng, rng.choice(methods).name))
    names = ([p.name for p in props], [m.name for m in methods])
    if kind == "class":
        return cls("t", *props, *methods), names
    props = [
        qprop(p.name, p.units, rng.choice((1.0, 3.0)))
        if isinstance(p, QuantitativeProperty) else p
        for p in props
    ]
    return obj("o", *props, *methods), names


def _random_edits(rng, names):
    """1..5 edits.  A property edit mostly names a property of the target
    or of an earlier addition, and a method edit a method; otherwise a
    name is drawn from the whole pool."""
    props, methods = (list(x) for x in names)

    def name(pool):
        return rng.choice(pool) if pool and rng.random() < 0.85 else rng.choice(_NAMES)

    edits = []
    for _ in range(rng.randint(1, 5)):
        kind = rng.choice(_EDIT_TYPES)
        pool = methods if kind in (AddMethod, RemoveMethod, ReplaceMethod) else props
        if kind is SetValue:
            edit = SetValue(name(pool), rng.choice((1.0, 2.0, (1.0, 2.0))))
        elif kind is SetUnits:
            edit = SetUnits(name(pool), rng.choice(_UNITS))
        elif kind is SetExpression:
            edit = SetExpression(name(props + methods), rng.choice(_DEGREE_EXPRS + _BODY_EXPRS))
        elif kind in (RemoveProperty, RemoveMethod):
            edit = kind(name(pool))
        else:
            make = _random_property if pool is props else _random_method
            if kind in (AddProperty, AddMethod):
                new = make(rng, rng.choice(_NAMES))
                edit = kind(new)
            else:
                # A replacement keeps the member's name or renames it.
                old = name(pool)
                new = make(rng, rng.choice(_NAMES) if rng.random() < 0.4 else old)
                edit = kind(old, new)
            pool.append(new.name)
        edits.append(edit)
    return tuple(edits)


def _cases(seed):
    rng = random.Random(seed)
    for i in range(LISTS_PER_SEED):
        kind = "class" if i % 2 == 0 else "object"
        target, names = _random_target(rng, kind)
        yield Modifier(f"m{i}", kind, _random_edits(rng, names)), target


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except OodnError as e:
        return None, (type(e), str(e))


def _apply(impl, m, target):
    fn = impl.apply_to_class if m.target_kind == "class" else impl.apply_to_object
    return _outcome(fn, m, target)


@pytest.mark.parametrize("seed", SEEDS)
def test_apply_matches_reference(seed):
    for m, target in _cases(seed):
        assert _apply(modifiers, m, target) == _apply(reference, m, target), (m, target)


@pytest.mark.parametrize("seed", SEEDS)
def test_classify_matches_reference(seed):
    for m, target in _cases(seed):
        got, got_error = _outcome(classify, m, target)
        want, want_error = _outcome(reference.classify, m, target)
        apply_error = _apply(reference, m, target)[1]
        if want_error is None and apply_error is not None:
            # The reference classified edits whose result cannot exist;
            # the engine raises there, with the error applying them gives.
            want, want_error = None, apply_error
        assert got_error == want_error, (m, target)
        if got_error is not None:
            continue
        if any(isinstance(e, SetExpression) for e in m.edits):
            assert got & _SIDE_KINDS == want & _SIDE_KINDS, (m, target)
        else:
            assert got == want, (m, target)


def _renames(edit):
    if isinstance(edit, ReplaceProperty):
        return edit.replacement.name != edit.property_name
    return isinstance(edit, ReplaceMethod) and edit.replacement.name != edit.method_name


def test_cases_cover_every_outcome():
    """The lists run cleanly often enough, rename members, and reach every
    error of the edits and of the modified node."""
    outcomes = Counter()
    for seed in SEEDS:
        for m, target in _cases(seed):
            error = _apply(reference, m, target)[1]
            if error is None:
                outcomes["applied"] += 1
                outcomes["renamed"] += any(_renames(e) for e in m.edits)
            else:
                outcomes[next((w for w in _ERRORS if re.search(w, error[1])), error[1])] += 1
    assert outcomes["applied"] >= len(SEEDS) * LISTS_PER_SEED // 5, outcomes
    assert outcomes["renamed"] and all(outcomes[w] for w in _ERRORS), outcomes


def test_odd_targets_and_edits_match_reference():
    """A target of the other kind, a class that is not core-only, and an
    edit that is no primitive."""
    t = random_class(random.Random(0), "t")
    o = obj("o", qprop("p1", value=1.0))
    split = class_difference(cls("a", qprop("p1"), qprop("p2")), cls("b", qprop("p1"))).class_def
    to_objects = Modifier("m", "object", (SetValue("p1", 2.0),))
    to_classes = Modifier("m", "class", (SetValue("p1", 2.0),))
    junk = Modifier("m", "class", ("junk",))
    for fn, m, target in (
        ("apply_to_class", to_objects, t),
        ("apply_to_object", to_classes, o),
        ("apply_to_class", to_classes, split),
        ("apply_to_class", junk, t),
    ):
        got = _outcome(getattr(modifiers, fn), m, target)
        assert got[1] is not None and got == _outcome(getattr(reference, fn), m, target)
    assert _outcome(classify, junk, t) == _outcome(reference.classify, junk, t)
    assert _outcome(classify, to_classes, split) == _outcome(reference.classify, to_classes, split)
