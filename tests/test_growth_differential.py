"""The growth functions of `oodn.network` agree with the frozen copy in
`tests/reference_growth.py`.

Seeded scripts of growth steps start from the polygons fixture and from
networks built with `tests/helpers.py`.  A script mixes all five
exploiters and both modifier kinds, with dedup on and off, explicit and
automatic clone indexes, object unions with repeats, absent results,
steps replayed on a later network, and steps that must fail.  Each step
runs on the same network through both implementations: a good step must
give an equal network with the same `objects`, `classes` and `relations`
tuples (order included), the same ref and the same result; a bad step
must raise the same exception type with the same message.
"""

from __future__ import annotations

import random

import pytest

from oodn import network
from oodn.errors import OodnError
from oodn.network import EXPLOITER_NAMES, Network, NodeRef, Relation, class_ref, object_ref

from . import reference_growth as reference
from .helpers import cls, helpers_network, obj, qprop

SEEDS = range(12)
STEPS = 40

CLASS_OPS = ("union", "intersection", "difference", "symmetric-difference")


def _outcome(impl, n: Network, step):
    name, args, kwargs = step
    try:
        out = getattr(impl, name)(n, *args, **kwargs)
    except OodnError as e:
        return None, e
    return (out if isinstance(out, tuple) else (out,)), None


def _check_step(n: Network, step) -> Network:
    """Run `step` on `n` both ways, assert they agree, return the next network."""
    want, want_error = _outcome(reference, n, step)
    got, got_error = _outcome(network, n, step)
    if want_error is not None:
        assert got_error is not None, f"{step}: expected {want_error!r}, got a result"
        assert type(got_error) is type(want_error), step
        assert str(got_error) == str(want_error), step
        return n
    assert got_error is None, f"{step}: unexpected {got_error!r}"
    (want_net, *want_rest), (got_net, *got_rest) = want, got
    assert got_net == want_net, step
    assert got_net.objects == want_net.objects, step
    assert got_net.classes == want_net.classes, step
    assert got_net.relations == want_net.relations, step
    assert got_net.modifiers == want_net.modifiers, step
    assert got_net.exploiters == want_net.exploiters, step
    assert (got_net is n) == (want_net is n), step
    assert got_rest == want_rest, step
    return got_net


# --- start networks ----------------------------------------------------------


def _starts(polygons):
    yield "polygons", polygons
    yield "helpers", helpers_network(0)
    yield "helpers-no-clone", helpers_network(1, EXPLOITER_NAMES - {"clone", "difference"})


# --- scripts -----------------------------------------------------------------


def _random_step(rng: random.Random, n: Network):
    classes = [class_ref(t) for t in n.classes]
    objects = [object_ref(o) for o in n.objects]
    dedup = rng.random() < 0.7
    kind = rng.choice(
        ["class-op"] * 4 + ["object-union"] * 2 + ["clone"] * 2 + ["modify"] * 4
        + ["add-object", "add-class", "declare", "infer", "bad-operands"]
    )
    if kind == "class-op":
        op = rng.choice(CLASS_OPS)
        k = rng.choice((2, 2, 2, 3)) if op == "union" else 2
        # Repeats on purpose: `difference(C, C)` is absent.
        operands = [rng.choice(classes) for _ in range(k)]
        return "apply_exploiter", (op, operands), {"dedup": dedup}
    if kind == "object-union":
        picks = rng.sample(objects, min(len(objects), rng.randint(1, 3)))
        operands = picks + [rng.choice(picks) for _ in range(rng.randint(0, 2))]
        rng.shuffle(operands)
        return "apply_exploiter", ("union", operands), {"dedup": dedup}
    if kind == "clone":
        index = rng.choice((None, None, 1, 2, 3))
        return "apply_exploiter", ("clone", [rng.choice(objects)]), {"clone_index": index}
    if kind == "modify":
        names = [m.name for m in n.modifiers] + ["ghost"]
        target = rng.choice(classes + objects)
        return "apply_modifier", (rng.choice(names), target), {"dedup": dedup}
    if kind == "add-object":
        base = rng.choice(objects)
        o = obj(base.name, qprop("p1", value=float(rng.randint(0, 3))),
                clone_index=rng.choice((0, 1, 4, 5)))
        if rng.random() < 0.3:
            # A plain identifier that displays as another object's clone.
            o = obj(f"{base.name}#{rng.randint(1, 3)}", qprop("p1", value=1.0))
        return "add_object", (o,), {}
    if kind == "add-class":
        name = rng.choice([t.name for t in n.classes] + [f"N{rng.randint(0, 3)}"]
                          + [f"{rng.choice(objects).name}#{rng.randint(1, 3)}"])
        return "add_class", (cls(name, qprop("p1"), qprop("p3", "kg")),), {}
    if kind == "declare":
        nodes = classes + objects + [NodeRef("class", "ghost")]
        r = Relation(rng.choice(nodes), rng.choice(nodes), rng.choice(("is-a", "a-kind-of")))
        return "declare_relation", (r,), {}
    if kind == "infer":
        return "with_inferred", (), {"threshold": rng.choice((1.0, 1.0, 0.5, 7.0))}
    # Steps that must fail before they reach an exploiter.
    return rng.choice([
        ("apply_exploiter", ("intersection", [rng.choice(objects), rng.choice(classes)]), {}),
        ("apply_exploiter", ("union", [rng.choice(classes)]), {}),
        ("apply_exploiter", ("union", [rng.choice(classes), rng.choice(objects)]), {}),
        ("apply_exploiter", ("clone", [rng.choice(classes)]), {}),
        ("apply_exploiter", ("clone", [NodeRef("object", "ghost")]), {}),
        ("apply_exploiter", ("clone", [rng.choice(objects)]), {"clone_index": 0}),
        ("apply_exploiter", ("join", [rng.choice(classes)] * 2), {}),
        ("apply_modifier", ("kg", NodeRef("class", "ghost")), {}),
    ])


def _script(rng: random.Random, n: Network) -> int:
    """Run a seeded script from `n`; return the number of good steps."""
    history, good = [], 0
    for _ in range(STEPS):
        if history and rng.random() < 0.2:
            step = rng.choice(history)  # replayed on a later network
        else:
            step = _random_step(rng, n)
            history.append(step)
        after = _check_step(n, step)
        good += after is not n
        n = after
    return good


@pytest.mark.parametrize("seed", SEEDS)
def test_scripts_agree(polygons, seed):
    grown = 0
    for label, start in _starts(polygons):
        grown += _script(random.Random(f"{label}-{seed}"), start)
    assert grown, "no step grew any network"


def test_fixed_cases_agree(polygons):
    """Cases a random script may miss: an object union with repeats, run
    again with and without dedup; a clone index whose display name a
    class or a plain identifier already holds; dedup hits whose edges
    exist; and disabled exploiters."""
    r1, s1 = NodeRef("object", "R_1"), NodeRef("object", "S_1")
    tr, ts, tp = (NodeRef("class", f"T({x})") for x in "RSP")
    n = polygons
    steps = [
        ("apply_exploiter", ("union", [r1, r1, s1, r1]), {}),
        ("apply_exploiter", ("union", [r1, r1, s1, r1]), {}),
        ("apply_exploiter", ("union", [r1, r1, s1, r1]), {"dedup": False}),
        ("apply_exploiter", ("union", [tr, ts]), {}),
        ("apply_exploiter", ("union", [tr, ts]), {}),
        ("apply_exploiter", ("intersection", [tr, ts]), {}),
        ("apply_exploiter", ("symmetric-difference", [tr, tr]), {}),
        ("apply_exploiter", ("difference", [tp, ts]), {}),
        ("apply_exploiter", ("difference", [ts, tp]), {"dedup": False}),
        ("add_class", (cls("S_1#7", qprop("p1")),), {}),
        ("apply_exploiter", ("clone", [s1]), {"clone_index": 7}),
        ("add_object", (obj("S_1#8", qprop("p1", value=1.0)),), {}),
        ("apply_exploiter", ("clone", [s1]), {"clone_index": 8}),
        ("apply_exploiter", ("clone", [s1]), {}),
        ("apply_exploiter", ("clone", [s1]), {}),
        ("apply_modifier", ("M1(R_1)", r1), {}),
        ("apply_modifier", ("M1(R_1)", r1), {}),
        ("apply_modifier", ("M1(R_1)", r1), {"dedup": False}),
        ("apply_modifier", ("M1(T(R))", tr), {}),
        ("apply_modifier", ("M1(T(R))", tr), {}),
        ("apply_modifier", ("M1(T(R))", r1), {}),
        ("with_inferred", (), {}),
        ("with_inferred", (), {}),
    ]
    for step in steps:
        n = _check_step(n, step)
    disabled = Network(
        objects=polygons.objects, classes=polygons.classes, exploiters={"union"}
    )
    for op in ("clone", "intersection"):
        _check_step(disabled, ("apply_exploiter", (op, [tr, ts]), {}))
