"""Seeded input generator for the benchmark, with the known answers.

Everything here is built from a `random.Random` and plain Python data:
the engine is never consulted.  The answers follow from how the inputs
are built:

- Each class holds its ancestors' members plus a block of fresh ones, so
  class X is a kind of class Y exactly when Y is a proper ancestor of X.
  Inherited members are written as equivalent variants (operands of
  `and`, `or`, `+`, `*` and `==` shuffled), so matching them needs the
  expression normal form.
- Each block starts with quantitative properties, and its qualitative
  predicates refer only to properties of that block and its ancestors.
  An object tested against a class it lacks a block of therefore scores
  0 on that block's first property before any predicate could fail to
  evaluate.
- Each object is built from a designated class, with every value inside
  the band its predicates accept.  A violator has one value of its own
  class's block below its band, which fails exactly one predicate, so it
  is an instance of the class's parents instead.
- Growth steps are predicted on member-name sets: a derived class's
  state is its core name set plus its projection name sets, and an
  object's state is its member names with their values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

UNITS = ("cm", "kg", "s", "count", "deg")
EXPLOITERS = ["clone", "difference", "intersection", "symmetric-difference", "union"]


# --- members -------------------------------------------------------------------


@dataclass(frozen=True)
class Scalar:
    name: str
    units: str
    lo: int
    hi: int

    def class_doc(self, rng):
        return {"name": self.name, "kind": "quantitative", "units": self.units, "value": None}

    def value(self, rng):
        return round(rng.uniform(self.lo + 0.5, self.hi - 0.5), 1)


@dataclass(frozen=True)
class ListProp:
    name: str
    units: str
    count: int

    def class_doc(self, rng):
        return {"name": self.name, "kind": "quantitative", "units": self.units, "value": None}

    def value(self, rng):
        return [float(rng.randint(1, 9))] * self.count


def _shuffled(rng, parts):
    parts = list(parts)
    rng.shuffle(parts)
    return parts


@dataclass(frozen=True)
class Predicate:
    """A qualitative property whose verification accepts `target` inside
    [lo, hi] (form A, B, C or I), or a list check on `target` (form L)."""

    name: str
    form: str
    target: str
    lo: int = 0
    hi: int = 0
    other: str = ""
    bound: int = 0

    def text(self, rng) -> str:
        t = f"self.{self.target}.value"
        if self.form == "A":
            return " and ".join(_shuffled(rng, [f"{t} >= {self.lo}", f"{t} <= {self.hi}"]))
        if self.form == "B":
            total = " + ".join(_shuffled(rng, [t, f"self.{self.other}.value"]))
            return " and ".join(_shuffled(rng, [f"{t} >= {self.lo}", f"{total} <= {self.bound}"]))
        if self.form == "C":
            return "not (" + " or ".join(_shuffled(rng, [f"{t} < {self.lo}", f"{t} > {self.hi}"])) + ")"
        if self.form == "I":
            return f"if {t} >= {self.lo} then {t} <= {self.hi} else 0"
        values = f"self.{self.target}.values"
        count = " == ".join(_shuffled(rng, [f"count({values})", str(self.lo)]))
        return " and ".join(_shuffled(rng, [f"all_equal({values})", count]))

    def class_doc(self, rng):
        return {"name": self.name, "kind": "qualitative", "verification": self.text(rng), "degree": None}


@dataclass(frozen=True)
class Meth:
    """A method; `form` 0 is abstract at class level."""

    name: str
    params: tuple
    form: int
    prop: str
    k: int

    def body(self, rng, for_object=False) -> str | None:
        ref = f"self.{self.prop}.value"
        if self.form == 0:
            return " + ".join(self.params) + " + 1" if for_object else None
        if self.form == 1:
            product = " * ".join(_shuffled(rng, ["x", str(self.k)]))
            return " + ".join(_shuffled(rng, [product, ref]))
        total = "(" + " + ".join(_shuffled(rng, list(self.params))) + ")"
        return " * ".join(_shuffled(rng, [total, ref]))

    def class_doc(self, rng):
        return {"name": self.name, "parameters": list(self.params), "body": self.body(rng)}


# --- taxonomy ------------------------------------------------------------------


@dataclass
class ClassSpec:
    name: str
    parents: list
    ancestors: set  # proper ancestors' names
    props: list  # ordered member templates (properties)
    methods: list  # ordered member templates (methods)
    predicates: list  # own fresh predicates
    doc: dict = field(default_factory=dict)

    @property
    def members(self) -> frozenset:
        return frozenset(m.name for m in self.props + self.methods)


@dataclass
class ObjectSpec:
    identifier: str
    home: ClassSpec
    violated: str | None  # name of the one failing predicate, if any
    doc: dict
    state: frozenset  # (member name, value) pairs

    @property
    def instance_of(self) -> set:
        if self.violated is None:
            return {self.home.name}
        return {p.name for p in self.home.parents}


@dataclass
class Taxonomy:
    classes: list
    objects: list

    def a_kind_of(self) -> set:
        """(specific, general) for every class and each proper ancestor."""
        return {(c.name, a) for c in self.classes for a in c.ancestors}

    def instance_of(self) -> set:
        return {(o.identifier, c) for o in self.objects for c in o.instance_of}

    def relations(self) -> set:
        """The inferred relations as (from, to, kind)."""
        return {(s, g, "a-kind-of") for s, g in self.a_kind_of()} | {
            (o, c, "instance-of") for o, c in self.instance_of()
        }

    def document(self, modifiers=(), with_relations=False) -> dict:
        relations = []
        if with_relations:
            for s, g, kind in sorted(self.relations()):
                src_kind = "class" if kind == "a-kind-of" else "object"
                src = {"kind": src_kind, "name": s}
                if src_kind == "object":
                    src["cloneIndex"] = 0
                relations.append(
                    {
                        "from": src,
                        "to": {"kind": "class", "name": g},
                        "relation": kind,
                        "provenance": "inferred",
                    }
                )
        return {
            "format": "oodn/1",
            "classes": [c.doc for c in self.classes],
            "objects": [o.doc for o in self.objects],
            "modifiers": list(modifiers),
            "relations": relations,
            "exploiters": EXPLOITERS,
        }


def _block(rng, cid: int, closure_scalars: list) -> tuple[list, list, list]:
    """Fresh members of class `cid`: two scalars, a list on every other
    class, one predicate aimed at each own scalar plus a list check, and
    one method.  The counts are fixed so that taxonomies of one size cost
    about the same whatever the seed."""
    scalars = []
    for tag in "ab":
        lo = rng.randint(5, 60)
        scalars.append(Scalar(f"c{cid}_{tag}", rng.choice(UNITS), lo, lo + rng.randint(10, 40)))
    props = list(scalars)
    lists = [ListProp(f"c{cid}_l", "cm", rng.randint(3, 5))] if cid % 2 else []
    props += lists
    predicates = []
    for i, s in enumerate(scalars):
        form = rng.choice("ABCI")
        other = rng.choice(closure_scalars + scalars)
        predicates.append(
            Predicate(f"c{cid}_q{i}", form, s.name, s.lo, s.hi, other.name, s.hi + other.hi)
        )
    predicates += [Predicate(f"c{cid}_qL", "L", m.name, m.count) for m in lists]
    props += predicates
    params = ("x",) if rng.random() < 0.5 else ("x", "y")
    form = rng.choice((0, 1, 2)) if params == ("x",) else rng.choice((0, 2))
    methods = [Meth(f"c{cid}_f", params, form, scalars[0].name, rng.randint(2, 9))]
    return props, methods, predicates


def _merge(parents: list) -> tuple[list, list]:
    props, methods, seen = [], [], set()
    for p in parents:
        for m in p.props:
            if m.name not in seen:
                seen.add(m.name)
                props.append(m)
        for m in p.methods:
            if m.name not in seen:
                seen.add(m.name)
                methods.append(m)
    return props, methods


def _class_doc(rng, c: ClassSpec) -> dict:
    return {
        "name": c.name,
        "core": {
            "properties": [m.class_doc(rng) for m in c.props],
            "methods": [m.class_doc(rng) for m in c.methods],
        },
        "projections": [],
    }


def _object(rng, oid: int, home: ClassSpec, violate: bool, extras: int) -> ObjectSpec:
    identifier = f"o{oid}"
    violated = None
    low = None
    if violate:
        pred = rng.choice([p for p in home.predicates if p.form != "L"])
        violated, low = pred.name, pred.target
    props, state = [], []
    for m in home.props:
        if isinstance(m, (Scalar, ListProp)):
            value = m.value(rng)
            if m.name == low:
                value = m.lo - rng.randint(1, 5)
            props.append({"name": m.name, "kind": "quantitative", "units": m.units, "value": value})
            state.append((m.name, tuple(value) if isinstance(value, list) else float(value)))
        else:
            degree = 0.0 if m.name == violated else 1.0
            props.append({"name": m.name, "kind": "qualitative", "verification": None, "degree": degree})
            state.append((m.name, degree))
    methods = []
    for m in home.methods:
        methods.append({"name": m.name, "parameters": list(m.params), "body": m.body(rng, True)})
        state.append((m.name, m.params))
    scalars = [m for m in home.props if isinstance(m, Scalar)]
    for j in range(extras):
        s, t = rng.choice(scalars), rng.choice(scalars)
        a, b, c = rng.randint(1, 9), rng.randint(1, 9), rng.randint(2, 9)
        methods.append(
            {
                "name": f"{identifier}_g{j}",
                "parameters": ["x", "y"],
                "body": f"(x + {a}) * (y - {b}) / {c} + self.{s.name}.value * self.{t.name}.value",
            }
        )
        props.append(
            {
                "name": f"{identifier}_h{j}",
                "kind": "qualitative",
                "verification": f"self.{s.name}.value >= {s.lo} and (self.{t.name}.value < {t.hi} or self.{s.name}.value > {b})",
                "degree": 1.0,
            }
        )
    doc = {"identifier": identifier, "cloneIndex": 0, "properties": props, "methods": methods}
    return ObjectSpec(identifier, home, violated, doc, frozenset(state))


def taxonomy(
    rng: random.Random, levels: tuple, objects: int, violate: float = 0.25,
    two_parents: float = 0.25, extras: int = 0,
) -> Taxonomy:
    """A layered class DAG, `levels[i]` classes at depth i.  Class j of a
    level has class j (mod the width) of the level above as its parent,
    and the last `two_parents` share of the level also has the next one,
    so the DAG's shape depends on `levels` alone and taxonomies of one
    size cost about the same whatever the seed.  The seed picks the
    members, where the objects sit and which of them violate a
    predicate.  Objects are spread evenly over the classes, and a fixed
    share of those below the roots violate one predicate."""
    classes, previous = [], []
    for width in levels:
        current = []
        second = round(width * two_parents) if len(previous) > 1 else 0
        for j in range(width):
            cid = len(classes)
            parents = [previous[j % len(previous)]] if previous else []
            if j >= width - second:
                parents.append(previous[(j + 1) % len(previous)])
            inherited_props, inherited_methods = _merge(parents)
            closure_scalars = [m for m in inherited_props if isinstance(m, Scalar)]
            props, methods, predicates = _block(rng, cid, closure_scalars)
            ancestors = set()
            for p in parents:
                ancestors |= p.ancestors | {p.name}
            c = ClassSpec(
                f"C{cid}", parents, ancestors, inherited_props + props,
                inherited_methods + methods, predicates,
            )
            c.doc = _class_doc(rng, c)
            classes.append(c)
            current.append(c)
        previous = current
    order = rng.sample(classes, len(classes))
    homes = [order[i % len(order)] for i in range(objects)]
    below = [i for i, c in enumerate(homes) if c.parents]
    violators = set(rng.sample(below, min(len(below), round(objects * violate))))
    objs = [_object(rng, i, homes[i], i in violators, extras) for i in range(objects)]
    return Taxonomy(classes, objs)


# --- growth script -------------------------------------------------------------


def class_modifier(k: int) -> dict:
    return {
        "name": f"MC{k}",
        "target": "class",
        "edits": [
            {
                "edit": "addProperty",
                "propertyDef": {"name": f"extra{k}", "kind": "quantitative", "units": "cm", "value": None},
            }
        ],
    }


def object_modifier(k: int) -> dict:
    return {
        "name": f"MO{k}",
        "target": "object",
        "edits": [
            {
                "edit": "addProperty",
                "propertyDef": {"name": f"tag{k}", "kind": "quantitative", "units": "count", "value": k},
            }
        ],
    }


def class_key(core, projections) -> tuple:
    """State of a class as member-name sets: (core names or None,
    projection name sets in order)."""
    return (None if core is None else frozenset(core), tuple(frozenset(p) for p in projections))


@dataclass(frozen=True)
class Step:
    """One growth step and its known outcome.

    `kind` is "exploiter" or "modifier"; `operands` are node indices into
    the growing node list (classes and objects are numbered separately:
    `("c", i)` or `("o", i)`).  `expect` is "absent", "hit" (links to node
    `node`) or "new" (adds node `node` whose state is `key`).
    """

    kind: str
    name: str
    operands: tuple
    expect: str
    node: tuple | None = None
    key: tuple | frozenset | None = None
    clone_index: int | None = None


STEP_WEIGHTS = (
    ("union", 2), ("intersection", 2), ("difference", 1), ("symmetric-difference", 1),
    ("clone", 1), ("class-mod", 1), ("object-mod", 1), ("replay", 1), ("absent", 1),
)
SET_OPS = ("union", "intersection", "difference", "symmetric-difference")
PAIR_TRIES = 100
CLASS_MODIFIERS = 3
OBJECT_MODIFIERS = 3


def growth_script(rng: random.Random, tax: Taxonomy, steps: int) -> list:
    """A seeded growth sequence over `tax` with dedup on, and the outcome
    of each step.  Operands are the original classes and the core-only
    classes derived so far; modifiers target original classes and
    untagged objects (originals and their clones).

    Step kinds are dealt from a shuffled deck holding each kind as often
    as its weight, so every seed gets the same mix.  An "absent" card is a
    set operation whose result does not exist; the other set operations
    draw operand pairs until their result exists."""
    class_keys = [class_key(c.members, ()) for c in tax.classes]
    members = [c.members for c in tax.classes]  # core-only operand classes
    operand_pool = list(range(len(tax.classes)))
    object_keys = [o.state for o in tax.objects]
    untagged = list(range(len(tax.objects)))
    origin = list(range(len(tax.objects)))  # original object of each object node
    clone_counts = [0] * len(tax.objects)
    out = []

    def lookup(keys, key):
        return next((i for i, k in enumerate(keys) if k == key), None)

    def add_class(key, core=None):
        hit = lookup(class_keys, key)
        if hit is not None:
            return "hit", ("c", hit), None
        class_keys.append(key)
        members.append(core)
        if core is not None and not key[1]:
            operand_pool.append(len(class_keys) - 1)
        return "new", ("c", len(class_keys) - 1), key

    def set_op(what, i, j):
        """The key of `what` over operands i and j, the core of the new
        class, and whether the result does not exist."""
        a, b = members[i], members[j]
        if what == "union":
            key, core = class_key(a & b, [p for p in (a - b, b - a) if p]), None
        elif what == "intersection":
            key, core = class_key(a & b, ()), a & b
        elif what == "difference":
            key, core = class_key(None, [a - b] if a - b else []), None
        else:
            key, core = class_key(None, [p for p in (a - b, b - a) if p]), None
        absent = (key[0] is None and not key[1]) or (what == "intersection" and not core)
        return key, core, absent

    deck = []
    while len(out) < steps:
        if not deck:
            deck = [name for name, w in STEP_WEIGHTS for _ in range(w)]
            rng.shuffle(deck)
        what = deck.pop()
        if what == "replay":
            earlier = [s for s in out if s.name != "clone" and s.expect != "absent"]
            if not earlier:
                continue
            s = rng.choice(earlier)
            out.append(Step(s.kind, s.name, s.operands, "hit", s.node))
        elif what in SET_OPS or what == "absent":
            want_absent = what == "absent"
            for _ in range(PAIR_TRIES):
                name = rng.choice(SET_OPS[1:]) if want_absent else what
                i, j = rng.sample(operand_pool, 2)
                key, core, absent = set_op(name, i, j)
                if absent == want_absent:
                    break
            else:
                continue
            if absent:
                out.append(Step("exploiter", name, (("c", i), ("c", j)), "absent"))
                continue
            expect, node, new_key = add_class(key, core)
            out.append(Step("exploiter", name, (("c", i), ("c", j)), expect, node, new_key))
        elif what == "clone":
            i = rng.choice(untagged)
            o = origin[i]
            clone_counts[o] += 1
            object_keys.append(object_keys[i])
            origin.append(o)
            untagged.append(len(object_keys) - 1)
            out.append(
                Step("exploiter", "clone", (("o", i),), "new", ("o", len(object_keys) - 1),
                     object_keys[i], clone_counts[o])
            )
        elif what == "class-mod":
            k = rng.randrange(CLASS_MODIFIERS)
            i = rng.randrange(len(tax.classes))
            core = members[i] | {f"extra{k}"}
            expect, node, key = add_class(class_key(core, ()), core)
            out.append(Step("modifier", f"MC{k}", (("c", i),), expect, node, key))
        else:
            k = rng.randrange(OBJECT_MODIFIERS)
            i = rng.choice(untagged)
            key = object_keys[i] | {(f"tag{k}", float(k))}
            hit = lookup(object_keys, key)
            if hit is not None:
                out.append(Step("modifier", f"MO{k}", (("o", i),), "hit", ("o", hit)))
            else:
                object_keys.append(key)
                origin.append(origin[i])
                out.append(Step("modifier", f"MO{k}", (("o", i),), "new", ("o", len(object_keys) - 1), key))
    return out


# --- CLI session ---------------------------------------------------------------


def _report(c_props, c_methods, core_names, label=None) -> dict:
    doc = {
        "properties": [m.name for m in c_props if m.name in core_names],
        "methods": [m.name for m in c_methods if m.name in core_names],
    }
    if label is not None:
        doc = {"source": label, **doc}
    return doc


def cli_session(tax: Taxonomy) -> list:
    """The `oodn` calls of one session and their known results.

    Each entry is (argv with {dir} placeholders, expected exit code,
    expected `--json` output or a checker name).  The session starts from
    `doc.oodn.json`, which holds `tax`, modifier MC0 and no relations.
    """
    roots = [c for c in tax.classes if not c.parents]
    by_parent = {}
    for c in tax.classes:
        if c.parents:
            by_parent.setdefault(c.parents[0].name, []).append(c)
    siblings = next(v for v in by_parent.values() if len(v) >= 2)
    a, b = siblings[0], siblings[1]
    ma, mb = a.members, b.members
    union = {
        "name": f"union({a.name},{b.name})",
        "core": _report(a.props, a.methods, ma & mb),
        "projections": [
            r
            for r in (
                _report(a.props, a.methods, ma - mb, a.name),
                _report(b.props, b.methods, mb - ma, b.name),
            )
            if r["properties"] or r["methods"]
        ],
    }
    target = max(tax.classes, key=lambda c: len(c.ancestors))
    modified = f"MC0({target.name})"
    inferred = tax.relations() | {(modified, g, "a-kind-of") for g in target.ancestors | {target.name}}
    root = roots[0]
    descendants = sorted(
        [c.name for c in tax.classes if root.name in c.ancestors]
        + ([modified] if root.name in target.ancestors | {target.name} else [])
    )
    populated = max(tax.classes, key=lambda c: sum(c.name in o.instance_of for o in tax.objects))
    instances = sorted(o.identifier for o in tax.objects if populated.name in o.instance_of)
    n_classes, n_objects = len(tax.classes) + 2, len(tax.objects)
    n_relations = 4 + 1 + len(inferred)
    return [
        (["validate", "{dir}/doc.oodn.json", "--json"], 0,
         {"ok": True, "classes": len(tax.classes), "objects": n_objects, "relations": 0,
          "modifiers": 1, "exploiters": EXPLOITERS}),
        (["op", "{dir}/doc.oodn.json", "union", a.name, b.name, "--out", "{dir}/g1.oodn.json", "--json"], 0,
         {"exists": True, "result": union}),
        (["op", "{dir}/g1.oodn.json", "intersection", roots[0].name, roots[1].name, "--json"], 1,
         "absent"),
        (["modify", "{dir}/g1.oodn.json", "MC0", target.name, "--out", "{dir}/g2.oodn.json", "--json"], 0,
         {"target": target.name, "result": modified, "new_node": True}),
        (["infer", "{dir}/g2.oodn.json", "--out", "{dir}/g3.oodn.json", "--json"], 0,
         ("relations", inferred)),
        (["query", "{dir}/g3.oodn.json", "subclasses-of", root.name, "--json"], 0,
         {"nodes": descendants}),
        (["query", "{dir}/g3.oodn.json", "instances-of", populated.name, "--json"], 0,
         {"nodes": instances}),
        (["query", "{dir}/g3.oodn.json", "reachable", target.name, "--kind", "a-kind-of", "--json"], 0,
         {"nodes": sorted(target.ancestors)}),
        (["export-dot", "{dir}/g3.oodn.json", "--out", "{dir}/g3.dot"], 0,
         ("dot", 2 + n_classes + n_objects + n_relations)),
    ]
