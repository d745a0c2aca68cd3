"""The concept network: objects, classes, typed relations, enabled
exploiters, and modifiers, as one immutable value.

A growth step returns one new snapshot, or the same network when it
adds nothing; prior snapshots stay valid.  Structural deduplication is
on by default: applying a modifier or exploiter whose result matches an
existing node (state equality) links to that node instead of adding a
twin.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Sequence

from .errors import OodnError
from .exploiters import (
    OperationResult,
    class_difference,
    class_intersection,
    class_symmetric_difference,
    class_union,
    clone_object,
    free_index,
    object_union,
)
from .expr import EvalContext
from .model import (
    ClassDef,
    ObjectInstance,
    check_threshold,
    class_state_equal,
    member_score,
    object_state_equal,
    satisfies,  # noqa: F401 - perfbench/spans.py traces oodn.network.satisfies
    subsumes,
)
from .modifiers import CLASS, OBJECT, Modifier, apply_to_class, apply_to_object


class NetworkError(OodnError):
    """Duplicate names, dangling references, or disabled operations."""


EXPLOITER_NAMES = frozenset(
    {"union", "intersection", "difference", "symmetric-difference", "clone"}
)

RELATION_KINDS = frozenset(
    {"instance-of", "is-a", "a-kind-of", "modification-of", "result-of", "operand-of"}
)

# is-a is a query alias of a-kind-of: both name structural subsumption.
_SUBSUMPTION_KINDS = frozenset({"is-a", "a-kind-of"})

PROVENANCES = ("declared", "inferred", "recorded")


@dataclass(frozen=True, slots=True)
class NodeRef:
    """A class by name, or an object by identifier and clone index: a
    nonempty `str` and an `int` >= 0 (0 for a class).  The hash is computed
    once; a pickled or copied ref is rebuilt from its three fields."""

    kind: str  # "object" | "class"
    name: str
    clone_index: int = 0
    # hash((kind, name, clone_index)), stored by __post_init__.
    _hash: int = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in (OBJECT, CLASS):
            raise NetworkError(f"node kind must be 'object' or 'class': {self.kind!r}")
        if not isinstance(self.name, str) or not self.name:
            raise NetworkError(f"node name must be a nonempty string: {self.name!r}")
        i = self.clone_index
        if not isinstance(i, int) or isinstance(i, bool) or i < 0:
            raise NetworkError(f"clone index must be an integer >= 0: {i!r}")
        if self.kind == CLASS and i:
            raise NetworkError("classes carry no clone index")
        object.__setattr__(self, "_hash", hash((self.kind, self.name, i)))

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return NodeRef, (self.kind, self.name, self.clone_index)

    @property
    def display(self) -> str:
        if self.kind == OBJECT and self.clone_index:
            return f"{self.name}#{self.clone_index}"
        return self.name

    def sort_key(self):
        return (self.kind, self.name, self.clone_index)


def object_ref(o: ObjectInstance) -> NodeRef:
    return NodeRef(OBJECT, o.identifier, o.clone_index)


def class_ref(t: ClassDef) -> NodeRef:
    return NodeRef(CLASS, t.name)


@dataclass(frozen=True, slots=True)
class Relation:
    source: NodeRef
    target: NodeRef
    kind: str
    provenance: str = "declared"
    # (source, target, kind), stored by __post_init__.
    triple: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.kind:
            raise NetworkError("relation kind must be nonempty")
        if self.provenance not in PROVENANCES:
            raise NetworkError(f"unknown provenance {self.provenance!r}")
        object.__setattr__(self, "triple", (self.source, self.target, self.kind))

    def sort_key(self):
        return (self.kind, self.source.sort_key(), self.target.sort_key(), self.provenance)


@dataclass(frozen=True, slots=True)
class Network:
    objects: tuple = ()
    classes: tuple = ()
    relations: tuple = ()
    exploiters: frozenset = EXPLOITER_NAMES
    modifiers: tuple = ()
    # Display name -> class or object (one namespace for both), modifier
    # name -> modifier, and the relation triples, built by __post_init__.
    # It tests relation endpoints against the nodes' (kind, name, clone
    # index) keys; `_require` runs only for a missing key, so only to raise.
    _nodes: dict = field(default=None, init=False, repr=False, compare=False)
    _modifiers: dict = field(default=None, init=False, repr=False, compare=False)
    _triples: set = field(default=None, init=False, repr=False, compare=False)
    # (node, "out" | "in") -> [(kind, other end)], built by the first query.
    _adjacency: dict | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "objects", tuple(self.objects))
        object.__setattr__(self, "classes", tuple(self.classes))
        object.__setattr__(self, "relations", tuple(self.relations))
        object.__setattr__(self, "exploiters", frozenset(self.exploiters))
        object.__setattr__(self, "modifiers", tuple(self.modifiers))

        unknown = self.exploiters - EXPLOITER_NAMES
        if unknown:
            raise NetworkError(f"unknown exploiters: {sorted(unknown)}")
        nodes, modifiers = {}, {}
        for what, index, items in (
            ("object", nodes, self.objects),
            ("class", nodes, self.classes),
            ("modifier", modifiers, self.modifiers),
        ):
            for x in items:
                name = x.node_name if what == "object" else x.name
                if name in index:
                    if what == "class" and isinstance(index[name], ObjectInstance):
                        raise NetworkError(f"class and object share the name {name!r}")
                    raise NetworkError(f"duplicate {what} {name!r}")
                index[name] = x
        object.__setattr__(self, "_nodes", nodes)
        object.__setattr__(self, "_modifiers", modifiers)
        keys = {(OBJECT, o.identifier, o.clone_index) for o in self.objects}
        keys.update((CLASS, t.name, 0) for t in self.classes)
        triples = set()
        for i, r in enumerate(self.relations):
            triples.add(r.triple)
            if len(triples) == i:  # the triple was there already
                raise NetworkError(
                    f"duplicate relation {r.source.display} -{r.kind}-> {r.target.display}"
                )
            s, t = r.source, r.target
            if (s.kind, s.name, s.clone_index) not in keys:
                self._require(s)
            if (t.kind, t.name, t.clone_index) not in keys:
                self._require(t)
        object.__setattr__(self, "_triples", triples)

    # --- resolution ---------------------------------------------------------

    def find_node(self, name: str) -> ClassDef | ObjectInstance | None:
        """The class named `name`, or the object whose display name
        (identifier, or identifier#cloneIndex) is `name`."""
        return self._nodes.get(name)

    def find_class(self, name: str) -> ClassDef | None:
        t = self._nodes.get(name)
        return t if isinstance(t, ClassDef) else None

    def find_object(self, identifier: str, clone_index: int = 0) -> ObjectInstance | None:
        o = self._nodes.get(f"{identifier}#{clone_index}" if clone_index else identifier)
        # ("o", 2) displays as "o#2", and so does an object whose identifier is "o#2".
        if isinstance(o, ObjectInstance) and o.identifier == identifier:
            return o
        return None

    def find_modifier(self, name: str) -> Modifier | None:
        return self._modifiers.get(name)

    def resolve(self, ref: NodeRef):
        node = self._lookup(ref)
        if node is None:
            raise NetworkError(f"unresolved {ref.kind} reference {ref.display!r}")
        return node

    def _lookup(self, ref: NodeRef):
        if ref.kind == CLASS:
            return self.find_class(ref.name)
        return self.find_object(ref.name, ref.clone_index)

    def _require(self, ref: NodeRef) -> None:
        if self._lookup(ref) is None:
            raise NetworkError(f"relation endpoint does not resolve: {ref.display!r}")


def empty_network(exploiters=EXPLOITER_NAMES) -> Network:
    return Network(exploiters=exploiters)


# --- growth ------------------------------------------------------------------


def _grow(n: Network, *, objects=(), classes=(), relations=()) -> Network:
    """`n` plus `objects`, `classes` and each relation whose triple `n`
    lacks (the first of any repeats), as one snapshot; `n` itself when
    nothing is new."""
    fresh = {}
    for r in relations:
        if r.triple not in n._triples:
            fresh.setdefault(r.triple, r)
    if not (objects or classes or fresh):
        return n
    return dataclasses.replace(
        n,
        objects=n.objects + objects,
        classes=n.classes + classes,
        relations=n.relations + tuple(fresh.values()),
    )


def add_object(n: Network, o: ObjectInstance) -> Network:
    if n.find_object(o.identifier, o.clone_index) is not None:
        raise NetworkError(f"object {o.node_name!r} already present")
    return _grow(n, objects=(o,))


def add_class(n: Network, t: ClassDef) -> Network:
    if n.find_class(t.name) is not None:
        raise NetworkError(f"class {t.name!r} already present")
    return _grow(n, classes=(t,))


def add_modifier(n: Network, m: Modifier) -> Network:
    if n.find_modifier(m.name) is not None:
        raise NetworkError(f"modifier {m.name!r} already present")
    return dataclasses.replace(n, modifiers=n.modifiers + (m,))


def declare_relation(n: Network, r: Relation) -> Network:
    n._require(r.source)
    n._require(r.target)
    if r.triple in n._triples:
        raise NetworkError(
            f"relation {r.source.display} -{r.kind}-> {r.target.display} already present"
        )
    return _grow(n, relations=(r,))


# --- inference ---------------------------------------------------------------


def infer_relations(n: Network, threshold: float = 1.0) -> tuple:
    """Structural relations entailed by the current nodes: one
    subsumption edge (a-kind-of) per subsuming class pair, transitive
    pairs included, plus instance-of edges to each object's most
    specific satisfied classes.

    All relations of one call share one `NodeRef` per node.  Bit j of
    `below[i]` is set when class i strictly subsumes class j, so class i
    in an object's `mask` of satisfied classes is most specific exactly
    when `below[i] & mask == 0` (Ait-Kaci et al., TOPLAS 1989).

    Equal class members share one slot, scored at most once per object,
    so the result equals `satisfies(o, t, threshold) >= threshold` per
    pair without re-evaluating a member that several classes list.  Slots
    are bucketed by the member's cached key and matched by `==` inside a
    bucket, since key-equal members may differ in value.  A proper subset
    is smaller, so only pairs of different sizes reach `subsumes`."""
    homogeneous = [t for t in n.classes if t.is_homogeneous]
    refs = [class_ref(t) for t in homogeneous]
    sizes = [len(t.core.member_keys) for t in homogeneous]
    edges = []
    below = [0] * len(homogeneous)
    for i, general in enumerate(homogeneous):
        for j, specific in enumerate(homogeneous):
            if sizes[i] < sizes[j] and subsumes(general, specific):
                below[i] |= 1 << j
                edges.append(Relation(refs[j], refs[i], "a-kind-of", "inferred"))
    if n.objects and homogeneous:
        check_threshold(threshold)
    members, buckets, rows = [], {}, []
    for t in homogeneous:
        row = []
        for m in (*t.core.specification, *t.core.signature):
            bucket = buckets.setdefault(m.key, [])
            for s in bucket:
                if members[s] == m:
                    break
            else:
                s = len(members)
                members.append(m)
                bucket.append(s)
            row.append(s)
        rows.append(row)
    for o in n.objects:
        ctx = EvalContext(subject=o)
        scores = [None] * len(members)
        satisfied, mask = [], 0
        for i, row in enumerate(rows):
            score = 1.0
            for s in row:
                v = scores[s]
                if v is None:
                    v = scores[s] = member_score(o, members[s], ctx)
                if v < score:
                    score = v
                    if score == 0.0:
                        break
            if score >= threshold:
                satisfied.append(i)
                mask |= 1 << i
        if satisfied:
            ref = object_ref(o)
            for i in satisfied:
                if not below[i] & mask:
                    edges.append(Relation(ref, refs[i], "instance-of", "inferred"))
    return tuple(sorted(edges, key=Relation.sort_key))


def with_inferred(n: Network, threshold: float = 1.0) -> Network:
    """`n` plus its inferred relations.  Unlike `infer_relations`, which
    tests `threshold` only where an object meets a class, this rejects a
    threshold outside (0, 1] on every network."""
    check_threshold(threshold)
    return _grow(n, relations=infer_relations(n, threshold))


# --- derived nodes -----------------------------------------------------------


def _derive(n: Network, node, base: str, dedup: bool) -> tuple[tuple, NodeRef]:
    """The nodes to add for a derived `node`, and its ref: none, and the
    first state-equal node of the same kind, when `dedup` finds one;
    otherwise `node` under `base`, or `base#k` for the least k >= 2 that
    no class or object displays as."""
    is_class = isinstance(node, ClassDef)
    nodes, ref = (n.classes, class_ref) if is_class else (n.objects, object_ref)
    if dedup:
        same = class_state_equal if is_class else object_state_equal
        existing = next((x for x in nodes if same(x, node)), None)
        if existing is not None:
            return (), ref(existing)
    name = base if base not in n._nodes else f"{base}#{free_index(base, 2, n._nodes)}"
    renamed = {"name": name} if is_class else {"identifier": name, "clone_index": 0}
    node = dataclasses.replace(node, **renamed)
    return (node,), ref(node)


# --- modifier application ----------------------------------------------------


def apply_modifier(
    n: Network, modifier_name: str, target: NodeRef, dedup: bool = True
) -> tuple[Network, NodeRef]:
    """Apply a registered modifier to a node.  The result is added under a
    derived name unless a state-equal node already exists (dedup); either
    way a recorded modification-of edge links target to result."""
    modifier = n.find_modifier(modifier_name)
    if modifier is None:
        raise NetworkError(f"unknown modifier {modifier_name!r}")
    node = n.resolve(target)

    is_class = target.kind == CLASS
    apply = apply_to_class if is_class else apply_to_object
    new, result_ref = _derive(
        n, apply(modifier, node), f"{modifier_name}({target.display})", dedup
    )
    edge = Relation(target, result_ref, "modification-of", "recorded")
    n = _grow(n, **{"classes" if is_class else "objects": new}, relations=(edge,))
    return n, result_ref


# --- exploiter application ---------------------------------------------------


def _operand_classes(n: Network, operands: Sequence[NodeRef]) -> list:
    out = []
    for ref in operands:
        if ref.kind != CLASS:
            raise NetworkError(
                f"operand {ref.display!r} must be a class for this exploiter"
            )
        out.append(n.resolve(ref))
    return out


def apply_exploiter(
    n: Network,
    op: str,
    operands: Sequence[NodeRef],
    clone_index: int | None = None,
    dedup: bool = True,
) -> tuple[Network, NodeRef | None, OperationResult | None]:
    """Run an enabled exploiter over resolved operands.  A present result
    (with dedup), any clones, and recorded operand-of/result-of edges
    join the network in one new snapshot; an absent result leaves the
    network unchanged and returns no node."""
    if op not in EXPLOITER_NAMES:
        raise NetworkError(f"unknown exploiter {op!r}")
    if op not in n.exploiters:
        raise NetworkError(f"exploiter {op!r} is not enabled in this network")

    clones = ()
    if op == "clone":
        if len(operands) != 1 or operands[0].kind != OBJECT:
            raise NetworkError("clone takes exactly one object operand")
        original = n.resolve(operands[0])
        if clone_index is None:
            clone_index = free_index(original.identifier, 1, n._nodes)
        clone = clone_object(original, clone_index)
        if n.find_object(clone.identifier, clone.clone_index) is not None:
            raise NetworkError(
                f"clone index {clone_index} already used for {original.identifier!r}"
            )
        clones, new, result_ref, result = (clone,), (), object_ref(clone), None
    elif op == "union" and operands and all(ref.kind == OBJECT for ref in operands):
        objects = [n.resolve(ref) for ref in operands]
        result_objects, result = object_union(objects, in_use=n._nodes)
        clones = tuple(o for o, x in zip(result_objects, objects) if o is not x)
        # The result's edges name its objects, so each clone is linked too.
        operands = [object_ref(o) for o in result_objects]
    elif op == "union":
        classes = _operand_classes(n, operands)
        if len(classes) < 2:
            raise NetworkError("union needs at least two operands")
        result = class_union(classes)
    else:
        classes = _operand_classes(n, operands)
        if len(classes) != 2:
            raise NetworkError(f"{op} takes exactly two class operands")
        fn = {
            "intersection": class_intersection,
            "difference": class_difference,
            "symmetric-difference": class_symmetric_difference,
        }[op]
        result = fn(classes[0], classes[1])

    if result is not None:
        if not result.exists:
            return n, None, result
        # `n` lacks the clones, but each clone's name lies inside the derived one.
        new, result_ref = _derive(n, result.class_def, result.class_def.name, dedup)
    edges = []
    for ref in operands:
        edges.append(Relation(ref, result_ref, "operand-of", "recorded"))
        edges.append(Relation(result_ref, ref, "result-of", "recorded"))
    return _grow(n, objects=clones, classes=new, relations=edges), result_ref, result


# --- queries -----------------------------------------------------------------


def _walk(n: Network, ref: NodeRef, kind: str | None, direction: str, transitive: bool) -> tuple:
    """Nodes one edge (or, if transitive, any number of edges) away from
    `ref` along edges of `kind` (None: any kind; is-a and a-kind-of
    match each other), sorted by name.  The start node is included only
    when it is reached again."""
    n.resolve(ref)
    if direction not in ("out", "in", "both"):
        raise NetworkError(f"unknown direction {direction!r}")
    directions = ("out", "in") if direction == "both" else (direction,)
    kinds = _SUBSUMPTION_KINDS if kind in _SUBSUMPTION_KINDS else {kind}
    adjacency = n._adjacency
    if adjacency is None:
        adjacency = {}
        for r in n.relations:
            adjacency.setdefault((r.source, "out"), []).append((r.kind, r.target))
            adjacency.setdefault((r.target, "in"), []).append((r.kind, r.source))
        object.__setattr__(n, "_adjacency", adjacency)
    seen = set()
    frontier = [ref]
    while frontier:
        current = frontier.pop()
        for d in directions:
            for edge_kind, other in adjacency.get((current, d), ()):
                if other not in seen and (kind is None or edge_kind in kinds):
                    seen.add(other)
                    if transitive:
                        frontier.append(other)
    return tuple(sorted(seen, key=NodeRef.sort_key))


def neighbors(
    n: Network, ref: NodeRef, kind: str | None = None, direction: str = "out"
) -> tuple:
    """Directly connected nodes, sorted by name; direction in {out, in, both}."""
    return _walk(n, ref, kind, direction, transitive=False)


def reachable(n: Network, ref: NodeRef, kind: str) -> tuple:
    """Transitive closure along edges of the given kind, excluding the
    start node unless it lies on a cycle."""
    return _walk(n, ref, kind, "out", transitive=True)


def instances_of(n: Network, class_name: str) -> tuple:
    """Objects with an instance-of edge to the class, sorted by name."""
    return _walk(n, NodeRef(CLASS, class_name), "instance-of", "in", transitive=False)


def subclasses_of(n: Network, class_name: str) -> tuple:
    """Classes reaching the given class along subsumption edges
    (is-a / a-kind-of treated as aliases), sorted by name."""
    return _walk(n, NodeRef(CLASS, class_name), "a-kind-of", "in", transitive=True)
