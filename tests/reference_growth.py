"""A frozen copy of the growth functions of `oodn.network` as they were
before every growth path built its next snapshot through one function.

`tests/test_growth_differential.py` holds the engine's growth functions
to these: each step must give an equal network, with the same objects,
classes and relations in the same order, and the same ref and result,
and a bad step must raise the same error.  Do not edit this file to
follow the engine.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from oodn.exploiters import (
    OperationResult,
    class_difference,
    class_intersection,
    class_symmetric_difference,
    class_union,
    clone_object,
    free_index,
    object_union,
)
from oodn.model import (
    ClassDef,
    ObjectInstance,
    check_threshold,
    class_state_equal,
    object_state_equal,
)
from oodn.modifiers import CLASS, OBJECT, apply_to_class, apply_to_object
from oodn.network import (
    EXPLOITER_NAMES,
    Network,
    NetworkError,
    NodeRef,
    Relation,
    class_ref,
    infer_relations,
    object_ref,
)


def add_object(n: Network, o: ObjectInstance) -> Network:
    if n.find_object(o.identifier, o.clone_index) is not None:
        raise NetworkError(f"object {o.node_name!r} already present")
    return dataclasses.replace(n, objects=n.objects + (o,))


def add_class(n: Network, t: ClassDef) -> Network:
    if n.find_class(t.name) is not None:
        raise NetworkError(f"class {t.name!r} already present")
    return dataclasses.replace(n, classes=n.classes + (t,))


def declare_relation(n: Network, r: Relation) -> Network:
    n._require(r.source)
    n._require(r.target)
    if r.triple in n._triples:
        raise NetworkError(
            f"relation {r.source.display} -{r.kind}-> {r.target.display} already present"
        )
    return dataclasses.replace(n, relations=n.relations + (r,))


def _append_relations(n: Network, relations: Sequence[Relation]) -> Network:
    fresh = {}
    for r in relations:
        if r.triple not in n._triples:
            fresh.setdefault(r.triple, r)
    if not fresh:
        return n
    return dataclasses.replace(n, relations=n.relations + tuple(fresh.values()))


def with_inferred(n: Network, threshold: float = 1.0) -> Network:
    """`n` plus its inferred relations.  Unlike `infer_relations`, which
    tests `threshold` only where an object meets a class, this rejects a
    threshold outside (0, 1] on every network."""
    check_threshold(threshold)
    return _append_relations(n, infer_relations(n, threshold))


def _add_derived(n: Network, node, base: str, dedup: bool) -> tuple[Network, NodeRef]:
    """Link to the first state-equal node of the same kind when `dedup` is
    on; otherwise add `node` under `base`, or `base#k` for the least k >= 2
    that no class or object displays as."""
    is_class = isinstance(node, ClassDef)
    nodes, ref = (n.classes, class_ref) if is_class else (n.objects, object_ref)
    if dedup:
        same = class_state_equal if is_class else object_state_equal
        existing = next((x for x in nodes if same(x, node)), None)
        if existing is not None:
            return n, ref(existing)
    name = base if base not in n._nodes else f"{base}#{free_index(base, 2, n._nodes)}"
    if is_class:
        node = dataclasses.replace(node, name=name)
        return add_class(n, node), ref(node)
    node = dataclasses.replace(node, identifier=name, clone_index=0)
    return add_object(n, node), ref(node)


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

    apply = apply_to_class if target.kind == CLASS else apply_to_object
    n, result_ref = _add_derived(
        n, apply(modifier, node), f"{modifier_name}({target.display})", dedup
    )
    n = _append_relations(
        n, [Relation(target, result_ref, "modification-of", "recorded")]
    )
    return n, result_ref


def _operand_classes(n: Network, operands: Sequence[NodeRef]) -> list:
    out = []
    for ref in operands:
        if ref.kind != CLASS:
            raise NetworkError(
                f"operand {ref.display!r} must be a class for this exploiter"
            )
        out.append(n.resolve(ref))
    return out


def _record_result(
    n: Network, operands: Sequence[NodeRef], result_ref: NodeRef
) -> Network:
    edges = []
    for ref in operands:
        edges.append(Relation(ref, result_ref, "operand-of", "recorded"))
        edges.append(Relation(result_ref, ref, "result-of", "recorded"))
    return _append_relations(n, edges)


def apply_exploiter(
    n: Network,
    op: str,
    operands: Sequence[NodeRef],
    clone_index: int | None = None,
    dedup: bool = True,
) -> tuple[Network, NodeRef | None, OperationResult | None]:
    """Run an enabled exploiter over resolved operands.  Present results
    are added (with dedup) and linked via recorded operand-of/result-of
    edges; absent results leave the network unchanged and return no node."""
    if op not in EXPLOITER_NAMES:
        raise NetworkError(f"unknown exploiter {op!r}")
    if op not in n.exploiters:
        raise NetworkError(f"exploiter {op!r} is not enabled in this network")

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
        n = add_object(n, clone)
        result_ref = object_ref(clone)
        n = _record_result(n, operands, result_ref)
        return n, result_ref, None

    if op == "union" and operands and all(ref.kind == OBJECT for ref in operands):
        objects = [n.resolve(ref) for ref in operands]
        result_objects, result = object_union(objects, in_use=n._nodes)
        clones = tuple(o for o, x in zip(result_objects, objects) if o is not x)
        if clones:
            n = dataclasses.replace(n, objects=n.objects + clones)
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

    if not result.exists:
        return n, None, result
    n, result_ref = _add_derived(n, result.class_def, result.class_def.name, dedup)
    n = _record_result(n, operands, result_ref)
    return n, result_ref, result
