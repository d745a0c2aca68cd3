"""A frozen copy of `infer_relations`, `satisfies` and `member_score` as
they were before inference tested each class's structure with one set
test per object.

Here every member of a class is scored in member order (properties,
then methods), with a stop at the first score of 0.  So whether an
object that lacks part of a class's structure scores 0 or raises the
`EvalError` of a verification depends on where the missing member sits.
`tests/test_inference_structure.py` holds the engine to these
functions.  Do not edit this file to follow the engine.
"""

from __future__ import annotations

from oodn.expr import EvalContext, EvalError, evaluate
from oodn.model import (
    ClassDef,
    Method,
    ObjectInstance,
    QualitativeProperty,
    QuantitativeProperty,
    check_threshold,
    require_homogeneous,
    subsumes,
)
from oodn.network import Network, Relation, class_ref, object_ref


def satisfies(o: ObjectInstance, t: ClassDef, threshold: float = 1.0) -> float:
    core = require_homogeneous(t, "satisfies")
    check_threshold(threshold)
    ctx = EvalContext(subject=o)
    score = 1.0
    for m in (*core.specification, *core.signature):
        score = min(score, member_score(o, m, ctx))
        if score == 0.0:
            return 0.0
    return score


def member_score(o: ObjectInstance, m, ctx: EvalContext) -> float:
    if isinstance(m, Method):
        own = o.signature.get(m.name)
        if own is None or own.arity != m.arity:
            return 0.0
        return 1.0 if m.body is None or own.key == m.key else 0.0
    if isinstance(m, QuantitativeProperty):
        own = o.find_property(m.name)
        if isinstance(own, QuantitativeProperty) and own.units == m.units:
            return 1.0
        return 0.0
    if m.verification is not None:
        try:
            result = evaluate(m.verification, ctx)
        except EvalError as exc:
            raise EvalError(
                f"verification of property {m.name!r} failed on "
                f"{o.node_name}: {exc}",
                exc.node,
            ) from exc
        return float(result)
    own = o.find_property(m.name)
    if isinstance(own, QualitativeProperty) and own.degree is not None:
        return own.degree
    return 0.0


def infer_relations(n: Network, threshold: float = 1.0) -> tuple:
    check_threshold(threshold)
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
