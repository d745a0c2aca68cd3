"""A frozen copy of the checks `oodn.network.Network.__post_init__` ran
before it tested relation endpoints against one set of node keys: the
node and modifier index, the relation loop, `_require` and `_lookup`
(with the `find_class` and `find_object` they call).

`tests/test_validation_differential.py` holds the engine's constructor
to this copy: the same `_nodes`, `_modifiers` and `_triples`, or the
same exception type and message.  Do not edit this file to follow the
engine.
"""

from __future__ import annotations

from oodn.model import ClassDef, ObjectInstance
from oodn.modifiers import CLASS
from oodn.network import EXPLOITER_NAMES, NetworkError, NodeRef


class Validated:
    """The indexes the constructor built for these fields, or the error
    it raised."""

    def __init__(self, objects=(), classes=(), relations=(), exploiters=EXPLOITER_NAMES,
                 modifiers=()):
        objects, classes, relations = tuple(objects), tuple(classes), tuple(relations)
        exploiters, modifiers = frozenset(exploiters), tuple(modifiers)
        unknown = exploiters - EXPLOITER_NAMES
        if unknown:
            raise NetworkError(f"unknown exploiters: {sorted(unknown)}")
        nodes, modifier_index = {}, {}
        for what, index, items in (
            ("object", nodes, objects),
            ("class", nodes, classes),
            ("modifier", modifier_index, modifiers),
        ):
            for x in items:
                name = x.node_name if what == "object" else x.name
                if name in index:
                    if what == "class" and isinstance(index[name], ObjectInstance):
                        raise NetworkError(f"class and object share the name {name!r}")
                    raise NetworkError(f"duplicate {what} {name!r}")
                index[name] = x
        self._nodes = nodes
        self._modifiers = modifier_index
        triples = set()
        for r in relations:
            if r.triple in triples:
                raise NetworkError(
                    f"duplicate relation {r.source.display} -{r.kind}-> {r.target.display}"
                )
            triples.add(r.triple)
            self._require(r.source)
            self._require(r.target)
        self._triples = triples

    def find_class(self, name: str) -> ClassDef | None:
        t = self._nodes.get(name)
        return t if isinstance(t, ClassDef) else None

    def find_object(self, identifier: str, clone_index: int = 0) -> ObjectInstance | None:
        o = self._nodes.get(f"{identifier}#{clone_index}" if clone_index else identifier)
        if isinstance(o, ObjectInstance) and o.identifier == identifier:
            return o
        return None

    def _lookup(self, ref: NodeRef):
        if ref.kind == CLASS:
            return self.find_class(ref.name)
        return self.find_object(ref.name, ref.clone_index)

    def _require(self, ref: NodeRef) -> None:
        if self._lookup(ref) is None:
            raise NetworkError(f"relation endpoint does not resolve: {ref.display!r}")
