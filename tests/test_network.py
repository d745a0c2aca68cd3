import dataclasses
import math
import random

import pytest

from oodn import (
    ModelError,
    Network,
    NetworkError,
    NodeRef,
    Relation,
    add_class,
    add_modifier,
    add_object,
    apply_exploiter,
    apply_modifier,
    declare_relation,
    empty_network,
    infer_relations,
    instances_of,
    neighbors,
    reachable,
    subclasses_of,
    with_inferred,
)
from oodn.model import classes_member_equivalent
from oodn.network import class_ref, object_ref

from .helpers import cls, obj, qprop


def edge_triples(relations):
    return {(r.source.display, r.kind, r.target.display) for r in relations}


class TestConstruction:
    def test_growth_and_lookup(self):
        n = empty_network()
        n = add_class(n, cls("t", qprop("p")))
        n = add_object(n, obj("o", qprop("p", value=1)))
        assert n.find_class("t") is not None
        assert n.find_object("o") is not None
        assert n.resolve(NodeRef("class", "t")).name == "t"

    def test_duplicate_names_rejected(self):
        n = add_class(empty_network(), cls("t", qprop("p")))
        with pytest.raises(NetworkError, match="already present"):
            add_class(n, cls("t", qprop("q")))

    def test_clones_coexist(self):
        n = add_object(empty_network(), obj("o", qprop("p", value=1)))
        n = add_object(n, obj("o", qprop("p", value=1), clone_index=1))
        assert n.find_object("o", 1) is not None
        with pytest.raises(NetworkError):
            add_object(n, obj("o", qprop("p", value=2), clone_index=1))

    def test_duplicate_display_names_rejected(self):
        clone = obj("o", qprop("p", value=1), clone_index=2)
        minted = obj("o#2", qprop("p", value=1))
        with pytest.raises(NetworkError, match=r"duplicate object 'o#2'"):
            Network(objects=(clone, minted))
        n = add_object(empty_network(), clone)
        with pytest.raises(NetworkError, match=r"duplicate object 'o#2'"):
            add_object(n, minted)

    def test_relation_endpoints_must_resolve(self):
        n = add_class(empty_network(), cls("t", qprop("p")))
        dangling = Relation(NodeRef("class", "t"), NodeRef("class", "ghost"), "is-a")
        with pytest.raises(NetworkError, match="does not resolve"):
            declare_relation(n, dangling)

    def test_duplicate_relation_rejected(self):
        n = add_class(empty_network(), cls("a", qprop("p")))
        n = add_class(n, cls("b", qprop("p"), qprop("q", "kg")))
        r = Relation(NodeRef("class", "b"), NodeRef("class", "a"), "a-kind-of")
        n = declare_relation(n, r)
        with pytest.raises(NetworkError, match="already present"):
            declare_relation(n, r)

    def test_unknown_exploiter_rejected(self):
        with pytest.raises(NetworkError, match="unknown exploiters"):
            Network(exploiters=frozenset({"teleport"}))

    def test_immutability(self):
        n = empty_network()
        n2 = add_class(n, cls("t", qprop("p")))
        assert n.classes == ()
        assert len(n2.classes) == 1


class TestTypedNodeIdentity:
    """A ref's name is a nonempty str and its clone index an int >= 0;
    a bool is not an int."""

    @pytest.mark.parametrize(
        "name", ["", ["a"], None, 7, b"a"], ids=["empty", "list", "none", "int", "bytes"]
    )
    @pytest.mark.parametrize("kind", ["class", "object"])
    def test_name_must_be_a_nonempty_str(self, kind, name):
        with pytest.raises(NetworkError) as exc:
            NodeRef(kind, name)
        assert str(exc.value) == f"node name must be a nonempty string: {name!r}"

    @pytest.mark.parametrize(
        "index",
        [True, False, 1.5, 2.0, -1, "2", None],
        ids=["true", "false", "float", "whole-float", "negative", "str", "none"],
    )
    @pytest.mark.parametrize("kind", ["class", "object"])
    def test_clone_index_must_be_an_int_at_least_0(self, kind, index):
        with pytest.raises(NetworkError) as exc:
            NodeRef(kind, "o", index)
        assert str(exc.value) == f"clone index must be an integer >= 0: {index!r}"

    def test_classes_carry_no_clone_index(self):
        with pytest.raises(NetworkError, match="^classes carry no clone index$"):
            NodeRef("class", "t", 1)


class TestRelationTriple:
    A, B = NodeRef("class", "a"), NodeRef("class", "b")

    def test_triple_is_source_target_kind(self):
        r = Relation(self.B, self.A, "a-kind-of", "inferred")
        assert r.triple == (self.B, self.A, "a-kind-of")
        assert r.triple is r.triple

    def test_triple_stays_out_of_eq_hash_and_repr(self):
        r = Relation(self.B, self.A, "a-kind-of")
        twin = Relation(self.B, self.A, "a-kind-of")
        object.__setattr__(twin, "triple", None)
        assert r == twin and hash(r) == hash(twin)
        assert r != Relation(self.B, self.A, "a-kind-of", "inferred")
        assert repr(r) == (
            "Relation(source=NodeRef(kind='class', name='b', clone_index=0), "
            "target=NodeRef(kind='class', name='a', clone_index=0), "
            "kind='a-kind-of', provenance='declared')"
        )
        fields = [f.name for f in dataclasses.fields(r) if f.init]
        assert fields == ["source", "target", "kind", "provenance"]

    def test_replace_recomputes_the_triple(self):
        r = Relation(self.B, self.A, "a-kind-of")
        assert dataclasses.replace(r, kind="is-a").triple == (self.B, self.A, "is-a")
        assert dataclasses.replace(r, source=self.A, target=self.B).triple == (
            self.A, self.B, "a-kind-of"
        )
        with pytest.raises(ValueError):
            dataclasses.replace(r, triple=(self.A, self.A, "x"))
        with pytest.raises(TypeError):
            Relation(self.B, self.A, "a-kind-of", "declared", (self.A, self.A, "x"))

    def test_duplicate_relation_messages(self):
        classes = (cls("a", qprop("p")), cls("b", qprop("p"), qprop("q", "kg")))
        r = Relation(self.B, self.A, "a-kind-of")
        twin = dataclasses.replace(r, provenance="inferred")
        with pytest.raises(NetworkError) as exc:
            Network(classes=classes, relations=(r, twin))
        assert str(exc.value) == "duplicate relation b -a-kind-of-> a"
        n = Network(classes=classes, relations=(r,))
        with pytest.raises(NetworkError) as exc:
            declare_relation(n, twin)
        assert str(exc.value) == "relation b -a-kind-of-> a already present"
        # Another kind between the same nodes is another relation.
        assert len(declare_relation(n, dataclasses.replace(r, kind="is-a")).relations) == 2


class TestInference:
    def test_polygon_fixture_exact_edges(self, polygons):
        edges = infer_relations(polygons)
        assert edge_triples(edges) == {
            ("T(R)", "a-kind-of", "T(P)"),
            ("T(S)", "a-kind-of", "T(P)"),
            ("T(S)", "a-kind-of", "T(R)"),
            ("R_1", "instance-of", "T(R)"),
            ("S_1", "instance-of", "T(S)"),
        }
        assert all(r.provenance == "inferred" for r in edges)

    def test_no_transitive_reduction(self, polygons):
        # T(S) -> T(P) is kept even though T(S) -> T(R) -> T(P) exists.
        triples = edge_triples(infer_relations(polygons))
        assert ("T(S)", "a-kind-of", "T(P)") in triples

    def test_instance_edges_only_to_most_specific(self, polygons):
        triples = edge_triples(infer_relations(polygons))
        assert ("R_1", "instance-of", "T(P)") not in triples
        assert ("S_1", "instance-of", "T(R)") not in triples

    def test_with_inferred_merges_and_is_idempotent(self, polygons):
        n = with_inferred(polygons)
        assert len(n.relations) == 5
        assert len(with_inferred(n).relations) == 5

    @pytest.mark.parametrize("threshold", [0.0, -1.0, 7.0, math.nan])
    def test_bad_threshold_rejected_on_every_network(self, polygons, threshold):
        objectless = empty_network()
        for c in polygons.classes:
            objectless = add_class(objectless, c)
        for n in (empty_network(), objectless, polygons):
            with pytest.raises(ModelError, match=r"threshold must lie in \(0, 1\]"):
                with_inferred(n, threshold)

    def test_random_lattice_against_subset_oracle(self):
        """Classes built as subsets of a fixed member pool: subsumption
        must coincide with proper subset inclusion of the name sets."""
        rng = random.Random(7)
        pool = [qprop(f"p{i}", units=f"u{i}") for i in range(6)]
        for _ in range(30):
            subsets = []
            n = empty_network()
            for i in range(rng.randint(2, 6)):
                picked = tuple(
                    sorted(rng.sample(range(6), rng.randint(1, 6)))
                )
                if picked in [s for _, s in subsets]:
                    continue
                name = f"c{i}"
                n = add_class(n, cls(name, *(pool[j] for j in picked)))
                subsets.append((name, picked))
            expected = {
                (small, "a-kind-of", big)
                for big, sb in subsets
                for small, ss in subsets
                if set(sb) < set(ss)
            }
            assert edge_triples(infer_relations(n)) == expected


class TestApplyModifier:
    def test_dedup_onto_existing_class(self, polygons):
        """Deleting the extra property of T(S) reproduces T(R), so the
        result links to T(R) instead of adding a twin node."""
        n, ref = apply_modifier(polygons, "M1(T(S))", NodeRef("class", "T(S)"))
        assert ref == NodeRef("class", "T(R)")
        assert len(n.classes) == len(polygons.classes)
        assert edge_triples(n.relations) == {("T(S)", "modification-of", "T(R)")}

    def test_new_node_when_state_differs(self, polygons):
        n, ref = apply_modifier(polygons, "M1(T(R))", NodeRef("class", "T(R)"))
        assert ref.name == "M1(T(R))(T(R))"
        assert len(n.classes) == len(polygons.classes) + 1
        assert n.resolve(ref).core.specification.get("side_count").value == 3.0

    def test_double_application_adds_nothing(self, polygons):
        n, ref = apply_modifier(polygons, "M1(T(S))", NodeRef("class", "T(S)"))
        n2, ref2 = apply_modifier(n, "M1(T(S))", NodeRef("class", "T(S)"))
        assert ref2 == ref
        assert n2 == n

    def test_no_dedup_flag(self, polygons):
        n, ref = apply_modifier(
            polygons, "M1(T(S))", NodeRef("class", "T(S)"), dedup=False
        )
        assert ref.name == "M1(T(S))(T(S))"
        assert classes_member_equivalent(n.resolve(ref), polygons.find_class("T(R)"))

    def test_object_modifier(self, polygons):
        n, ref = apply_modifier(polygons, "M1(R_1)", NodeRef("object", "R_1"))
        assert ref.kind == "object"
        assert n.resolve(ref).find_property("side_count").value == 3.0
        assert ("R_1", "modification-of", ref.display) in edge_triples(n.relations)

    def test_unknown_modifier(self, polygons):
        with pytest.raises(NetworkError, match="unknown modifier"):
            apply_modifier(polygons, "nope", NodeRef("class", "T(R)"))

    def test_name_collision_suffix(self, polygons):
        n, ref = apply_modifier(
            polygons, "M1(T(R))", NodeRef("class", "T(R)"), dedup=False
        )
        n2, ref2 = apply_modifier(n, "M1(T(R))", NodeRef("class", "T(R)"), dedup=False)
        assert ref2.name == "M1(T(R))(T(R))#2"


    def test_object_name_collision_suffix(self, polygons):
        target = NodeRef("object", "R_1")
        n, ref = apply_modifier(polygons, "M1(R_1)", target, dedup=False)
        n, ref2 = apply_modifier(n, "M1(R_1)", target, dedup=False)
        assert ref == NodeRef("object", "M1(R_1)(R_1)")
        assert ref2 == NodeRef("object", "M1(R_1)(R_1)#2")
        assert n.resolve(ref2).node_name == "M1(R_1)(R_1)#2"

    def test_fresh_name_skips_clone_display_names(self, polygons):
        """Clones 1 and 2 of the derived object display as base#1 and
        base#2, so the next derived object is named base#3."""
        target = NodeRef("object", "R_1")
        n, ref = apply_modifier(polygons, "M1(R_1)", target, dedup=False)
        for index in (1, 2):
            n, clone, _ = apply_exploiter(n, "clone", [ref])
            assert clone == NodeRef("object", "M1(R_1)(R_1)", index)
        n, ref3 = apply_modifier(n, "M1(R_1)", target, dedup=False)
        assert ref3 == NodeRef("object", "M1(R_1)(R_1)#3")
        assert len({o.node_name for o in n.objects}) == len(n.objects)

    def test_modified_clone_name(self, polygons):
        n, clone, _ = apply_exploiter(polygons, "clone", [NodeRef("object", "R_1")])
        n, ref = apply_modifier(n, "M1(R_1)", clone)
        assert ref == NodeRef("object", "M1(R_1)(R_1#1)")
        assert n.resolve(ref).find_property("side_count").value == 3.0


class TestNamespace:
    """Class names and object display names share one namespace."""

    def test_class_and_object_may_not_share_a_name(self):
        with pytest.raises(NetworkError, match=r"^class and object share the name 'X'$"):
            Network(objects=(obj("X", qprop("p", value=1)),), classes=(cls("X", qprop("p")),))
        n = add_class(empty_network(), cls("X", qprop("p")))
        with pytest.raises(NetworkError, match="share the name 'X'"):
            add_object(n, obj("X", qprop("p", value=1)))

    def test_class_result_name_skips_object_names(self):
        n = add_class(empty_network(), cls("a", qprop("p")))
        n = add_class(n, cls("b", qprop("q")))
        n = add_object(n, obj("union(a,b)", qprop("p", value=1)))
        n, ref, _ = apply_exploiter(n, "union", [NodeRef("class", "a"), NodeRef("class", "b")])
        assert ref == NodeRef("class", "union(a,b)#2")

    def test_object_result_name_skips_class_names(self, polygons):
        n = add_class(polygons, cls("M1(R_1)(R_1)", qprop("p")))
        n, ref = apply_modifier(n, "M1(R_1)", NodeRef("object", "R_1"), dedup=False)
        assert ref == NodeRef("object", "M1(R_1)(R_1)#2")

    def test_clone_index_skips_class_names(self, polygons):
        n = add_class(polygons, cls("R_1#1", qprop("p")))
        n, ref, _ = apply_exploiter(n, "clone", [NodeRef("object", "R_1")])
        assert ref == NodeRef("object", "R_1", 2)


class TestApplyExploiter:
    def test_union_adds_node_and_edges(self, polygons):
        refs = [NodeRef("class", "T(R)"), NodeRef("class", "T(S)")]
        n, ref, result = apply_exploiter(polygons, "union", refs)
        assert result.exists
        assert ref.name == "union(T(R),T(S))"
        triples = edge_triples(n.relations)
        for operand in ("T(R)", "T(S)"):
            assert (operand, "operand-of", ref.name) in triples
            assert (ref.name, "result-of", operand) in triples

    def test_absent_result_leaves_network_unchanged(self):
        n = add_class(empty_network(), cls("a", qprop("p", "cm")))
        n = add_class(n, cls("b", qprop("q", "kg")))
        n2, ref, result = apply_exploiter(
            n, "intersection", [NodeRef("class", "a"), NodeRef("class", "b")]
        )
        assert ref is None
        assert not result.exists
        assert n2 == n

    def test_clone_auto_index(self, polygons):
        n, ref, _ = apply_exploiter(polygons, "clone", [NodeRef("object", "R_1")])
        assert ref == NodeRef("object", "R_1", 1)
        n2, ref2, _ = apply_exploiter(n, "clone", [NodeRef("object", "R_1")])
        assert ref2 == NodeRef("object", "R_1", 2)

    def test_clone_auto_index_skips_minted_name(self, polygons):
        """A derived object minted as base#2 takes the display name of
        clone 2 of base, so automatic cloning skips index 2."""
        target = NodeRef("object", "R_1")
        n, base = apply_modifier(polygons, "M1(R_1)", target, dedup=False)
        n, minted = apply_modifier(n, "M1(R_1)", target, dedup=False)
        assert minted.display == "M1(R_1)(R_1)#2"
        n, first, _ = apply_exploiter(n, "clone", [base])
        n, second, _ = apply_exploiter(n, "clone", [base])
        assert (first.clone_index, second.clone_index) == (1, 3)
        with pytest.raises(NetworkError, match=r"duplicate object 'M1\(R_1\)\(R_1\)#2'"):
            apply_exploiter(n, "clone", [base], clone_index=2)

    def test_class_result_name_collision_suffix(self, polygons):
        refs = [NodeRef("class", "T(R)"), NodeRef("class", "T(S)")]
        n, ref, _ = apply_exploiter(polygons, "union", refs, dedup=False)
        n, ref2, _ = apply_exploiter(n, "union", refs, dedup=False)
        assert (ref.name, ref2.name) == ("union(T(R),T(S))", "union(T(R),T(S))#2")

    def test_derived_display_names_stay_unique(self, polygons):
        """Seeded growth by clones and undeduplicated modifiers: every
        object keeps a display name of its own."""
        rng = random.Random(7)
        n = polygons
        for _ in range(60):
            ref = object_ref(rng.choice([o for o in n.objects if o.identifier != "S_1"]))
            if rng.random() < 0.5:
                n, _, _ = apply_exploiter(n, "clone", [ref])
            else:
                n, _ = apply_modifier(n, "M1(R_1)", ref, dedup=False)
        names = [o.node_name for o in n.objects]
        assert len(set(names)) == len(names)
        assert any("#" in o.identifier for o in n.objects)

    def test_clone_explicit_index_conflict(self, polygons):
        n, _, _ = apply_exploiter(
            polygons, "clone", [NodeRef("object", "R_1")], clone_index=1
        )
        with pytest.raises(NetworkError, match="already used"):
            apply_exploiter(n, "clone", [NodeRef("object", "R_1")], clone_index=1)

    def test_object_union_adds_clones(self, polygons):
        refs = [NodeRef("object", "R_1"), NodeRef("object", "R_1")]
        n, ref, result = apply_exploiter(polygons, "union", refs)
        assert n.find_object("R_1", 1) is not None
        assert ref.kind == "class"
        assert [o.node_name for o in result.objects] == ["R_1", "R_1#1"]

    def test_object_union_skips_an_identifier_in_use(self):
        """An object whose identifier is `o#1` takes the name of clone 1."""
        n = add_object(empty_network(), obj("o", qprop("p", value=1)))
        n = add_object(n, obj("o#1", qprop("p", value=1)))
        o = NodeRef("object", "o")
        grown, ref, result = apply_exploiter(n, "union", [o, o])
        assert [o.node_name for o in result.objects] == ["o", "o#2"]
        assert grown.find_object("o", 2) == result.objects[1]
        assert ref == NodeRef("class", "union(o,o#2)")

    def test_object_union_keeps_a_present_clone(self):
        n = add_object(empty_network(), obj("o", qprop("p", value=1)))
        n = add_object(n, obj("o", qprop("p", value=7), clone_index=1))
        o = NodeRef("object", "o")
        grown, ref, result = apply_exploiter(n, "union", [o, o])
        assert grown.find_object("o", 1) is n.find_object("o", 1)
        assert grown.find_object("o", 2).specification.get("p").value == 1.0
        assert ref == NodeRef("class", "union(o,o#2)")
        assert neighbors(grown, ref, "result-of") == (o, NodeRef("object", "o", 2))

    def test_object_union_links_its_clone(self):
        """The clone a union mints is an operand of the union's class,
        like the object it repeats."""
        n = add_object(empty_network(), obj("o", qprop("p", value=1)))
        o, clone = NodeRef("object", "o"), NodeRef("object", "o", 1)
        grown, ref, _ = apply_exploiter(n, "union", [o, o])
        assert neighbors(grown, clone, direction="both") == (ref,)
        assert neighbors(grown, clone, "operand-of") == (ref,)
        assert neighbors(grown, ref, "result-of") == (o, clone)
        assert neighbors(grown, ref, "operand-of", direction="in") == (o, clone)

    def test_object_union_of_a_clone_skips_every_name_in_use(self):
        n = add_object(empty_network(), obj("o", qprop("p", value=1)))
        n = add_object(n, obj("o", qprop("p", value=1), clone_index=1))
        n = add_object(n, obj("o#2", qprop("p", value=1)))
        n = add_class(n, cls("o#3", qprop("p")))
        o1 = NodeRef("object", "o", 1)
        grown, ref, result = apply_exploiter(n, "union", [o1, o1])
        assert [o.node_name for o in result.objects] == ["o#1", "o#4"]
        assert grown.find_object("o", 4) == result.objects[1]
        assert len(grown.objects) == len(n.objects) + 1

    def test_disabled_exploiter(self, polygons):
        import dataclasses

        n = dataclasses.replace(polygons, exploiters=frozenset({"clone"}))
        with pytest.raises(NetworkError, match="not enabled"):
            apply_exploiter(
                n, "union", [NodeRef("class", "T(R)"), NodeRef("class", "T(S)")]
            )

    def test_dedup_of_result(self, polygons):
        """Intersecting T(R) with T(S) reproduces T(R) itself."""
        refs = [NodeRef("class", "T(R)"), NodeRef("class", "T(S)")]
        n, ref, _ = apply_exploiter(polygons, "intersection", refs)
        assert ref == NodeRef("class", "T(R)")
        assert len(n.classes) == len(polygons.classes)


class TestQueries:
    @pytest.fixture()
    def inferred(self, polygons):
        return with_inferred(polygons)

    def test_instances_of(self, inferred):
        assert instances_of(inferred, "T(R)") == (NodeRef("object", "R_1"),)
        assert instances_of(inferred, "T(P)") == ()

    def test_subclasses_of(self, inferred):
        assert subclasses_of(inferred, "T(P)") == (
            NodeRef("class", "T(R)"),
            NodeRef("class", "T(S)"),
        )
        assert subclasses_of(inferred, "T(S)") == ()

    def test_neighbors_directions(self, inferred):
        tr = NodeRef("class", "T(R)")
        assert neighbors(inferred, tr, kind="a-kind-of", direction="out") == (
            NodeRef("class", "T(P)"),
        )
        incoming = neighbors(inferred, tr, direction="in")
        assert NodeRef("class", "T(S)") in incoming
        assert NodeRef("object", "R_1") in incoming
        both = neighbors(inferred, tr, direction="both")
        assert len(both) == 3

    def test_is_a_alias(self, inferred):
        ts = NodeRef("class", "T(S)")
        assert neighbors(inferred, ts, kind="is-a") == neighbors(
            inferred, ts, kind="a-kind-of"
        )

    def test_reachable(self, inferred):
        assert reachable(inferred, NodeRef("class", "T(S)"), "a-kind-of") == (
            NodeRef("class", "T(P)"),
            NodeRef("class", "T(R)"),
        )

    def test_unresolved_start_node(self, inferred):
        with pytest.raises(NetworkError, match="unresolved"):
            neighbors(inferred, NodeRef("class", "ghost"))

    def test_modifier_registration(self):
        from oodn import Modifier
        from oodn.modifiers import SetValue

        n = add_modifier(
            empty_network(), Modifier("m", "class", (SetValue("p", 1.0),))
        )
        assert n.find_modifier("m") is not None
        with pytest.raises(NetworkError, match="already present"):
            add_modifier(n, Modifier("m", "class", (SetValue("p", 2.0),)))

    def test_refs_helpers(self, polygons):
        assert class_ref(polygons.find_class("T(R)")) == NodeRef("class", "T(R)")
        assert object_ref(polygons.find_object("R_1")) == NodeRef("object", "R_1")


class TestOneSnapshotPerStep:
    """A growth step builds at most one snapshot, that is one validating
    `Network.__post_init__` run, and none when it adds nothing."""

    @pytest.fixture
    def built(self, monkeypatch):
        """`built(fn, *args)`: fn's result and the snapshots it built."""
        calls = []
        original = Network.__post_init__

        def counted(self):
            calls.append(self)
            original(self)

        monkeypatch.setattr(Network, "__post_init__", counted)

        def built(fn, *args, **kwargs):
            calls.clear()
            return fn(*args, **kwargs), len(calls)

        return built

    def test_every_growth_step_builds_at_most_one(self, polygons, built):
        r1, s1 = NodeRef("object", "R_1"), NodeRef("object", "S_1")
        tr, ts, tp = (NodeRef("class", f"T({x})") for x in "RSP")
        steps = [
            (apply_exploiter, "union", [tr, ts, tp]),
            (apply_exploiter, "intersection", [tr, ts]),
            (apply_exploiter, "difference", [ts, tr]),
            (apply_exploiter, "symmetric-difference", [tp, ts]),
            (apply_exploiter, "union", [r1, s1]),
            (apply_exploiter, "clone", [r1]),
            (apply_modifier, "M1(T(R))", tr),
            (apply_modifier, "M1(R_1)", r1),
        ]
        n = polygons
        for dedup in (True, False, True):
            for fn, *args in steps:
                out, count = built(fn, n, *args, dedup=dedup)
                assert count == (0 if out[0] is n else 1), (fn.__name__, args, dedup)
                n = out[0]
        grown, count = built(with_inferred, n)
        assert count == 1 and len(grown.relations) > len(n.relations)

    def test_absent_result_builds_none(self, built):
        n = add_class(empty_network(), cls("a", qprop("p")))
        n = add_class(n, cls("b", qprop("q", "kg")))
        a, b = NodeRef("class", "a"), NodeRef("class", "b")
        for op, operands in (("intersection", [a, b]), ("difference", [a, a])):
            (grown, ref, result), count = built(apply_exploiter, n, op, operands)
            assert not result.exists and ref is None
            assert grown is n and count == 0

    def test_dedup_hit_with_its_edges_builds_none(self, polygons, built):
        tr, ts = NodeRef("class", "T(R)"), NodeRef("class", "T(S)")
        (n, ref, _), count = built(apply_exploiter, polygons, "union", [tr, ts])
        assert count == 1
        (again, again_ref, _), count = built(apply_exploiter, n, "union", [tr, ts])
        assert again is n and again_ref == ref and count == 0
        (n, ref), count = built(apply_modifier, n, "M1(T(R))", tr)
        assert count == 1
        (again, again_ref), count = built(apply_modifier, n, "M1(T(R))", tr)
        assert again is n and again_ref == ref and count == 0

    def test_object_union_with_repeats_builds_one(self, polygons, built):
        r1, s1 = NodeRef("object", "R_1"), NodeRef("object", "S_1")
        (n, ref, _), count = built(apply_exploiter, polygons, "union", [r1, r1, s1, r1])
        assert count == 1
        assert [o.node_name for o in n.objects[len(polygons.objects):]] == ["R_1#1", "R_1#2"]
        assert n.classes[-1].name == ref.name
