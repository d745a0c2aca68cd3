import dataclasses
import json
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodn import (
    LoadError,
    Network,
    NodeRef,
    Relation,
    export_dot,
    load_file,
    load_text,
    save_file,
    save_text,
    with_inferred,
)
from oodn import io as oodn_io
from oodn.model import class_state_equal, object_state_equal
from oodn.modifiers import ModificationFunction

from .helpers import check_dot, cls, obj, qprop, qual
from .strategies import core_only_classes


def doc(**overrides):
    base = {"format": "oodn/1"}
    base.update(overrides)
    return json.dumps(base)


# Integers beyond the range of a float.
_HUGE_INT = pytest.param("1" + "0" * 400, id="401-digits")
_HUGE_LIST = pytest.param("[1, -1" + "0" * 400 + "]", id="[1, -401-digits]")


class TestLoad:
    def test_polygon_fixture_counts(self, polygons):
        assert len(polygons.classes) == 3
        assert len(polygons.objects) == 2
        assert len(polygons.modifiers) == 5
        assert polygons.exploiters == frozenset(
            {"union", "intersection", "difference", "symmetric-difference", "clone"}
        )

    def test_empty_document(self):
        n = load_text(doc())
        assert n.classes == () and n.objects == () and n.relations == ()
        assert len(n.exploiters) == 5  # absent key enables everything

    def test_not_json(self):
        with pytest.raises(LoadError, match="not valid JSON"):
            load_text("{nope")

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param('{"format": 1' + "0" * 5000 + "}", id="5001-digits"),
            pytest.param("[" * 100_000 + "]" * 100_000, id="deep"),
        ],
    )
    def test_json_beyond_parser_limits(self, text):
        """An integer with more digits than Python converts, and nesting
        deeper than the JSON parser recurses."""
        with pytest.raises(LoadError, match="not valid JSON"):
            load_text(text)

    def test_missing_format(self):
        with pytest.raises(LoadError, match="format"):
            load_text("{}")

    def test_unsupported_format(self):
        with pytest.raises(LoadError, match="unsupported format"):
            load_text(doc(format="oodn/999"))

    @pytest.mark.parametrize(
        "value", ["Infinity", "-Infinity", "NaN", "true", "[1, Infinity]", _HUGE_INT]
    )
    def test_value_must_be_a_finite_number(self, value):
        text = doc(
            objects=[
                {
                    "identifier": "o",
                    "properties": [{"name": "p", "kind": "quantitative", "units": "cm"}],
                    "methods": [],
                }
            ]
        ).replace('"units": "cm"', f'"units": "cm", "value": {value}')
        with pytest.raises(LoadError) as exc:
            load_text(text)
        assert "$.objects[0].properties[0]" in str(exc.value)

    def test_degree_must_be_a_finite_number(self):
        prop = {"name": "q", "kind": "qualitative", "verification": None, "degree": 10**400}
        text = doc(objects=[{"identifier": "o", "properties": [prop], "methods": []}])
        with pytest.raises(LoadError, match="number out of range") as exc:
            load_text(text)
        assert "$.objects[0].properties[0]" in str(exc.value)

    def test_bad_expression_has_path(self):
        bad = doc(
            classes=[
                {
                    "name": "t",
                    "core": {
                        "properties": [
                            {
                                "name": "q",
                                "kind": "qualitative",
                                "verification": "1 +",
                                "degree": None,
                            }
                        ],
                        "methods": [],
                    },
                    "projections": [],
                }
            ]
        )
        with pytest.raises(LoadError) as exc:
            load_text(bad)
        assert "$.classes[0].core.properties[0].verification" in str(exc.value)

    @pytest.mark.parametrize(
        "source, message",
        [
            ('"a" + 1 > 0', "arithmetic '+' needs numeric operands"),
            ('"a" < "b"', "ordering '<' is not defined for text"),
            ("sum(x) > 0", "sum expects a list of numbers"),
            ("if 2 then 1 else 0", "connective operand must be a degree in [0, 1]"),
        ],
    )
    def test_ill_sorted_verification_has_path(self, source, message):
        q = {"name": "q", "kind": "qualitative", "verification": source}
        p = {"name": "p", "kind": "quantitative", "units": "cm"}
        with pytest.raises(LoadError) as exc:
            load_text(doc(classes=[{"name": "t", "core": {"properties": [p, q]}}]))
        assert exc.value.path == "$.classes[0].core.properties[1]"
        assert str(exc.value) == f"$.classes[0].core.properties[1]: {message}"

    def test_class_and_object_share_a_name(self):
        p = {"name": "p", "kind": "quantitative", "units": "cm"}
        text = doc(
            classes=[{"name": "X", "core": {"properties": [p], "methods": []}}],
            objects=[{"identifier": "X", "properties": [{**p, "value": 1}], "methods": []}],
        )
        with pytest.raises(LoadError) as exc:
            load_text(text)
        assert exc.value.path == "$"
        assert str(exc.value) == "$: class and object share the name 'X'"

    def test_dangling_relation(self):
        bad = doc(
            relations=[
                {
                    "from": {"kind": "class", "name": "ghost"},
                    "to": {"kind": "class", "name": "ghost"},
                    "relation": "is-a",
                }
            ]
        )
        with pytest.raises(LoadError, match="does not resolve"):
            load_text(bad)

    @pytest.mark.parametrize("end", ["from", "to"])
    def test_negative_clone_index_in_a_relation(self, end):
        p = {"name": "p", "kind": "quantitative", "units": "cm", "value": 1}
        ends = {"from": {"kind": "object", "name": "o"}, "to": {"kind": "object", "name": "o"}}
        ends[end] = {"kind": "object", "name": "o", "cloneIndex": -1}
        bad = doc(
            objects=[{"identifier": "o", "properties": [p], "methods": []}],
            relations=[{**ends, "relation": "is-a"}],
        )
        with pytest.raises(LoadError) as exc:
            load_text(bad)
        assert exc.value.path == f"$.relations[0].{end}"
        assert str(exc.value) == (
            f"$.relations[0].{end}: clone index must be an integer >= 0: -1"
        )

    def test_unknown_property_kind(self):
        bad = doc(
            classes=[
                {
                    "name": "t",
                    "core": {
                        "properties": [{"name": "p", "kind": "weird"}],
                        "methods": [],
                    },
                }
            ]
        )
        with pytest.raises(LoadError, match="unknown property kind"):
            load_text(bad)

    @pytest.mark.parametrize(
        "value", ["Infinity", "NaN", "[true]", "[]", '["a"]', "null", _HUGE_LIST]
    )
    def test_set_value_must_be_finite_numbers(self, value):
        edit = {"edit": "setValue", "property": "p", "value": None}
        text = doc(modifiers=[{"name": "m", "target": "class", "edits": [edit]}])
        with pytest.raises(LoadError) as exc:
            load_text(text.replace('"value": null', f'"value": {value}'))
        assert "$.modifiers[0].edits[0].value" in str(exc.value)

    def test_set_value_round_trip(self):
        edit = {"edit": "setValue", "property": "p", "value": [1, 2.5]}
        n = load_text(doc(modifiers=[{"name": "m", "target": "class", "edits": [edit]}]))
        assert n.modifiers[0].edits[0].value == (1.0, 2.5)
        saved = save_text(n)
        assert save_text(load_text(saved)) == saved

    def test_unknown_edit_kind(self):
        bad = doc(modifiers=[{"name": "m", "target": "class", "edits": [{"edit": "zap"}]}])
        with pytest.raises(LoadError, match="unknown edit kind"):
            load_text(bad)

    def test_wrong_type_reports_path(self):
        bad = doc(classes=[{"name": 7}])
        with pytest.raises(LoadError, match=r"\$\.classes\[0\]\.name"):
            load_text(bad)

    def test_load_file(self, tmp_path, polygons):
        path = tmp_path / "n.oodn.json"
        save_file(polygons, path)
        again = load_file(path)
        assert len(again.classes) == 3


def networks_equivalent(a: Network, b: Network) -> bool:
    if {t.name for t in a.classes} != {t.name for t in b.classes}:
        return False
    for t in a.classes:
        if not class_state_equal(t, b.find_class(t.name)):
            return False
    for o in a.objects:
        other = b.find_object(o.identifier, o.clone_index)
        if other is None or not object_state_equal(o, other):
            return False
    if len(a.objects) != len(b.objects):
        return False
    return (
        {r.triple for r in a.relations} == {r.triple for r in b.relations}
        and a.exploiters == b.exploiters
        and {m.name for m in a.modifiers} == {m.name for m in b.modifiers}
    )


class TestSave:
    def test_round_trip_fixture(self, polygons):
        again = load_text(save_text(polygons))
        assert networks_equivalent(polygons, again)
        assert {m.name: m for m in again.modifiers} == {
            m.name: m for m in polygons.modifiers
        }

    def test_round_trip_with_relations(self, polygons):
        n = with_inferred(polygons)
        assert networks_equivalent(n, load_text(save_text(n)))

    def test_deterministic_bytes(self, polygons):
        text = save_text(polygons)
        assert text == save_text(polygons)
        assert save_text(load_text(text)) == text

    def test_order_insensitive(self, polygons):
        import dataclasses

        shuffled = dataclasses.replace(
            polygons,
            classes=tuple(reversed(polygons.classes)),
            objects=tuple(reversed(polygons.objects)),
        )
        assert save_text(shuffled) == save_text(polygons)

    @settings(max_examples=100)
    @given(st.lists(core_only_classes(), min_size=0, max_size=4))
    def test_round_trip_generated(self, classes):
        n = Network(
            objects=(obj("o", qprop("p1", "cm", [1, 2])),),
            classes=tuple(
                type(t)(name=f"t{i}", core=t.core, projections=t.projections)
                for i, t in enumerate(classes)
            ),
            relations=(
                Relation(
                    NodeRef("object", "o"), NodeRef("class", "t0"), "instance-of"
                ),
            )
            if classes
            else (),
        )
        assert networks_equivalent(n, load_text(save_text(n)))


class TestDot:
    def test_fixture_export(self, polygons):
        n = with_inferred(polygons)
        nodes, edges = check_dot(export_dot(n))
        assert nodes == 5
        assert edges == 5

    def test_shapes(self, polygons):
        text = export_dot(polygons)
        assert '"T(R)" [shape=box];' in text
        assert '"R_1" [shape=ellipse];' in text

    def test_recorded_exploiter_edges_dashed(self, polygons):
        from oodn import apply_exploiter

        n, _, _ = apply_exploiter(
            polygons,
            "union",
            [NodeRef("class", "T(R)"), NodeRef("class", "T(S)")],
        )
        text = export_dot(n)
        assert "label=\"operand-of\" style=dashed" in text
        assert "label=\"result-of\" style=dashed" in text
        check_dot(text)

    def test_quoting(self):
        from .helpers import cls as mkcls, qprop as mkprop

        weird = Network(classes=(mkcls('he said "hi"', mkprop("p")),))
        text = export_dot(weird)
        assert '"he said \\"hi\\""' in text
        check_dot(text)


# One sample of each edit kind, in the form save_text writes it.
EDIT_SAMPLES = {
    "setValue": {"edit": "setValue", "property": "p", "value": [1.0, 2.5]},
    "setUnits": {"edit": "setUnits", "property": "p", "units": "mm"},
    "setExpression": {"edit": "setExpression", "property": "q", "expression": "self.p.value > 1"},
    "addProperty": {
        "edit": "addProperty",
        "propertyDef": {"name": "r", "kind": "quantitative", "units": "kg", "value": None},
    },
    "removeProperty": {"edit": "removeProperty", "property": "p"},
    "replaceProperty": {
        "edit": "replaceProperty",
        "property": "p",
        "propertyDef": {
            "name": "p2",
            "kind": "qualitative",
            "verification": "self.r.value < 3",
            "degree": 0.5,
        },
    },
    "addMethod": {
        "edit": "addMethod",
        "methodDef": {"name": "f", "parameters": ["x"], "body": "x * 2"},
    },
    "removeMethod": {"edit": "removeMethod", "method": "f"},
    "replaceMethod": {
        "edit": "replaceMethod",
        "method": "f",
        "methodDef": {"name": "g", "parameters": [], "body": None},
    },
}

EDIT_PATH = "$.modifiers[0].edits[0]"


def edit_doc(edit):
    return doc(modifiers=[{"name": "m", "target": "class", "edits": [edit]}])


def edit_key_errors():
    """(kind, key, bad value or None for a missing key, expected path,
    expected message) for every key of every edit kind."""
    cases = []
    for kind, sample in EDIT_SAMPLES.items():
        for key in sample:
            if key == "edit":
                continue
            if key in ("propertyDef", "methodDef"):
                what = "a property object" if key == "propertyDef" else "a method object"
                cases.append((kind, key, None, f"{EDIT_PATH}.{key}", f"expected {what}"))
                cases.append((kind, key, 7, f"{EDIT_PATH}.{key}", f"expected {what}"))
            elif key == "value":
                cases.append(
                    (kind, key, None, f"{EDIT_PATH}.value", "expected a number or a list of numbers")
                )
                cases.append(
                    (kind, key, "a", f"{EDIT_PATH}.value", "expected a number, got 'a'")
                )
            else:
                cases.append((kind, key, None, EDIT_PATH, f"missing required key {key!r}"))
                cases.append((kind, key, 7, f"{EDIT_PATH}.{key}", "expected a string"))
    return cases


class TestEditCodec:
    @pytest.mark.parametrize("kind", sorted(EDIT_SAMPLES))
    def test_round_trip(self, kind):
        saved = save_text(load_text(edit_doc(EDIT_SAMPLES[kind])))
        assert json.loads(saved)["modifiers"][0]["edits"] == [EDIT_SAMPLES[kind]]
        assert save_text(load_text(saved)) == saved

    def test_all_kinds_in_one_modifier(self):
        edits = [EDIT_SAMPLES[k] for k in sorted(EDIT_SAMPLES)]
        text = doc(modifiers=[{"name": "m", "target": "object", "edits": edits}])
        saved = save_text(load_text(text))
        assert json.loads(saved)["modifiers"][0]["edits"] == edits
        assert save_text(load_text(saved)) == saved

    @pytest.mark.parametrize("kind,key,bad,path,message", edit_key_errors())
    def test_bad_key(self, kind, key, bad, path, message):
        edit = dict(EDIT_SAMPLES[kind])
        if bad is None:
            del edit[key]
        else:
            edit[key] = bad
        with pytest.raises(LoadError) as exc:
            load_text(edit_doc(edit))
        assert exc.value.path == path
        assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize(
        "edit,path,message",
        [
            ({"property": "p"}, EDIT_PATH, "missing required key 'edit'"),
            ({"edit": 3}, f"{EDIT_PATH}.edit", "expected a string"),
            ({"edit": "zap"}, f"{EDIT_PATH}.edit", "unknown edit kind 'zap'"),
            ("setUnits", EDIT_PATH, "expected an edit object"),
            (
                {"edit": "setExpression", "property": "q", "expression": "1 +"},
                f"{EDIT_PATH}.expression",
                "bad expression: ",
            ),
        ],
    )
    def test_bad_edit(self, edit, path, message):
        with pytest.raises(LoadError) as exc:
            load_text(edit_doc(edit))
        assert exc.value.path == path
        assert str(exc.value).startswith(f"{path}: {message}")

    def test_table_holds_each_edit_class_once(self):
        classes = [cls for cls, _ in oodn_io._EDITS.values()]
        assert len(classes) == len(set(classes))
        assert set(classes) == set(typing.get_args(ModificationFunction))
        for cls, fields in oodn_io._EDITS.values():
            assert len(fields) == len(dataclasses.fields(cls))


def _shared_source_doc(source: str) -> str:
    """Class `t` and object `o`, each with a property `q` verified by
    `source`, and a modifier whose setExpression edit sets `source`."""
    q = {"name": "q", "kind": "qualitative", "verification": source, "degree": None}
    return doc(
        classes=[{"name": "t", "core": {"properties": [q], "methods": []}}],
        objects=[{"identifier": "o", "properties": [dict(q, degree=1)], "methods": []}],
        modifiers=[
            {
                "name": "m",
                "target": "class",
                "edits": [{"edit": "setExpression", "property": "q", "expression": source}],
            }
        ],
    )


class TestOnePassPerDocument:
    """A load parses each distinct expression source once; a save prints
    each tree once.  Neither keeps anything after the call."""

    SOURCE = "self.p.value > 2"

    def test_one_source_loads_as_one_tree(self):
        n = load_text(_shared_source_doc(self.SOURCE))
        tree = n.classes[0].core.specification.members[0].verification
        assert n.objects[0].specification.members[0].verification is tree
        assert n.modifiers[0].edits[0].expression is tree

    def test_bad_source_reports_its_first_use(self):
        with pytest.raises(LoadError) as exc:
            load_text(_shared_source_doc("1 +"))
        assert exc.value.path == "$.classes[0].core.properties[0].verification"

    def test_loads_share_no_tree(self):
        text = _shared_source_doc(self.SOURCE)
        first, second = load_text(text), load_text(text)
        a = first.classes[0].core.specification.members[0].verification
        b = second.classes[0].core.specification.members[0].verification
        assert a == b and a is not b

    def test_equal_distinct_trees_print_alike(self):
        a, b = qual("q", self.SOURCE), qual("q", self.SOURCE, 1.0)
        assert a.verification == b.verification and a.verification is not b.verification
        saved = json.loads(save_text(Network(objects=(obj("o", b),), classes=(cls("t", a),))))
        assert saved["classes"][0]["core"]["properties"][0]["verification"] == self.SOURCE
        assert saved["objects"][0]["properties"][0]["verification"] == self.SOURCE

    def test_distinct_trees_print_apart(self):
        n = Network(classes=(cls("t", qual("q", "x > 1")), cls("u", qual("q", "x > 2"))))
        saved = json.loads(save_text(n))
        texts = [c["core"]["properties"][0]["verification"] for c in saved["classes"]]
        assert texts == ["x > 1", "x > 2"]
