import json

import pytest

from oodn import empty_network, fixture_text, load_file, save_text
from oodn.cli import main

from .helpers import check_dot


@pytest.fixture()
def polygons_path(tmp_path):
    path = tmp_path / "polygons.oodn.json"
    path.write_text(fixture_text("polygons.oodn.json"))
    return str(path)


@pytest.fixture()
def figures_path(tmp_path):
    path = tmp_path / "figures.oodn.json"
    path.write_text(fixture_text("figures.oodn.json"))
    return str(path)


class TestValidate:
    def test_ok(self, polygons_path, capsys):
        assert main(["validate", polygons_path]) == 0
        out = capsys.readouterr().out
        assert "3 classes" in out and "2 objects" in out

    def test_json_output(self, polygons_path, capsys):
        assert main(["validate", polygons_path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["classes"] == 3

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_document(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"format": "oodn/1", "classes": [{"name": 7}]}')
        assert main(["validate", str(path)]) == 2
        assert "$.classes[0].name" in capsys.readouterr().err

    def test_non_finite_literal(self, tmp_path, capsys):
        body = '"body": "sum(self.side_sizes.values)"'
        text = fixture_text("polygons.oodn.json").replace(
            body, body[:-1] + " * 1" + "0" * 400 + '"', 1
        )
        path = tmp_path / "huge.json"
        path.write_text(text)
        for argv in (["validate", str(path)], ["infer", str(path), "--out", str(path)]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and "number out of range" in err

    def test_integer_beyond_float_range(self, tmp_path, capsys):
        text = fixture_text("polygons.oodn.json").replace(
            '"units": "count", "value": 4', '"units": "count", "value": 1' + "0" * 400, 1
        )
        path = tmp_path / "huge.json"
        path.write_text(text)
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "internal error" not in err
        assert "number out of range" in err

    def test_not_utf8(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe" + '{"format": "oodn/1"}'.encode("utf-16-le"))
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "internal error" not in err
        assert str(path) in err and "not UTF-8" in err

    def test_class_and_object_share_a_name(self, tmp_path, capsys):
        path = tmp_path / "shared.json"
        p = {"name": "p", "kind": "quantitative", "units": "cm"}
        doc = {
            "format": "oodn/1",
            "classes": [{"name": "X", "core": {"properties": [p], "methods": []}}],
            "objects": [{"identifier": "X", "properties": [{**p, "value": 1}], "methods": []}],
        }
        path.write_text(json.dumps(doc))
        for argv in (["validate", str(path)], ["show", str(path), "X"]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err == "error: $: class and object share the name 'X'\n"

    def test_deep_nesting(self, tmp_path, capsys):
        source = "all_equal(self.side_sizes.values)"
        deep = "(" * 3000 + source + ")" * 3000
        path = tmp_path / "deep.json"
        path.write_text(fixture_text("polygons.oodn.json").replace(source, deep, 1))
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "nested more than" in err and "Traceback" not in err

    def test_unexpected_exception(self, polygons_path, capsys, monkeypatch):
        def broken(path):
            raise RuntimeError("first line\nsecond line")

        monkeypatch.setattr("oodn.cli.load_file", broken)
        assert main(["validate", polygons_path]) == 2
        err = capsys.readouterr().err
        assert err == "error: internal error (RuntimeError): first line second line\n"

    def test_deterministic_output(self, polygons_path, capsys):
        main(["validate", polygons_path])
        first = capsys.readouterr().out
        main(["validate", polygons_path])
        assert capsys.readouterr().out == first


class TestShow:
    def test_summary(self, polygons_path, capsys):
        assert main(["show", polygons_path]) == 0
        out = capsys.readouterr().out
        assert "T(R)" in out and "R_1" in out

    def test_class_report(self, polygons_path, capsys):
        assert main(["show", polygons_path, "T(S)"]) == 0
        out = capsys.readouterr().out
        assert "all_angles_equal" in out

    def test_object_with_clone_suffix(self, polygons_path, tmp_path, capsys):
        out_path = str(tmp_path / "grown.json")
        main(["op", polygons_path, "clone", "R_1", "--out", out_path])
        capsys.readouterr()
        assert main(["show", out_path, "R_1#1"]) == 0
        assert "R_1#1" in capsys.readouterr().out

    def test_unknown_node(self, polygons_path, capsys):
        assert main(["show", polygons_path, "ghost"]) == 2
        assert "no class or object" in capsys.readouterr().err

    def test_modified_clone_addressable(self, polygons_path, capsys):
        assert main(["op", polygons_path, "clone", "R_1", "--out", polygons_path]) == 0
        argv = ["modify", polygons_path, "M1(R_1)", "R_1#1", "--out", polygons_path]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["show", polygons_path, "M1(R_1)(R_1#1)"]) == 0
        assert capsys.readouterr().out.startswith("object M1(R_1)(R_1#1)\n")

    def test_minted_name_addressable(self, polygons_path, capsys):
        argv = ["modify", polygons_path, "M1(R_1)", "R_1", "--no-dedup", "--out", polygons_path]
        assert main(argv) == 0
        assert main(argv) == 0
        assert capsys.readouterr().out.count("result: ") == 2
        assert main(["show", polygons_path, "M1(R_1)(R_1)#2", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"object": "M1(R_1)(R_1)#2"}

    def test_minted_name_and_clone_do_not_collide(self, polygons_path, capsys):
        modify = ["modify", polygons_path, "M1(R_1)", "R_1", "--no-dedup", "--out", polygons_path]
        clone = ["op", polygons_path, "clone", "M1(R_1)(R_1)", "--json", "--out", polygons_path]
        assert main(modify) == 0 and main(modify) == 0
        capsys.readouterr()
        assert main(clone) == 0 and main(clone) == 0
        results = [json.loads(line)["result"] for line in capsys.readouterr().out.splitlines()]
        assert results == [{"object": "M1(R_1)(R_1)#1"}, {"object": "M1(R_1)(R_1)#3"}]
        for name in ("M1(R_1)(R_1)#2", "M1(R_1)(R_1)#3"):
            assert main(["show", polygons_path, name]) == 0
            assert capsys.readouterr().out.startswith(f"object {name}\n")

    def test_colliding_display_names_rejected(self, tmp_path, capsys):
        objects = [
            {"identifier": "o", "cloneIndex": 2, "properties": [], "methods": []},
            {"identifier": "o#2", "cloneIndex": 0, "properties": [], "methods": []},
        ]
        path = tmp_path / "clash.json"
        path.write_text(json.dumps({"format": "oodn/1", "objects": objects}))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err == "error: $: duplicate object 'o#2'\n"


class TestOp:
    def test_union(self, polygons_path, capsys):
        assert main(["op", polygons_path, "union", "T(R)", "T(S)"]) == 0
        out = capsys.readouterr().out
        assert "union(T(R),T(S))" in out

    def test_absent_exits_one(self, figures_path, capsys):
        assert main(["op", figures_path, "difference", "T(A)", "T(A)"]) == 1
        assert "does not exist" in capsys.readouterr().out

    def test_absent_intersection_disjoint(self, tmp_path, capsys):
        doc = {
            "format": "oodn/1",
            "classes": [
                {
                    "name": "a",
                    "core": {
                        "properties": [
                            {"name": "p", "kind": "quantitative", "units": "cm", "value": None}
                        ],
                        "methods": [],
                    },
                },
                {
                    "name": "b",
                    "core": {
                        "properties": [
                            {"name": "q", "kind": "quantitative", "units": "kg", "value": None}
                        ],
                        "methods": [],
                    },
                },
            ],
        }
        path = tmp_path / "disjoint.json"
        path.write_text(json.dumps(doc))
        assert main(["op", str(path), "intersection", "a", "b"]) == 1
        assert "does not exist" in capsys.readouterr().out

    def test_out_written_and_loadable(self, polygons_path, tmp_path, capsys):
        out_path = tmp_path / "result.json"
        assert (
            main(
                ["op", polygons_path, "union", "T(R)", "T(S)", "--out", str(out_path)]
            )
            == 0
        )
        n = load_file(out_path)
        assert n.find_class("union(T(R),T(S))") is not None
        # No stray temp files left behind.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "polygons.oodn.json",
            "result.json",
        ]

    def test_absent_writes_nothing(self, figures_path, tmp_path, capsys):
        out_path = tmp_path / "result.json"
        main(["op", figures_path, "difference", "T(A)", "T(A)", "--out", str(out_path)])
        assert not out_path.exists()

    def test_no_dedup(self, polygons_path, capsys):
        assert (
            main(["op", polygons_path, "intersection", "T(R)", "T(S)", "--no-dedup"])
            == 0
        )
        assert "intersection(T(R),T(S))" in capsys.readouterr().out

    def test_clone_index(self, polygons_path, capsys):
        assert main(["op", polygons_path, "clone", "R_1", "--index", "3"]) == 0
        assert "R_1#3" in capsys.readouterr().out

    def test_json_output(self, polygons_path, capsys):
        assert main(["op", polygons_path, "union", "T(R)", "T(S)", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exists"] is True
        assert payload["result"]["name"] == "union(T(R),T(S))"


class TestModify:
    def test_dedup_to_existing(self, polygons_path, capsys):
        assert main(["modify", polygons_path, "M1(T(S))", "T(S)"]) == 0
        assert "result: T(R)" in capsys.readouterr().out

    def test_new_node_json(self, polygons_path, capsys):
        assert main(["modify", polygons_path, "M1(T(R))", "T(R)", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["result"] == "M1(T(R))(T(R))"
        assert payload["new_node"] is True

    def test_unknown_modifier(self, polygons_path, capsys):
        assert main(["modify", polygons_path, "nope", "T(R)"]) == 2


class TestInferAndQuery:
    def test_infer(self, polygons_path, capsys):
        assert main(["infer", polygons_path]) == 0
        out = capsys.readouterr().out
        assert "5 inferred relations" in out
        assert "T(S) -a-kind-of-> T(R)" in out

    def test_infer_out_then_query(self, polygons_path, tmp_path, capsys):
        enriched = str(tmp_path / "enriched.json")
        main(["infer", polygons_path, "--out", enriched])
        capsys.readouterr()
        assert main(["query", enriched, "subclasses-of", "T(P)"]) == 0
        out = capsys.readouterr().out
        assert "T(R)" in out and "T(S)" in out
        assert main(["query", enriched, "instances-of", "T(R)"]) == 0
        assert "R_1" in capsys.readouterr().out

    @pytest.mark.parametrize("threshold", ["7", "nan", "0"])
    def test_bad_threshold_on_every_document(self, polygons_path, tmp_path, capsys, threshold):
        empty = tmp_path / "empty.oodn.json"
        empty.write_text(save_text(empty_network()))
        for path in (str(empty), polygons_path):
            assert main(["infer", path, "--threshold", threshold]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.startswith("error: threshold must lie in (0, 1]") and err.count("\n") == 1

    def test_query_reachable_requires_kind(self, polygons_path, capsys):
        assert main(["query", polygons_path, "reachable", "T(S)"]) == 2

    def test_query_neighbors(self, polygons_path, tmp_path, capsys):
        enriched = str(tmp_path / "enriched.json")
        main(["infer", polygons_path, "--out", enriched])
        capsys.readouterr()
        assert (
            main(
                [
                    "query",
                    enriched,
                    "neighbors",
                    "T(R)",
                    "--kind",
                    "a-kind-of",
                    "--direction",
                    "in",
                ]
            )
            == 0
        )
        assert "T(S)" in capsys.readouterr().out


class TestExportDot:
    def test_stdout(self, polygons_path, capsys):
        assert main(["export-dot", polygons_path]) == 0
        check_dot(capsys.readouterr().out)

    def test_out_file(self, polygons_path, tmp_path):
        out_path = tmp_path / "graph.dot"
        assert main(["export-dot", polygons_path, "--out", str(out_path)]) == 0
        check_dot(out_path.read_text())


class TestRejectedCommandLine:
    """A command line the argument parser rejects exits 2 with one
    `error:` line on stderr and no usage text.  Only the start of each
    line is pinned: argparse words its list of choices differently
    across Python versions."""

    @pytest.mark.parametrize(
        "argv, start",
        [
            (["op"], "error: the following arguments are required: file, exploiter, operands"),
            (
                ["op", "{file}", "clone", "R_1", "--index", "abc"],
                "error: argument --index: invalid int value: 'abc'",
            ),
            (["op", "{file}", "merge", "T(R)"], "error: argument exploiter: invalid choice: 'merge'"),
            (["frobnicate", "{file}"], "error: argument command: invalid choice: 'frobnicate'"),
            (["validate", "{file}", "--bad", "a\nb"], "error: unrecognized arguments: --bad a b"),
            (["export-dot", "{file}", "--json"], "error: unrecognized arguments: --json"),
        ],
        ids=[
            "missing-positional", "index-not-int", "unknown-exploiter", "unknown-command",
            "unknown-flag", "export-dot-json",
        ],
    )
    def test_one_error_line(self, polygons_path, capsys, argv, start):
        assert main([a.format(file=polygons_path) for a in argv]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(start) and err.count("\n") == 1 and err.endswith("\n")

    def test_help_still_prints_usage_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["op", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: oodn op ")
