"""`oodn.cli.main` against the frozen reference command line.

Over both fixtures and `polygons` after inference, every subcommand runs
with every node display name plus one unknown name: exploiters over
single operands and ordered pairs (`clone` also with `--index`), every
modifier on every node, `infer` at two thresholds, all four `query`
patterns with and without `--kind` / `--direction`, and `export-dot`
with and without `--out`.  Every case runs with and without `--json`,
and `op` and `modify` also with and without `--no-dedup`.  Both command
lines must give the same exit code, stdout, stderr and `--out` bytes.

The two differences allowed are on a failed `--out` write, and they are
asserted: the reference `infer` prints its result before it writes, and
the reference error line names its temp file instead of the `--out`
path.

To fit in a few seconds, both sides build their argument parser and
load each input document once per test instead of once per call: both
are most of the cost of a call, a parser keeps no state from one parse
to the next, networks are immutable values, and no input document
changes during a test.  `cli` builds its parser once per process
itself, so only the reference side's parser is wrapped here.  `op` and
`modify` write `--out` on the calls without `--json`.
"""

from __future__ import annotations

import errno
import functools
import itertools
import os
import re
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest

from oodn import cli, fixture_text, load_text, save_text, with_inferred

from . import reference_cli

_DOCUMENTS = {
    "figures": fixture_text("figures.oodn.json"),
    "polygons": fixture_text("polygons.oodn.json"),
    "polygons-inferred": save_text(with_inferred(load_text(fixture_text("polygons.oodn.json")))),
}
_UNKNOWN = "ghost"
_EXPLOITERS = ("union", "intersection", "difference", "symmetric-difference", "clone")
_QUERY_OPTIONS = (
    [],
    ["--kind", "a-kind-of"],
    ["--kind", "instance-of", "--direction", "in"],
    ["--direction", "both"],
)


@pytest.fixture()
def paths(tmp_path, monkeypatch):
    monkeypatch.setattr(
        reference_cli, "_build_parser", functools.cache(reference_cli._build_parser)
    )
    for module in (cli, reference_cli):
        monkeypatch.setattr(module, "load_file", functools.cache(module.load_file))
    paths = {"out": str(tmp_path / "out.oodn.json")}
    for name, text in _DOCUMENTS.items():
        paths[name] = str(tmp_path / f"{name}.oodn.json")
        (tmp_path / f"{name}.oodn.json").write_text(text, encoding="utf-8")
    return paths


def _run(main, argv, out_path):
    """Exit code, stdout, stderr and the bytes at `out_path` (None when
    the call wrote none) of one call."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    written = None
    if os.path.isfile(out_path):
        with open(out_path, "rb") as handle:
            written = handle.read()
        os.unlink(out_path)
    return code, out.getvalue(), err.getvalue(), written


def _agree(argvs, out_path) -> list:
    """Run each command line on both sides; return the outcomes."""
    outcomes = []
    for argv in argvs:
        got = _run(cli.main, argv, out_path)
        assert got == _run(reference_cli.main, argv, out_path), argv
        outcomes.append(got)
    return outcomes


def _variants(argvs, flags, out=()):
    """Each command line with every subset of `flags` appended, and `out`
    too where `--json` is not."""
    for argv in argvs:
        for size in range(len(flags) + 1):
            for extra in itertools.combinations(flags, size):
                yield argv + list(extra) + ([] if "--json" in extra else list(out))


def _names(document):
    """Every node display name of `document`, plus one unknown name."""
    n = load_text(_DOCUMENTS[document])
    return [t.name for t in n.classes] + [o.node_name for o in n.objects] + [_UNKNOWN]


@pytest.mark.parametrize("document", sorted(_DOCUMENTS))
def test_read_commands_agree(paths, document):
    path, names = paths[document], _names(document)
    argvs = [["validate", path], ["show", path]] + [["show", path, name] for name in names]
    argvs += [
        ["query", path, pattern, name, *options]
        for pattern in ("instances-of", "subclasses-of", "neighbors", "reachable")
        for name in names
        for options in _QUERY_OPTIONS
    ]
    codes = [code for code, *_ in _agree(_variants(argvs, ["--json"]), paths["out"])]
    assert codes.count(0) > 0 and codes.count(2) > 0


@pytest.mark.parametrize("document", sorted(_DOCUMENTS))
def test_op_agrees(paths, document):
    path, names = paths[document], _names(document)
    operands = [[a] for a in names] + [[a, b] for a in names for b in names]
    argvs = [["op", path, exploiter, *group] for exploiter in _EXPLOITERS for group in operands]
    argvs += [["op", path, "clone", name, "--index", "3"] for name in names]
    out = ["--out", paths["out"]]
    outcomes = _agree(_variants(argvs, ["--json", "--no-dedup"], out), paths["out"])
    codes = {code for code, *_ in outcomes}
    assert codes == {0, 1, 2}
    assert any(written is not None for *_, written in outcomes)


@pytest.mark.parametrize("document", sorted(_DOCUMENTS))
def test_modify_infer_and_export_agree(paths, document):
    path, names = paths[document], _names(document)
    modifiers = [m.name for m in load_text(_DOCUMENTS[document]).modifiers]
    out = ["--out", paths["out"]]
    argvs = [["modify", path, modifier, name] for modifier in modifiers + [_UNKNOWN] for name in names]
    outcomes = _agree(_variants(argvs, ["--json", "--no-dedup"], out), paths["out"])
    assert {code for code, *_ in outcomes} == ({0, 2} if modifiers else {2})
    argvs = [["infer", path, "--threshold", t, *tail] for t in ("1.0", "0.5") for tail in ([], out)]
    _agree(_variants(argvs, ["--json"]), paths["out"])
    dot, to_file = _agree([["export-dot", path], ["export-dot", path, *out]], paths["out"])
    assert dot[1] and dot[1].encode("utf-8") == to_file[3] and to_file[1] == ""


@pytest.mark.parametrize("target", ["missing", "directory"])
@pytest.mark.parametrize("command", ["infer", "op", "modify", "export-dot"])
def test_failed_out_differs_only_as_intended(paths, tmp_path, command, target):
    """The two allowed differences: the reference `infer` prints its
    result before the write fails, and the reference error names its temp
    file.  Both exit 2 and leave no temp file behind."""
    (tmp_path / "adir").mkdir()
    out = str(tmp_path / "missing" / "x.json") if target == "missing" else str(tmp_path / "adir")
    code = errno.ENOENT if target == "missing" else errno.EISDIR
    reason = f"[Errno {code}] {os.strerror(code)}"
    path = paths["polygons"]
    base = {
        "infer": ["infer", path],
        "op": ["op", path, "union", "T(R)", "T(S)"],
        "modify": ["modify", path, "M1(T(R))", "T(R)"],
        "export-dot": ["export-dot", path],
    }[command]
    for argv in [base] if command == "export-dot" else [base, base + ["--json"]]:
        got = _run(cli.main, argv + ["--out", out], paths["out"])
        reference = _run(reference_cli.main, argv + ["--out", out], paths["out"])
        printed = _run(reference_cli.main, argv, paths["out"])[1]
        assert got == (2, "", f"error: {reason}: {out!r}\n", None)
        assert reference[:2] == (2, printed if command == "infer" else "")
        assert re.fullmatch(rf"error: {re.escape(reason)}: '[^']*\.tmp'.*\n", reference[2])
    assert sorted(os.listdir(tmp_path)) == ["adir", *sorted(f"{d}.oodn.json" for d in _DOCUMENTS)]
