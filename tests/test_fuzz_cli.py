"""The command line's exit contract under random well-formed calls.

Hypothesis draws one of the seven commands with a document (a fixture,
`polygons` after inference, or a missing file), node and modifier names
(present, minted-looking and bad ones) and the command's flags.  Every
call must exit 0, 1 or 2; exit 1 must mean an absent `op` result; stderr
holds at most one line, and never a traceback or an internal error.
It also draws calls that the argument parser rejects; each of those
exits 2 with exactly one `error:` line on stderr and nothing on stdout.
"""

from __future__ import annotations

import json
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oodn import fixture_text
from oodn.cli import main

# Documents, drawn twice as often as a missing file.
_FILES = ("polygons", "figures", "inferred", "polygons", "figures", "inferred", "missing")

# (class names, object names) of each document.
_POLYGONS = (["T(P)", "T(R)", "T(S)"], ["R_1", "S_1"])
_NODES = {
    "polygons": _POLYGONS,
    "figures": (["T(A)", "T(B)", "T(C)"], ["A", "B", "C"]),
    "inferred": _POLYGONS,
    "missing": _POLYGONS,
}
_BAD_NAMES = [
    "R_1#1", "A#2", "union(R_1,S_1)", "union(T(R),T(S))", "M1(T(R))", "T(A)", "A",
    "nope", "", "#", "R_1#", "R_1#0", "R_1#x", "R_1#99999999999999999999", "T(",
    "r_1", " R_1", "a b",
]
_MODIFIERS = st.sampled_from(
    ["M1(T(S))", "M2(T(R))", "M1(T(R))", "M1(T(P))", "M1(R_1)", "nope", ""]
)
_EXPLOITERS = st.sampled_from(
    ["union", "intersection", "difference", "symmetric-difference", "clone"]
)
_KINDS = st.sampled_from(
    ["instance-of", "is-a", "a-kind-of", "modification-of", "result-of", "operand-of", "bogus"]
)


@st.composite
def _argvs(draw) -> list:
    """A call that the argument parser accepts; `{file}` and `{out}`
    stand for paths."""
    command = draw(
        st.sampled_from(["validate", "show", "op", "modify", "infer", "query", "export-dot"])
    )
    file = draw(st.sampled_from(_FILES))
    argv = [command, "{" + file + "}"]
    classes, objects = _NODES[file]

    def names(own=classes + objects):
        """Names of the document's nodes, two or more times as often as
        bad ones."""
        return st.sampled_from(own * len(_BAD_NAMES) + _BAD_NAMES)

    if command == "show":
        argv += draw(st.lists(names(), max_size=1))
    elif command == "op":
        exploiter = draw(_EXPLOITERS)
        union_of_objects = exploiter == "union" and draw(st.booleans())
        kind = objects if exploiter == "clone" or union_of_objects else classes
        argv += [exploiter] + draw(st.lists(names(kind), min_size=1, max_size=3))
        if draw(st.booleans()):
            argv += ["--index", str(draw(st.integers(-2, 3)))]
        if draw(st.booleans()):
            argv.append("--no-dedup")
    elif command == "modify":
        argv += [draw(_MODIFIERS), draw(names())]
        if draw(st.booleans()):
            argv.append("--no-dedup")
    elif command == "infer":
        if draw(st.booleans()):
            argv += ["--threshold", draw(st.sampled_from(["1", "0.5", "0", "-1", "2", "nan", "inf"]))]
    elif command == "query":
        argv += [
            draw(st.sampled_from(["instances-of", "subclasses-of", "neighbors", "reachable"])),
            draw(names()),
        ]
        if draw(st.booleans()):
            argv += ["--kind", draw(_KINDS)]
        if draw(st.booleans()):
            argv += ["--direction", draw(st.sampled_from(["out", "in", "both"]))]
    if command != "export-dot" and draw(st.booleans()):
        argv.append("--json")
    if command in ("op", "modify", "infer", "export-dot") and draw(st.booleans()):
        argv += ["--out", "{out}"]
    return argv


# For each command, arguments that argparse refuses when appended to an
# accepted call: a bad option value, an option without its value, an
# explicit value for a flag, an extra positional or another command's
# option.
_BAD_TAILS = {
    "validate": [["--out", "x"], ["--json=yes"], ["extra"]],
    "show": [["a", "b"], ["--json=yes"], ["--index", "1"]],
    "op": [["--index", "abc"], ["--index", "1.5"], ["--index"], ["--no-dedup=1"]],
    "modify": [["--out"], ["--no-dedup=1"], ["extra"]],
    "infer": [["--threshold", "abc"], ["--threshold"], ["extra"]],
    "query": [["--direction", "up"], ["--kind"], ["extra"]],
    "export-dot": [["--out"], ["--threshold", "1"], ["extra"], ["--json"]],
}


@st.composite
def _rejected_argvs(draw) -> list:
    """An accepted call with one change that the argument parser rejects:
    an unknown command, an unknown flag anywhere, missing positionals, a
    bad choice or a bad tail from `_BAD_TAILS`."""
    argv = draw(_argvs())
    command = argv[0]
    change = draw(st.sampled_from(["command", "flag", "positionals", "choice", "tail"]))
    if change == "command":
        argv[0] = draw(st.sampled_from(["frobnicate", "", "Validate", "-", "op\n"]))
    elif change == "flag":
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--frob", "-z", "--x=1"])))
    elif change == "positionals":
        argv = argv[: 3 if command == "op" and draw(st.booleans()) else 1]
    elif change == "choice" and command in ("op", "query"):
        argv[2] = draw(st.sampled_from(["merge", "", "Union", "instances"]))
    else:
        argv += draw(st.sampled_from(_BAD_TAILS[command]))
    return argv


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    paths = {"out": str(root / "out.oodn.json"), "missing": str(root / "missing.oodn.json")}
    for name in ("polygons", "figures"):
        paths[name] = str(root / f"{name}.oodn.json")
        (root / f"{name}.oodn.json").write_text(fixture_text(f"{name}.oodn.json"))
    paths["inferred"] = str(root / "inferred.oodn.json")
    with redirect_stdout(StringIO()):
        assert main(["infer", paths["polygons"], "--out", paths["inferred"]]) == 0
    return paths


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=_argvs())
def test_exit_contract(paths, argv):
    argv = [a.format(**paths) if a.startswith("{") and a.endswith("}") else a for a in argv]
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in err and "internal error" not in err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert err == ""
    if code == 1:
        assert argv[0] == "op"
        if "--json" in argv:
            assert json.loads(out)["exists"] is False
        else:
            assert out.startswith("result does not exist: ")


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=_rejected_argvs())
def test_rejected_call_is_one_error_line(paths, argv):
    argv = [a.format(**paths) if a.startswith("{") and a.endswith("}") else a for a in argv]
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert (code, out.getvalue()) == (2, "")
    err = err.getvalue()
    assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err and "internal error" not in err and "usage:" not in err
