"""The document writer against `json.dumps` and the frozen reference writer.

`io._dumps` must write every JSON value of a saved document's shape
exactly as `json.dumps(value, indent=2, sort_keys=True)` does, and
`save_text` must give the same bytes as `reference_writer.save_text` on
the packaged fixtures (alone and after inference), on the benchmark's
generated documents and on every mutated fixture that loads.
"""

from __future__ import annotations

import importlib.util
import json
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oodn import cli, fixture_text, load_text, save_text, with_inferred
from oodn import io as oodn_io

from . import reference_writer
from .test_fuzz_documents import _DOCUMENTS, _mutate

ROOT = Path(__file__).resolve().parent.parent


def _dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


# Values where an encoder most easily goes wrong.
_AWKWARD = [
    "", "\u00e9", "\u00ff", "\u0100", "\u2028", "\u2029", "\U0001f600", "\ud800x",
    "\x00", "\x1f", "\x7f", '"', "\\", "\n\t\r\b\f", "</script>",
    0, -1, 2**63, -(10**30), 10**200,
    0.0, -0.0, 0.1, 1e16, 1e22, -1e22, 1.5e300, 5e-324, 2.2250738585072014e-308,
    True, False, None, [], {}, [[]], {"": {}}, [{}, []],
]
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(),
    st.text(st.characters(max_codepoint=0x7F)),
    st.sampled_from(_AWKWARD),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.dictionaries(st.text(max_size=6), inner, max_size=5),
    ),
    max_leaves=30,
)


@pytest.mark.parametrize("value", _AWKWARD, ids=repr)
def test_awkward_values(value):
    assert oodn_io._dumps(value) == _dumps(value)
    assert oodn_io._dumps([value, {"k": value}]) == _dumps([value, {"k": value}])


@settings(max_examples=500, deadline=None)
@given(_VALUES)
def test_writer_matches_json_dumps(value):
    assert oodn_io._dumps(value) == _dumps(value)


@pytest.mark.parametrize("value", [(1, 2), {1: "a"}, b"x", {"a"}])
def test_types_outside_the_document_shape_are_refused(value):
    with pytest.raises(TypeError):
        oodn_io._dumps({"a": [value]})


def _assert_same_bytes(text: str) -> None:
    n = load_text(text)
    assert save_text(n) == reference_writer.save_text(n)


@pytest.mark.parametrize("name", ["figures.oodn.json", "polygons.oodn.json"])
def test_fixtures(name):
    n = load_text(fixture_text(name))
    assert save_text(n) == reference_writer.save_text(n)
    inferred = with_inferred(n)
    assert save_text(inferred) == reference_writer.save_text(inferred)


def _perfbench_gen():
    spec = importlib.util.spec_from_file_location("perfbench_gen", ROOT / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 2, 3, 201])
def test_benchmark_documents(seed, tmp_path):
    """The cli-session document and each document its session saves, and
    a start document like grow-churn's, which holds every generated
    modifier and declared relations."""
    gen = _perfbench_gen()
    tax = gen.taxonomy(random.Random(seed), (2, 3, 5), 32, extras=6)
    (tmp_path / "doc.oodn.json").write_text(
        json.dumps(tax.document([gen.class_modifier(0)])), encoding="utf-8"
    )
    for argv, code, _ in gen.cli_session(tax):
        argv = [a.replace("{dir}", str(tmp_path)) for a in argv]
        with redirect_stdout(StringIO()), redirect_stderr(StringIO()):
            assert cli.main(argv) == code, argv
    saved = sorted(tmp_path.glob("*.oodn.json"))
    assert [p.name for p in saved] == ["doc.oodn.json", "g1.oodn.json", "g2.oodn.json", "g3.oodn.json"]
    for path in saved:
        _assert_same_bytes(path.read_text(encoding="utf-8"))

    rng = random.Random(seed)
    tax = gen.taxonomy(rng, (3, 5, 8), 40)
    modifiers = [gen.class_modifier(k) for k in range(gen.CLASS_MODIFIERS)]
    modifiers += [gen.object_modifier(k) for k in range(gen.OBJECT_MODIFIERS)]
    _assert_same_bytes(json.dumps(tax.document(modifiers, with_relations=True)))


@settings(max_examples=200, deadline=None)
@given(st.data(), st.sampled_from(_DOCUMENTS), st.integers(1, 3))
def test_mutated_documents(data, text, count):
    doc = json.loads(text)
    for _ in range(count):
        _mutate(data, doc)
    try:
        n = load_text(json.dumps(doc))
    except oodn_io.LoadError:
        return
    assert save_text(n) == reference_writer.save_text(n)
