"""`NodeRef` hashes as the tuple of its three fields, keeps that hash
through copies and pickles, and a load shares one ref per node."""

from __future__ import annotations

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import oodn
from oodn import NodeRef, load_text, save_text, with_inferred

REFS = (
    NodeRef("class", "T(R)"),
    NodeRef("object", "R_1"),
    NodeRef("object", "R_1", 2),
    NodeRef("object", "R_1#2"),
)


def test_hash_is_the_field_tuple_hash():
    for ref in REFS:
        assert hash(ref) == hash((ref.kind, ref.name, ref.clone_index))


def test_equal_copies_hash_equal():
    for ref in REFS:
        for twin in (
            dataclasses.replace(ref),
            copy.copy(ref),
            copy.deepcopy(ref),
            pickle.loads(pickle.dumps(ref)),
        ):
            assert twin == ref and hash(twin) == hash(ref)
    moved = dataclasses.replace(REFS[1], clone_index=3)
    assert hash(moved) == hash(("object", "R_1", 3))


def test_hash_stays_out_of_eq_and_repr():
    ref = NodeRef("object", "o", 1)
    assert repr(ref) == "NodeRef(kind='object', name='o', clone_index=1)"
    assert [f.name for f in dataclasses.fields(ref) if f.init] == ["kind", "name", "clone_index"]
    assert {ref: 1}[NodeRef("object", "o", 1)] == 1


_UNPICKLE = """
import pickle, sys
from oodn import NodeRef
refs = pickle.loads(sys.stdin.buffer.read())
fresh = [NodeRef("class", "T(R)"), NodeRef("object", "R_1", 2), NodeRef("object", "R_1#2")]
print(hash("probe"), all(r in refs for r in fresh), NodeRef("object", "R_1", 5) in refs)
"""


def test_pickled_set_works_under_another_hash_seed():
    here = os.environ.get("PYTHONHASHSEED", "")
    seed = str(int(here) + 1) if here.isdigit() else "1"
    src = str(Path(oodn.__file__).parent.parent)
    env = {**os.environ, "PYTHONHASHSEED": seed}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", _UNPICKLE],
        input=pickle.dumps(set(REFS)),
        capture_output=True,
        env=env,
        check=True,
    ).stdout.decode().split()
    assert int(out[0]) != hash("probe")  # the seeds differ, so str hashes do too
    assert out[1:] == ["True", "False"]


def test_a_load_shares_one_ref_per_node(polygons):
    n = load_text(save_text(with_inferred(polygons)))
    first = {}
    for r in n.relations:
        for ref in (r.source, r.target):
            assert first.setdefault(ref, ref) is ref
    assert len(first) < 2 * len(n.relations)


def test_loads_share_no_ref(polygons):
    text = save_text(with_inferred(polygons))
    a, b = (load_text(text).relations[0].source for _ in range(2))
    assert a == b and a is not b
