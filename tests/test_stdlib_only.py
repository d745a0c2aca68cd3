"""The runtime is pure standard library: every module under `src/oodn`
imports only modules of the standard library and `oodn` itself.

An `ast` walk finds every `import` and `from ... import` statement,
including those inside functions and `try` blocks, so an optional
third-party speed-up cannot slip in behind a fallback either.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "oodn"
ALLOWED = sys.stdlib_module_names | {"oodn"}


def _imported(tree: ast.Module):
    """The top-level package of each absolute import in `tree`; a relative
    import stays inside `oodn`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_walk_sees_every_import_form():
    tree = ast.parse(
        "import numpy.linalg as la\n"
        "from . import expr\n"
        "def f():\n"
        "    try:\n"
        "        from orjson import dumps\n"
        "    except ImportError:\n"
        "        import json\n"
    )
    assert sorted(_imported(tree)) == ["json", "numpy", "orjson"]


@pytest.mark.parametrize(
    "path", sorted(SRC.rglob("*.py")), ids=lambda p: str(p.relative_to(SRC))
)
def test_module_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    foreign = sorted(set(_imported(tree)) - ALLOWED)
    assert not foreign, f"{path.name} imports non-standard-library modules: {foreign}"
