"""Every module-level private name in `src/oodn` is read in its own module.

A private name (leading underscore) is not part of the package API, so a
definition its module never reads is dead code.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "oodn"


def _defined(tree: ast.Module):
    """Names bound by the module's top-level statements."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_private_names_are_read(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    unread = sorted(
        name
        for name in set(_defined(tree))
        if name.startswith("_") and not name.endswith("__") and name not in read
    )
    assert not unread, f"{path.name}: private names never read: {unread}"
