"""Every module-level private name in `src/oodn` is read in its own module,
and every import kept only for the tracer is one the tracer wraps.

A private name (leading underscore) is not part of the package API, so a
definition its module never reads is dead code.  An import marked
`# noqa: F401` is unused by its module; it is kept only so that
`perfbench/spans.py` can wrap the function where the engine looks it up,
so it must name a boundary that `spans.BOUNDARIES` lists for that module.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "oodn"


def _boundaries() -> set:
    """(module, attribute) of every function `perfbench/spans.py` wraps."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["BOUNDARIES"]:
            return {(module, attr) for module, attr, _ in ast.literal_eval(node.value)}
    raise AssertionError("perfbench/spans.py defines no BOUNDARIES")


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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_unused_imports_are_traced_boundaries(path):
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    module = f"oodn.{path.stem}"
    kept = [
        alias.asname or alias.name
        for node in ast.walk(ast.parse(text))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if "# noqa: F401" in lines[alias.lineno - 1]
    ]
    untraced = sorted(name for name in kept if (module, name) not in _boundaries())
    assert not untraced, f"{path.name}: unused imports no tracer boundary needs: {untraced}"
