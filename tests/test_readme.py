"""The README's examples run as shown.

The quick-start block prints exactly its `# ` output lines, and each
`oodn ...` line of the "Command line" block exits 0 when run in order
in a directory holding the polygons fixture as `network.oodn.json`.
"""

from __future__ import annotations

import re
import shlex
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

from oodn import cli, fixture_text

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _block(heading: str, language: str) -> list:
    """The lines of the first `language` code block under `heading`."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    match = re.search(rf"```{language}\n(.*?)```", section, re.DOTALL)
    assert match, f"no {language} block under {heading!r}"
    return match.group(1).splitlines()


def test_quick_start_prints_its_output_lines():
    lines = _block("Quick start", "python")
    expected = [line[2:] for line in lines if line.startswith("# ")]
    out = StringIO()
    with redirect_stdout(out):
        exec("\n".join(lines), {})
    assert out.getvalue().splitlines() == expected


def test_command_line_examples_exit_zero(tmp_path, monkeypatch, capsys):
    (tmp_path / "network.oodn.json").write_text(fixture_text("polygons.oodn.json"))
    monkeypatch.chdir(tmp_path)
    commands = [line for line in _block("Command line", "sh") if line.startswith("oodn ")]
    assert commands
    for line in commands:
        assert cli.main(shlex.split(line)[1:]) == 0, line
        assert capsys.readouterr().err == "", line
