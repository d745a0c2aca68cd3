"""Smoke tests of the benchmark: its tiny-size self-check must pass, so an
engine change that breaks a traced boundary or a known answer shows up
in the test suite and not first in a benchmark run; and the traced run
must still see every expression parse and every document load."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_selfcheck_passes():
    done = subprocess.run(
        [sys.executable, "perfbench/selfcheck.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_traced_cli_session_sees_parses_and_loads(tmp_path):
    """The tracer wraps `parse` and `load_file` where `oodn.io` and
    `oodn.cli` look them up; a load that reached the parser another way
    would leave `expr.parse` blind.  The tiny session makes nine calls,
    each loading one document."""
    (tmp_path / "src").symlink_to(ROOT / "src")  # run.py runs the checkout under its cwd
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "cli-session",
            "--size", "tiny", "--trace", "1", "--seconds", "0.3", "--seed", "1"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert result["correct"] and result["failed"] == 0
    assert metrics["expr.parse.calls"] > 0
    assert metrics["io.load.calls"] == 9
