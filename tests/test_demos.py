"""Smoke test: every script under ``demos/`` and both README recipes run."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from faemb.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS


def test_readme_quickstart_runs():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    start = text.index("## Quickstart (library)")
    block = text[text.index("```python\n", start) + len("```python\n") :]
    block = block[: block.index("```")]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", block],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert 0.0 <= float(proc.stdout.strip().splitlines()[-1]) <= 1.0


def test_readme_cli_recipe_runs(tmp_path, monkeypatch, capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    start = text.index("## Command line")
    block = text[text.index("```sh\n", start) + len("```sh\n") :]
    block = block[: block.index("```")].replace("\\\n", " ")
    commands = [shlex.split(line) for line in block.splitlines() if line.strip()]
    assert commands and all(argv[0] == "faemb" for argv in commands)
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        out = capsys.readouterr().out
    assert commands[-1][1] == "eval"
    assert any(line.startswith("mAP ") for line in out.splitlines())


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
