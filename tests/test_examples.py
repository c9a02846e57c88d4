"""What a reader runs first: the README's session and commands, the installed
command's target, and the bench script."""

from __future__ import annotations

import doctest
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_readme_session():
    failed, attempted = doctest.testfile(str(README), module_relative=False, encoding="utf-8")
    assert attempted > 0 and failed == 0


def test_readme_commands_exit_as_shown():
    # each one-line `lefschetz ARGS  # ..., exit N` example, run through
    # `python -m lefschetz` with no input
    examples = re.findall(r"^lefschetz ([^#]*)#.*exit (\d+)$", README.read_text(encoding="utf-8"),
                          re.MULTILINE)
    assert len(examples) >= 6
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for args, shown in examples:
        done = subprocess.run([sys.executable, "-m", "lefschetz", *args.split()], env=env,
                              stdin=subprocess.DEVNULL, capture_output=True, text=True)
        assert done.returncode == int(shown), (args, done.stdout, done.stderr)


def test_console_script_target_imports():
    # the installed `lefschetz` command; the other tests run `python -m lefschetz`
    found = re.search(r'^lefschetz = "([\w.]+):(\w+)"$',
                      (ROOT / "pyproject.toml").read_text(encoding="utf-8"), re.MULTILINE)
    assert found, "no lefschetz entry in [project.scripts]"
    module, name = found.groups()
    assert callable(getattr(importlib.import_module(module), name))


def test_bench_script_help():
    # compiles bench/layers.py and imports the sweepbench grids it reads
    done = subprocess.run([sys.executable, "bench/layers.py", "--help"], cwd=ROOT,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
