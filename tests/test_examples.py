"""What a reader runs first: the README's session and commands, the installed
command's target, and the bench script."""

from __future__ import annotations

import doctest
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from lefschetz import cli, lefschetz_oracle, syzygy_gap

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


def test_bench_recorder_keeps_what_verify_calls(monkeypatch):
    # bench/layers.py times the calls of one recorded verify sweep; its
    # path insertions are undone with sys.path
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("layers", ROOT / "bench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    argv = ["verify", "--primes", "2,3", "--max", "5",
            "--modes", "oracle,digits,manhattan,delta", "--jobs", "1"]
    modules = (cli, lefschetz_oracle, syzygy_gap)

    def names():
        return [dict(vars(module)) for module in modules]

    def unchanged(before):
        # every name bound to the very object it was bound to before
        return all(vars(m).keys() == b.keys() and all(vars(m)[k] is v for k, v in b.items())
                   for m, b in zip(modules, before))

    before = names()
    calls = layers.record(argv)
    assert unchanged(before)
    grid = [(p, (a, b)) for p in (2, 3) for a in range(2, 6) for b in range(a, 6)]
    for name, (_, bench, _) in layers.TABLE.items():
        if bench == "route":
            assert [(args[0].p, args[1]) for n, args, _ in calls if n == name] == grid, name
    assert {name for name, _, _ in calls} == set(layers.TABLE)

    def broken(field, ds):
        raise ZeroDivisionError("a route that fails mid-sweep")

    monkeypatch.setattr(cli, "classify", broken)
    before = names()
    with pytest.raises(ZeroDivisionError):
        layers.record(argv)
    assert unchanged(before)

    def swept(*args):
        raise AssertionError("swept with a name left unrecorded")

    # a row that names no function is refused before the sweep, with every
    # name it did wrap restored
    monkeypatch.setattr(cli, "_sweep", swept)
    monkeypatch.setitem(layers.TABLE, "no_such_route", ("cli", "route", ("sweep-n2",)))
    before = names()
    with pytest.raises(AttributeError, match="lefschetz.cli.no_such_route"):
        layers.record(argv)
    assert unchanged(before)
