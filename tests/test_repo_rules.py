"""Rules about the package source: private names, the integer type test, and what an import loads."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import chanjump

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "chanjump").glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_no_module_reaches_into_another_modules_private_names():
    assert SOURCES
    bad = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        siblings = set()  # names bound by `from . import m [as alias]`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        siblings.add(alias.asname or alias.name)
                    elif _private(alias.name):
                        bad.append(f"{path.name}:{node.lineno} from .{node.module} import {alias.name}")
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in siblings and _private(node.attr):
                    bad.append(f"{path.name}:{node.lineno} {node.value.id}.{node.attr}")
    assert not bad, "private names used across modules:\n" + "\n".join(bad)


def test_the_integer_type_test_is_written_in_network_alone():
    bad = [path.name for path in SOURCES if path.name != "network.py" and "np.integer" in path.read_text()]
    assert not bad, f"np.integer outside network.py, call network.all_integers: {bad}"


def test_importing_the_package_or_its_cli_loads_neither_scipy_nor_hypothesis():
    # a fresh interpreter, since this one has imported both for the tests
    code = "import sys\nfor m in ('chanjump', 'chanjump.cli'):\n    __import__(m)\n    print(m, *sorted({'scipy', 'hypothesis'} & set(sys.modules)))"
    path = os.pathsep.join(filter(None, [str(Path(chanjump.__file__).parents[1]), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True)
    assert done.stdout.splitlines() == ["chanjump", "chanjump.cli"], done.stderr
