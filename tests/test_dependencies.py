"""The package has no runtime dependencies: it imports only the standard library.
Importing it loads every engine module, but not the command line."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dpsurgery"


def _absolute_imports(path: pathlib.Path) -> set[str]:
    """Top-level module names of every absolute import in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    outside = {path.name: sorted(_absolute_imports(path) - sys.stdlib_module_names)
               for path in sources}
    assert {name: mods for name, mods in outside.items() if mods} == {}


def test_pyproject_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as handle:
        project = tomllib.load(handle)["project"]
    assert project["dependencies"] == []


ENGINE_MODULES = ["actions", "alexander", "configurations", "coset", "knots", "laurent",
                  "presentations", "reports", "rewriting", "scenarios", "snf", "surgery",
                  "sw", "verify", "words"]


def test_package_import_loads_the_engine_modules_and_word_but_not_the_cli():
    code = ("import sys, dpsurgery\n"
            "print(sorted(n[len('dpsurgery.'):] for n in sys.modules"
            " if n.startswith('dpsurgery.')))\n"
            "print(dpsurgery.Word is dpsurgery.words.Word)\n")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [repr(ENGINE_MODULES), "True"]
