"""Source hygiene: every name that a module of the package imports is used,
and every function, class and method it defines is named somewhere."""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fleetchain"
# where a definition of the package may be named; perfbench patches by string
SEARCHED = ("src", "tests", "perfbench")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_detector_sees_unused_and_used_names():
    source = (
        "import os.path\nimport json as j\nfrom typing import Any, Sequence\n"
        "def f(x: Any) -> None:\n    os.path.join(x)\n"
    )
    assert unused_imports(source) == ["Sequence", "j"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_package_has_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def definitions(source: str) -> set[str]:
    """Functions, classes and methods defined in ``source``, dunders aside."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, kinds) and not re.fullmatch(r"__\w+__", node.name)
    }


def named(source: str) -> set[str]:
    """Names that ``source`` reads, as a name, an attribute or a word of a
    string constant; docstrings do not count."""
    tree = ast.parse(source)
    owners = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, owners) and node.body and isinstance(node.body[0], ast.Expr)
    }
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in docstrings:
                names.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return names


def test_detector_sees_named_and_unnamed_definitions():
    source = (
        'class A:\n    """B is not named by a docstring."""\n'
        "    def __init__(self):\n        self.run()\n"
        "    def run(self):\n        pass\n"
        "    def stale(self):\n        pass\n"
        "class B:\n    pass\n"
        "def patched():\n    pass\n"
        'A()\nTARGETS = ("mod.patched",)\n'
    )
    assert sorted(definitions(source) - named(source)) == ["B", "stale"]


def test_package_defines_nothing_unnamed():
    used: set[str] = set()
    for top in SEARCHED:
        for path in (ROOT / top).rglob("*.py"):
            used |= named(path.read_text())
    unnamed = {
        f"{path.name}:{name}"
        for path in PACKAGE.glob("*.py")
        for name in definitions(path.read_text()) - used
    }
    assert sorted(unnamed) == []
