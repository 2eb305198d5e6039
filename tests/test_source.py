"""Source hygiene: every name that a module of the package imports is used."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fleetchain"


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
