"""Every import in the package and its tests is used.

A name counts as used when the module's syntax tree loads it (``ast.Name``,
or the root of an attribute chain such as ``sp.csr_matrix``) or lists it in
``__all__``; ``from __future__`` imports are compiler switches, not names.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "harnack").glob("*.py"), *(ROOT / "tests").glob("**/*.py")])


def unused_imports(tree: ast.Module) -> list[str]:
    bound = {}  # name -> line of the import that binds it
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return [f"{name} (line {line})" for name, line in sorted(bound.items()) if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("import os\nimport numpy as np\nfrom typing import Iterable, Sequence\nnp.zeros(1)\nx: Iterable\n")
    assert unused_imports(tree) == ["Sequence (line 3)", "os (line 1)"]
