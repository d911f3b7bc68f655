"""Every name a library module imports is used in that module.

The package's ``__init__`` re-exports what it imports and is left out;
``from __future__ import annotations`` binds no name that is read.
"""

import ast
from pathlib import Path

import pytest

import weightseq

MODULES = sorted(p for p in Path(weightseq.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name != "annotations":
                    imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_unused_import_is_found():
    assert _unused_imports("import os\nfrom math import pi, tau\nx = pi\n") \
        == [(1, "os"), (2, "tau")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []
