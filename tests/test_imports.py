"""Every name a module of the package imports is read in that module.

``__init__.py`` is skipped: its imports are the package's re-exports.
"""

import ast
from pathlib import Path

import pytest

import doublephase

MODULES = sorted(p for p in Path(doublephase.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by an import in ``source`` and never read there; a name
    listed in ``__all__`` counts as read."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_finds_an_unused_import():
    source = "import os\nfrom .a import b, c as d\nimport numpy.linalg\n__all__ = ['b']\nnumpy.linalg\n"
    assert unused_imports(source) == [(1, "os"), (2, "d")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []
