"""Every name a module of the package imports is read in that module,
and every private name the package defines is read somewhere in it.

``__init__.py`` is skipped by the import check: its imports are the
package's re-exports.
"""

import ast
from pathlib import Path

import pytest

import doublephase

PACKAGE = sorted(Path(doublephase.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


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


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def dead_private_names(sources):
    """(module, line, name) of each private module-level name and private
    method that ``sources`` (module name -> text) define and never read.

    A read is a loaded name, an attribute access, or a ``from`` import.
    """
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            targets = node.targets if isinstance(node, ast.Assign) else [node]
            for target in targets:
                name = getattr(target, "name", getattr(target, "id", None))
                if name is not None and _private(name):
                    defined.append((module, target.lineno, name))
            if isinstance(node, ast.ClassDef):
                defined += [(module, f.lineno, f.name) for f in node.body
                            if isinstance(f, ast.FunctionDef) and _private(f.name)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    return sorted(entry for entry in defined if entry[2] not in read)


def test_finds_dead_private_code():
    sources = {
        "a": "_USED = 1\n_DEAD = 2\ndef _helper():\n    return _USED\n"
             "class K:\n    def __init__(self):\n        self._go()\n"
             "    def _go(self):\n        pass\n    def _stale(self):\n        pass\n",
        "b": "from .a import _helper\n",
    }
    assert dead_private_names(sources) == [("a", 2, "_DEAD"), ("a", 10, "_stale")]


def test_no_dead_private_code():
    assert dead_private_names({p.name: p.read_text() for p in PACKAGE}) == []
