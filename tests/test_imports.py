"""Every name a ``crbeam`` module imports is used in that module, and every
private module-level name or method the package defines is read somewhere in it.

No linter runs on this repository, so these stand in for two of its rules:
an import, or a private helper or constant, left behind after the code
that used it was removed.  The package's ``__init__.py`` imports names to
re-export them, so it is exempt from the first.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "crbeam"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text())
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom typing import List, Tuple\nx: List = os.sep\n") == [(2, "Tuple")]


def unread_private_names(sources: dict) -> list:
    """(module, line, name) for each module-level ``_name`` function, class or
    constant, or ``_name`` method of a module-level class, defined in ``sources``
    (module name -> source) that none of them reads."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [(node.lineno, node.name)]
                if isinstance(node, ast.ClassDef):
                    names += [(m.lineno, m.name) for m in node.body if isinstance(m, ast.FunctionDef)]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [(node.lineno, n.id) for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
            else:
                names = []
            defined += [(module, line, name) for line, name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted(d for d in defined if d[2] not in read)


def test_no_unread_private_names():
    unread = unread_private_names({p.name: p.read_text() for p in sorted(SRC.glob("*.py"))})
    assert not unread, f"private names defined but never read: {unread}"


def test_detects_an_unread_private_name():
    sources = {
        "a.py": "_LIMIT = 3\n_A, _B = 1, 2\n__all__ = []\ndef _used():\n    return _A\nclass _Gone:\n    pass\n"
                "class Kept:\n    def __init__(self):\n        self._helper()\n"
                "    def _helper(self):\n        pass\n    def _stale(self):\n        pass\n",
        "b.py": "from . import a\n_x: int = a._used() + a._LIMIT\n",
    }
    assert unread_private_names(sources) == [("a.py", 2, "_B"), ("a.py", 6, "_Gone"), ("a.py", 13, "_stale"),
                                             ("b.py", 2, "_x")]
