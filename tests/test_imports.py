"""Every module under src/ncfact uses every name it imports.

No linter ships with the package, so this walks each module's syntax tree:
a name bound by an import must be read somewhere in the module, or be
listed in the module's `__all__` (a re-export).
"""

import ast
from pathlib import Path

import ncfact

SRC = Path(ncfact.__file__).resolve().parent


def _unused_imports(tree):
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_no_unused_imports():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        unused += [f"{path.name}:{line}: {name}"
                   for line, name in _unused_imports(tree)]
    assert unused == []


def test_checker_sees_an_unused_import():
    tree = ast.parse("import os\nfrom sys import argv, path\n"
                     "from typing import List as L\nprint(path)\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "argv"), (3, "L")]
    tree = ast.parse("from a import b\n__all__ = ['b']\n")
    assert _unused_imports(tree) == []
