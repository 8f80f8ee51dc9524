"""Every module under src/ncfact uses every name it imports, and none
lists a group.

No linter ships with the package, so this walks each module's syntax tree:
a name bound by an import must be read somewhere in the module, or be
listed in the module's `__all__` (a re-export); and only the body of
`Group.length_table` may call a routine that lists a whole group.
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


LISTING = {"length_table", "leq_rows", "bfs_lengths"}


def _listing_calls(tree):
    """(enclosing def, called name) for each call of a LISTING name; the
    enclosing def is Class.method or the function, '' at module level."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            elif isinstance(child, ast.Call):
                func = child.func
                name = getattr(func, "attr", getattr(func, "id", None))
                if name in LISTING:
                    found.append((scope, name))
            visit(child, inner)

    visit(tree, "")
    return found


def test_no_library_path_lists_a_group():
    # only the length table's own body runs the BFS over W; nothing calls
    # the length table or the all-pairs order rows
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        calls += [(path.name, scope, name)
                  for scope, name in _listing_calls(tree)]
    assert calls == [("groups.py", "Group.length_table", "bfs_lengths")]


def test_listing_checker_sees_calls():
    tree = ast.parse("class G:\n    def f(self):\n        k.leq_rows(1)\n"
                     "def h():\n    return length_table()\nbfs_lengths()\n")
    assert _listing_calls(tree) == [("G.f", "leq_rows"),
                                    ("h", "length_table"), ("", "bfs_lengths")]
