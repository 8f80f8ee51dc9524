"""Every module under src/ncfact uses every name it imports, none lists a
group, and `import ncfact.cli` stays cheap.

No linter ships with the package, so this walks each module's syntax tree:
a name bound by an import must be read somewhere in the module, or be
listed in the module's `__all__` (a re-export); only the body of
`Group.length_table` may call a routine that lists a whole group; and no
module imports `dataclasses`.  A fresh interpreter then checks which
modules `import ncfact.cli` loads.
"""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ncfact

SRC = Path(ncfact.__file__).resolve().parent
LAYERS = SRC.parents[1] / "perfbench" / "layers.py"


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


def _imported_modules(tree):
    """(line, module) for every import statement, at any depth."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append((node.lineno, node.module))
    return found


def test_no_module_imports_dataclasses():
    # the records are NamedTuples or __slots__ classes: dataclasses pulls
    # in inspect, ast, dis and tokenize, and execs generated code for each
    # record, a cost every CLI process paid
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{line}: {name}"
                  for line, name in _imported_modules(tree)
                  if name.split(".")[0] == "dataclasses"]
    assert found == []


def test_import_checker_sees_nested_imports():
    tree = ast.parse("import dataclasses as d\ndef f():\n"
                     "    from dataclasses import field\n"
                     "    from . import x\n")
    assert _imported_modules(tree) == [(1, "dataclasses"),
                                       (3, "dataclasses")]


# loaded only on the paths that use them, or never: csv to render csv,
# copy for the table records, fractions (and with it decimal) where a value
# can be rational; SHA-256 comes from CPython's own module, not hashlib and
# OpenSSL's _hashlib, and the argv parser is cli's own, not argparse (with
# gettext and locale)
COLD_START_FREE = ("dataclasses", "inspect", "csv", "copy", "hashlib",
                   "_hashlib", "argparse", "gettext", "locale", "fractions",
                   "decimal")


def test_cli_import_loads_the_traced_modules_and_nothing_costly():
    # against the interpreter's own start-up set (site may load some of
    # these itself, as a .pth file does with tempfile here), in a fresh
    # process, as the benchmark's setup sample and tracer import it
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    paths = [str(SRC.parent)] + [
        p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}
    script = ("import sys\nbare = set(sys.modules)\nimport ncfact.cli\n"
              "print(' '.join(sorted(set(sys.modules) - bare)))\n"
              "print(' '.join(sorted(sys.modules)))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    added, loaded = (line.split() for line in proc.stdout.splitlines())
    assert [m for m in added if m.split(".")[0] in COLD_START_FREE] == []
    targets = {m for m, _, _ in layers.SPAN_TARGETS + layers.COUNT_TARGETS}
    assert sorted(targets - set(loaded)) == []
    assert "ncfact.verify" in added


def _builtin_sha256():
    for name in ("_sha2", "_sha256"):
        try:
            __import__(name)
            return name
        except ImportError:
            pass
    return None


def test_digests_never_load_openssl(tmp_path):
    # class-id digests (verify) and the cache key (a cache hit) take
    # SHA-256 from CPython's own module
    if _builtin_sha256() is None:
        pytest.skip("no built-in SHA-256 module")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC.parent)] + [p for p in os.environ.get(
            "PYTHONPATH", "").split(os.pathsep) if p])}
    script = ("import sys\nfrom ncfact.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print(code, ' '.join(sorted(sys.modules)), file=sys.stderr)\n")
    cache = str(tmp_path / "cache.json")
    runs = [["verify", "H3", "--format", "json"],
            ["count", "A3", "red", "--cache", cache],
            ["count", "A3", "red", "--cache", cache]]
    loaded = []
    for argv in runs:
        proc = subprocess.run([sys.executable, "-c", script, *argv],
                              env=env, capture_output=True, text=True,
                              timeout=60, check=True)
        code, modules = proc.stderr.splitlines()[-1].split(" ", 1)
        assert code == "0"
        loaded.append(modules.split())
    verify, _, hit = loaded
    assert "_hashlib" not in verify and "hashlib" not in verify
    assert "_hashlib" not in hit and "hashlib" not in hit
    assert _builtin_sha256() in verify and _builtin_sha256() in hit
