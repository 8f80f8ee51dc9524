"""Every module under src/ncfact and tests/ uses every name it imports, no
module under src/ncfact lists a group, and `import ncfact.cli` stays
cheap.

No linter ships with the package, so this walks each module's syntax tree:
a name bound by an import must be read somewhere in the module, or be
listed in the module's `__all__` (a re-export); only the body of
`Group.length_table` may call a routine that lists a whole group, and
only the NC walk asks a carrier for covers; and no module imports
`dataclasses`; the modules the CLI imports at start-up bind
no name from a lazy lattice module, and no lazy module imports `json` or
`pathlib`, so `families` alone reads the shipped data.  Fresh interpreters
then check which modules `import ncfact.cli` loads and which each command
executes, and the package's public names resolve to their defining
modules.
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
TESTS = Path(__file__).resolve().parent


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
    for path in sorted([*SRC.glob("*.py"), *TESTS.glob("*.py")]):
        tree = ast.parse(path.read_text(), filename=str(path))
        unused += [f"{path.parent.name}/{path.name}:{line}: {name}"
                   for line, name in _unused_imports(tree)]
    assert unused == []


def test_checker_sees_an_unused_import():
    tree = ast.parse("import os\nfrom sys import argv, path\n"
                     "from typing import List as L\nprint(path)\n")
    assert _unused_imports(tree) == [(1, "os"), (2, "argv"), (3, "L")]
    tree = ast.parse("from a import b\n__all__ = ['b']\n")
    assert _unused_imports(tree) == []


LISTING = {"length_table", "leq_rows", "bfs_lengths"}


def _named_calls(tree, names):
    """(enclosing def, called name) for each call of a function or method
    named in names; the enclosing def is Class.method or the function,
    '' at module level."""
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
                if name in names:
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
                  for scope, name in _named_calls(tree, LISTING)]
    assert calls == [("groups.py", "Group.length_table", "bfs_lengths")]


def test_only_the_nc_walk_asks_for_covers():
    # the walk alone decides which reflections a carrier is asked about,
    # and composes the covers it answers with
    calls = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        calls += [(path.name, scope, name)
                  for scope, name in _named_calls(tree, {"covers"})]
    assert calls == [("ncp.py", "NcPoset.__init__.step", "covers")]


def test_listing_checker_sees_calls():
    tree = ast.parse("class G:\n    def f(self):\n        k.leq_rows(1)\n"
                     "def h():\n    return length_table()\nbfs_lengths()\n")
    assert _named_calls(tree, LISTING) == [
        ("G.f", "leq_rows"), ("h", "length_table"), ("", "bfs_lengths")]
    tree = ast.parse("def step(v):\n    return car.covers(v, ks)\n"
                     "covers = rs.covers\n")
    assert _named_calls(tree, {"covers"}) == [("step", "covers")]


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


def _representation_reads(tree):
    """(line, what) for each place that reads a representation: 'struct'
    for an import of struct, 'storage' for a test of a value's type
    against bytes (`x.__class__ is bytes`, `type(x) is bytes`,
    `isinstance(x, bytes)`), 'relation' for a read of an NC poset's flat
    relation (`.down`, `.down_start`)."""
    found = [(line, "struct") for line, name in _imported_modules(tree)
             if name in ("struct", "_struct")]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in ("down",
                                                              "down_start"):
            found.append((node.lineno, "relation"))
        elif isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            if (any(isinstance(op, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq))
                    for op in node.ops)
                    and any(isinstance(s, ast.Name) and s.id == "bytes"
                            for s in sides)
                    and any(isinstance(s, ast.Attribute)
                            and s.attr == "__class__"
                            or isinstance(s, ast.Call)
                            and getattr(s.func, "id", None) == "type"
                            for s in sides)):
                found.append((node.lineno, "storage"))
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "isinstance"
              and "bytes" in {n.id for n in ast.walk(node.args[1])
                              if isinstance(n, ast.Name)}):
            found.append((node.lineno, "storage"))
    return sorted(found)


# the one module each representation belongs to: kernels reads the element
# formats, ncp its relation's flat layout
REPRESENTATION_OWNERS = {"struct": "kernels.py", "storage": "kernels.py",
                         "relation": "ncp.py"}


def test_each_representation_is_read_by_its_owner_alone():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for line, what in _representation_reads(tree):
            found.setdefault(what, []).append(f"{path.name}:{line}")
    strays = [place for what, places in found.items() for place in places
              if place.split(":")[0] != REPRESENTATION_OWNERS[what]]
    assert strays == []
    # the owners do read them (the kernels import no struct at all)
    assert sorted(found) == ["relation", "storage"]


def test_representation_checker_sees_each_read():
    tree = ast.parse(
        "import struct\nif p.__class__ is bytes: pass\n"
        "ok = type(p) is not bytes\nisinstance(p, (bytes, tuple))\n"
        "x = nc.down[nc.down_start[j]]\nfrom _struct import pack\n"
        "if p.__class__ is tuple or len(down) or bytes: pass\n")
    assert _representation_reads(tree) == [
        (1, "struct"), (2, "storage"), (3, "storage"), (4, "storage"),
        (5, "relation"), (5, "relation"), (6, "struct")]


# loaded only on the paths that use them, or never: csv to render csv,
# copy for the table records, fractions (and with it decimal and numbers)
# only where a caller reads a prefactor as a Fraction, which no command
# does; SHA-256 comes from CPython's own module, not hashlib and OpenSSL's
# _hashlib, and the argv parser is cli's own, not argparse (with gettext
# and locale)
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


def _modules_after(*argv):
    """The modules in sys.modules after one CLI run, which must exit 0, in
    a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC.parent)] + [p for p in os.environ.get(
            "PYTHONPATH", "").split(os.pathsep) if p])}
    script = ("import sys\nfrom ncfact.cli import main\n"
              "code = main(sys.argv[1:])\n"
              "print(code, ' '.join(sorted(sys.modules)), file=sys.stderr)\n")
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    code, modules = proc.stderr.splitlines()[-1].split(" ", 1)
    assert code == "0"
    return set(modules.split())


def test_digests_never_load_openssl(tmp_path):
    # class-id digests (verify) and the cache key (a cache hit) take
    # SHA-256 from CPython's own module
    if _builtin_sha256() is None:
        pytest.skip("no built-in SHA-256 module")
    cache = str(tmp_path / "cache.json")
    verify, _, hit = (_modules_after(*argv) for argv in (
        ["verify", "H3", "--format", "json"],
        ["count", "A3", "red", "--cache", cache],
        ["count", "A3", "red", "--cache", cache]))
    assert "_hashlib" not in verify and "hashlib" not in verify
    assert "_hashlib" not in hit and "hashlib" not in hit
    assert _builtin_sha256() in verify and _builtin_sha256() in hit


@pytest.mark.parametrize("argv", [["verify", "H3"], ["verify", "G(4,4,5)"],
                                  ["table", "F4"],
                                  ["count", "D4", "by-class"]])
def test_closed_forms_run_without_fractions(argv):
    # the table, its counts and the expected r are exact int arithmetic
    loaded = _modules_after(*argv)
    assert sorted({"fractions", "decimal", "numbers"} & loaded) == []


# executed by `import ncfact.cli`; every other ncfact module is registered
# lazily by the package and executes on its first attribute access
EAGER = ("ncfact", "ncfact.cli", "ncfact.errors", "ncfact.families",
         "ncfact.report")
LAZY = ("kernels", "rootdata", "closedform", "groups", "ncp", "facto",
        "verify")
# modules the CLI imports at start-up, and so must not bind from a lazy one
START_UP = ("__init__.py", "cli.py", "report.py", "families.py", "errors.py")

# prints the exit code of main(argv) (None without argv), the ncfact
# modules in sys.modules, and those among them that have executed (a lazy
# module is of a ModuleType subclass until then)
_STATE = """\
import sys, types
from ncfact.cli import main
code = main(sys.argv[1:]) if sys.argv[1:] else None
names = sorted(m for m in sys.modules if m.split(".")[0] == "ncfact")
print(code)
print(" ".join(names))
print(" ".join(m for m in names if type(sys.modules[m]) is types.ModuleType))
"""


def _state(*argv):
    """(exit code, ncfact modules loaded, ncfact modules executed) of one
    CLI run in a fresh interpreter, or of the import alone."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC.parent)] + [p for p in os.environ.get(
            "PYTHONPATH", "").split(os.pathsep) if p])}
    proc = subprocess.run([sys.executable, "-c", _STATE, *argv], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    code, loaded, executed = proc.stdout.splitlines()[-3:]
    return code, set(loaded.split()), set(executed.split())


def test_cli_import_executes_only_the_start_up_modules():
    # the traced modules are in sys.modules from the start, which is what
    # the benchmark's tracer looks up; only the CLI's own path executes
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    _, loaded, executed = _state()
    targets = {m for m, _, _ in layers.SPAN_TARGETS + layers.COUNT_TARGETS}
    assert sorted(targets - loaded) == []
    assert loaded == set(EAGER) | {f"ncfact.{m}" for m in LAZY}
    assert sorted(executed) == sorted(EAGER)


@pytest.mark.parametrize("argv", [["info", "A3"], ["info", "H3"],
                                  ["table", "B"]])
def test_closed_form_commands_execute_no_lattice_module(argv):
    code, _, executed = _state(*argv)
    assert code == "0"
    assert executed == set(EAGER) | {"ncfact.closedform"}


def test_a_cache_hit_executes_no_lattice_module(tmp_path):
    # count's ARG is checked before the lookup, by the eager families
    for kind in (["red"], ["composition", "2,1"]):
        argv = ["count", "A3", *kind, "--cache", str(tmp_path / "c.json")]
        miss, hit = _state(*argv), _state(*argv)
        assert miss[0] == hit[0] == "0"
        assert "ncfact.facto" in miss[2]
        assert hit[2] == set(EAGER)


def test_verify_executes_every_module():
    code, loaded, executed = _state("verify", "H3")
    assert code == "0"
    assert executed == loaded == set(EAGER) | {f"ncfact.{m}" for m in LAZY}


def _lazy_bindings(tree):
    """(line, statement) for each import outside a function that would
    execute a lazy module at once: `from ncfact.<lazy> import x`, `from
    .<lazy> import x` or `import ncfact.<lazy>`; the body of an `if
    TYPE_CHECKING:` block never runs."""
    lazy = {f"ncfact.{m}" for m in LAZY}
    found = []

    def visit(nodes):
        for node in nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            if (isinstance(node, ast.If)
                    and ast.unparse(node.test).endswith("TYPE_CHECKING")):
                visit(node.orelse)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                modules = ([a.name for a in node.names]
                           if isinstance(node, ast.Import) else
                           [("ncfact." if node.level else "")
                            + (node.module or "")])
                if any(".".join(m.split(".")[:2]) in lazy for m in modules):
                    found.append((node.lineno, ast.unparse(node)))
            else:
                visit(ast.iter_child_nodes(node))

    visit(tree.body)
    return found


def test_start_up_modules_bind_no_lazy_module_name():
    # `from ncfact import groups` keeps groups lazy; `from ncfact.groups
    # import build_group` at module level would execute it on every run
    found = []
    for name in START_UP:
        tree = ast.parse((SRC / name).read_text(), filename=name)
        found += [f"{name}:{line}: {text}"
                  for line, text in _lazy_bindings(tree)]
    assert found == []


def test_lazy_binding_checker_sees_eager_imports():
    tree = ast.parse(
        "from ncfact import groups, errors\nfrom .errors import X\n"
        "from .ncp import build_nc\nfrom ncfact.facto import LLRow\n"
        "import ncfact.kernels\nif TYPE_CHECKING:\n"
        "    from ncfact.groups import Group\n"
        "try:\n    from .rootdata import LANE\nexcept ImportError:\n"
        "    pass\ndef f():\n    from ncfact.groups import build_group\n")
    assert _lazy_bindings(tree) == [
        (3, "from .ncp import build_nc"),
        (4, "from ncfact.facto import LLRow"),
        (5, "import ncfact.kernels"),
        (9, "from .rootdata import LANE")]


def _file_reads(tree):
    """(line, module) for each import of json or pathlib, at any depth."""
    return [(line, name) for line, name in _imported_modules(tree)
            if name.split(".")[0] in ("json", "pathlib")]


def test_the_lazy_modules_read_no_files():
    # `families.data` is the one reader of data/*.json; a lattice module
    # that opened a data file itself would be a second owner of it
    found = []
    for name in LAZY:
        tree = ast.parse((SRC / f"{name}.py").read_text(),
                         filename=f"{name}.py")
        found += [f"{name}.py:{line}: {module}"
                  for line, module in _file_reads(tree)]
    assert found == []


def test_file_read_checker_sees_json_and_pathlib():
    # the imports of a closedform.py that loaded its table itself
    tree = ast.parse("import _ast\nimport json\nimport math\n"
                     "from functools import cache\nfrom pathlib import Path\n"
                     "def f():\n    import json.decoder as d\n"
                     "    from os import path\n")
    assert _file_reads(tree) == [(2, "json"), (5, "pathlib"),
                                 (7, "json.decoder")]


def _top_level_definitions():
    """name -> the modules under src/ncfact that define it at top level
    (def, class or assignment)."""
    homes = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets
                         if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                homes.setdefault(name, []).append(path.stem)
    return homes


def test_public_api_resolves_to_the_defining_modules():
    homes = _top_level_definitions()
    wrong = []
    for name in set(ncfact.__all__) - {"__version__"}:
        home = importlib.import_module(f"ncfact.{homes[name][0]}")
        if (len(homes[name]) != 1
                or getattr(ncfact, name) is not vars(home)[name]
                or name not in dir(ncfact)):
            wrong.append(name)
    assert wrong == []
    namespace = {}
    exec("from ncfact import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(ncfact.__all__)
    with pytest.raises(AttributeError):
        ncfact.no_such_name


def test_the_report_format_is_defined_once_in_report():
    # keys, builders, cache-shape test and renderings: one module states
    # the report, so cli and verify cannot drift apart
    homes = _top_level_definitions()
    names = ("CHECK_KEYS", "ROW_COLS", "check", "report", "is_report",
             "sha256", "render", "render_md", "render_csv")
    assert {name: homes.get(name) for name in names} == {
        name: ["report"] for name in names}
