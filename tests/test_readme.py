"""README's examples run as printed: the `$ ncfact ...` blocks of the
"Command line" section against the CLI's stdout, and the "Python API"
block against its `#` comments."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from ncfact.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _section(title):
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _cli_examples():
    """(argv, expected stdout body) for each `$ ncfact ...` line."""
    examples = []
    for block in re.findall(r"```text\n(.*?)```", _section("Command line"),
                            re.S):
        for chunk in block.split("$ ncfact ")[1:]:
            command, *body = chunk.rstrip("\n").split("\n")
            examples.append((shlex.split(command, comments=True),
                             "\n".join(body)))
    return examples


CLI_EXAMPLES = _cli_examples()


def test_readme_lists_the_cli_examples():
    assert [" ".join(argv) for argv, _ in CLI_EXAMPLES] == [
        "info B3", "count B3 red", "count D4 fact-k 3",
        "count A3 composition 2,1", "count A3 by-class", "table H3"]


@pytest.mark.parametrize("argv,body", CLI_EXAMPLES,
                         ids=[" ".join(a) for a, _ in CLI_EXAMPLES])
def test_cli_example_matches_stdout(capsys, argv, body):
    assert main(argv) == 0
    heading, blank, rest = capsys.readouterr().out.split("\n", 2)
    assert heading.startswith(f"# ncfact {argv[0]} ") and blank == ""
    assert rest == body + "\n"


def test_python_api_block_matches_its_comments():
    code = re.search(r"```python\n(.*?)```", _section("Python API"),
                     re.S).group(1)
    lines = code.split("\n")
    names = {}
    checked = 0
    for stmt in ast.parse(code).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), "README", "exec"), names)
            continue
        value = repr(eval(compile(ast.Expression(stmt.value), "README",
                                  "eval"), names))
        # the comment after the expression, or on the line below it
        last = lines[stmt.end_lineno - 1]
        comment = (last[stmt.end_col_offset:] if "#" in
                   last[stmt.end_col_offset:] else lines[stmt.end_lineno])
        comment = comment.split("#", 1)[1].strip()
        assert comment == value or comment.startswith(value + ", "), (
            value, comment)
        checked += 1
    assert checked == 6
