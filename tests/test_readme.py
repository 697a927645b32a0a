"""The README's claims checked against the code: its CLI examples, run and
compared with the output they show, and its promise of no runtime
dependencies beyond the standard library."""

import ast
import re
import shlex
import sys
from pathlib import Path

import pytest

import pentagon
from pentagon.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

# A ```sh block whose first line is "$ pentagon ..." shows that command
# and, below it, the exact output.
EXAMPLES = [
    (shlex.split(args), output)
    for args, output in re.findall(
        r"^```sh\n\$ pentagon ([^\n]*)\n(.*?)^```", README.read_text("utf-8"),
        re.MULTILINE | re.DOTALL)
]


def test_readme_shows_cli_examples():
    assert {argv[0] for argv, _ in EXAMPLES} == {
        "expand", "pentagonals", "telescope", "partitions", "verify"}


@pytest.mark.parametrize(("argv", "expected"), EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_readme_example_output(capsys, argv, expected):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected


def test_readme_library_example_gives_the_values_its_comments_show():
    # each bare expression's comment starts with the value it evaluates to
    block = re.search(r"^## Library\n\n```python\n(.*?)^```",
                      README.read_text("utf-8"), re.MULTILINE | re.DOTALL)[1]
    lines = block.splitlines()
    namespace: dict = {}
    shown, evaluated = [], []
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        if not isinstance(node, ast.Expr):
            exec(source, namespace)
            continue
        comment = lines[node.end_lineno - 1].partition("#")[2]
        shown.append((source, re.match(r"\s*([^\s,]*)", comment)[1]))
        evaluated.append((source, repr(eval(source, namespace))))
    assert len(shown) == 4
    assert shown == evaluated


def test_package_imports_only_the_standard_library():
    imported = set()
    for path in Path(pentagon.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text("utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert "argparse" in imported
    assert imported <= set(sys.stdlib_module_names)
