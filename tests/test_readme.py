"""The README's CLI examples, run and compared with the output they show."""

import re
import shlex
from pathlib import Path

import pytest

from pentagon.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

# A ```sh block whose first line is "$ pentagon ..." shows that command
# and, below it, the exact output. bench prints a timing, so it is left out.
EXAMPLES = [
    (shlex.split(args), output)
    for args, output in re.findall(
        r"^```sh\n\$ pentagon ([^\n]*)\n(.*?)^```", README.read_text("utf-8"),
        re.MULTILINE | re.DOTALL)
    if not args.startswith("bench ")
]


def test_readme_shows_cli_examples():
    assert {argv[0] for argv, _ in EXAMPLES} == {
        "expand", "pentagonals", "telescope", "partitions", "verify"}


@pytest.mark.parametrize(("argv", "expected"), EXAMPLES,
                         ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_readme_example_output(capsys, argv, expected):
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
