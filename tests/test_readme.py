"""The examples in README.md print what README says they print.

Each "$ epicusp ..." line of the "Command line" section runs through
cli.main and must print the lines below it; a line ending in "...}" gives a
prefix of the printed one, and an --out file goes under tmp_path, where its
size must be the reported "bytes".  The "Library quick tour" runs statement
by statement, and every expression with a comment must have the value the
comment starts with.
"""

import ast
import json
import re
import shlex
from pathlib import Path

import pytest

from epicusp.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced_block(heading: str, language: str) -> str:
    """The first ```language block after the line heading."""
    section = README[README.index(f"\n{heading}\n") :]
    start = section.index(f"```{language}\n") + len(language) + 4
    return section[start : section.index("```", start)]


def cli_examples() -> list[tuple[list[str], list[str]]]:
    """(argv, expected lines) for every "$ epicusp" line of the Command line section."""
    examples = []
    for chunk in fenced_block("## Command line", "sh").strip().split("\n\n"):
        command, *expected = chunk.splitlines()
        assert command.startswith("$ epicusp ")
        examples.append((shlex.split(command)[2:], expected))
    return examples


CLI_EXAMPLES = cli_examples()


def test_the_command_line_section_has_every_example():
    assert [argv[0] for argv, _ in CLI_EXAMPLES] == [
        "wind", "wind", "cusps", "cusps", "symmetry", "intersect", "plot", "sweep",
    ]


@pytest.mark.parametrize("argv, expected", CLI_EXAMPLES, ids=[" ".join(a) for a, _ in CLI_EXAMPLES])
def test_a_command_line_example_prints_its_lines(argv, expected, tmp_path, capsys):
    argv = list(argv)
    out_path = None
    if "--out" in argv:
        i = argv.index("--out") + 1
        out_path = tmp_path / argv[i]
        argv[i] = str(out_path)
    assert main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(expected)
    for got, want in zip(printed, expected):
        if out_path is not None:
            got, want = json.loads(got), json.loads(want)
            assert got.pop("out") == str(out_path) and want.pop("out") == out_path.name
            assert got == want and out_path.stat().st_size == got["bytes"]
        elif want.endswith("...}"):
            assert got.startswith(want[: -len("...}")])
        else:
            assert got == want


def test_the_quick_tour_gives_its_commented_values():
    source = fenced_block("## Library quick tour", "python")
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for node in ast.parse(source).body:
        code = ast.get_source_segment(source, node)
        comment = lines[node.end_lineno - 1].partition("#")[2].strip()
        if isinstance(node, ast.Expr) and comment:
            value = eval(code, namespace)
            assert re.match(re.escape(repr(value)) + r"(\W|$)", comment), (code, value, comment)
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 7
    # "two certified cusps at t = 1/4, 3/4"
    assert [c.t for c in namespace["certs"]] == [0.25, 0.75]
