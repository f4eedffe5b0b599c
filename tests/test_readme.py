"""README.md's examples: each shown command output and each commented
library result is what the program prints."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from mesp.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$", README, re.M | re.S)


def _shell_examples() -> list[tuple[str, list[str]]]:
    """Each ``$ command`` of the README's shell blocks, with the lines
    printed under it up to the next blank line."""
    examples = []
    for block in _blocks(""):
        for chunk in block.split("\n\n"):
            lines = chunk.strip("\n").splitlines()
            if lines and lines[0].startswith("$ "):
                examples.append((lines[0][2:], lines[1:]))
    return examples


EXAMPLES = _shell_examples()
C6_GRAPH = next(out for cmd, out in EXAMPLES if cmd == "cat c6.graph")


def test_every_example_is_found():
    commands = [cmd for cmd, _ in EXAMPLES]
    assert commands == [
        "cat c6.graph",
        "mesp solve c6.graph --k 1",
        "mesp solve c6.graph --minimize",
        "mesp verify c6.graph --path 0,1,2,3 --k 1",
        "mesp bench --family cluster-plus-p --sizes 40:2 --seed 7 --format csv",
    ]
    assert C6_GRAPH[0] == "6 6" and len(C6_GRAPH) == 7


COMMANDS = [(cmd, out) for cmd, out in EXAMPLES if cmd.startswith("mesp ")]


@pytest.mark.parametrize("command, shown", COMMANDS, ids=[cmd for cmd, _ in COMMANDS])
def test_command_prints_what_readme_shows(command, shown, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "c6.graph").write_text("\n".join(C6_GRAPH) + "\n")
    assert main(shlex.split(command)[1:]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(shown)
    for got, want in zip(printed, shown):
        # "..." ends a row shown only up to its fixed leading columns
        if want.endswith("..."):
            assert got.startswith(want[:-3]), (got, want)
        else:
            assert got == want


def test_library_snippet_prints_its_comments():
    (snippet,) = _blocks("python")
    expected = [
        line.split("#", 1)[1].strip()
        for line in snippet.splitlines()
        if line.startswith("print(")
    ]
    assert len(expected) == 3
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(snippet, {})
    assert out.getvalue().splitlines() == expected
