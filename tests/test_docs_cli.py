"""The documented command line matches the parser.

Every ``python -m repro …`` command in a fenced block of ``README.md``
or ``docs/*.md`` must parse (``\\`` continuations joined, ``#`` comments
and redirections dropped), and every long option the parser defines
must appear in ``docs/operations.md`` — deleting an option cannot leave
its documentation behind, and adding one cannot skip it.
"""

import argparse
import pathlib
import re
import shlex

import pytest

from repro.cli import build_parser

ROOT = pathlib.Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
OPERATIONS_MD = ROOT / "docs" / "operations.md"
COMMAND = re.compile(r"python3? -m repro\b(.*)")
REDIRECTIONS = {">", ">>", "<", "2>", "2>>", "&>"}


def fenced_lines(path: pathlib.Path):
    """``(line number, logical line)`` inside fenced blocks, with
    backslash continuations joined onto the line they continue."""
    fenced, pending, start = False, "", 0
    for number, line in enumerate(path.read_text("utf-8").splitlines(), 1):
        if line.lstrip().startswith("```"):
            fenced, pending = not fenced, ""
            continue
        if not fenced:
            continue
        if not pending:
            start = number
        if line.rstrip().endswith("\\"):
            pending += line.rstrip()[:-1] + " "
            continue
        yield start, pending + line
        pending = ""


def argv_of(rest: str) -> list[str]:
    """The arguments after ``python -m repro``, up to a pipe, without
    comments or redirections."""
    words = shlex.split(rest, comments=True)
    argv, skip = [], False
    for word in words:
        if word == "|":
            break
        if skip:
            skip = False
        elif word in REDIRECTIONS:
            skip = True
        elif not word.startswith((">", "2>")):
            argv.append(word)
    return argv


def documented_commands():
    for path in DOCS:
        for number, line in fenced_lines(path):
            match = COMMAND.search(line)
            if match:
                where = f"{path.relative_to(ROOT)}:{number}"
                yield pytest.param(argv_of(match.group(1)), id=where)


def long_options() -> set[str]:
    parser = build_parser()
    commands = next(a for a in parser._actions
                    if isinstance(a, argparse._SubParsersAction))
    return {option for sub in commands.choices.values()
            for action in sub._actions for option in action.option_strings
            if option.startswith("--") and option != "--help"}


@pytest.mark.parametrize("argv", documented_commands())
def test_documented_command_parses(argv):
    build_parser().parse_args(argv)


def test_fenced_commands_are_found():
    """The scan sees the quick reference, continuations included."""
    found = {" ".join(p.values[0]) for p in documented_commands()}
    assert "info" in found
    assert any(c.startswith("ingest") and "--anti-entropy" in c
               for c in found)


@pytest.mark.parametrize("option", sorted(long_options()))
def test_option_is_documented(option):
    text = OPERATIONS_MD.read_text("utf-8")
    assert re.search(rf"(?<![\w-]){re.escape(option)}(?![\w-])", text), (
        f"{option} is not in docs/operations.md")
