"""The README's code examples run against the package as it is."""
import argparse
import re
import shlex
from pathlib import Path

import pytest

from pencils import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced(heading: str, language: str) -> str:
    """The first fenced `language` block under the level-2 heading `heading`."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def command_examples() -> list:
    """(argv, shown output lines) for each `pencils` line under "Command line".

    A bracketed optional part such as `[--f 1,3]` is dropped; the output is
    the indented lines that follow the command.
    """
    examples = []
    for line in fenced("Command line", "text").splitlines():
        if line.startswith("pencils "):
            examples.append((shlex.split(re.sub(r" \[[^]]*\]", "", line))[1:], []))
        elif line.startswith("    "):
            examples[-1][1].append(line.strip())
    return examples


def test_library_example_runs():
    exec(compile(fenced("Library example", "python"), str(README), "exec"), {})


def test_every_command_has_one_example():
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(argv[0] for argv, _ in command_examples()) == sorted(sub.choices)


@pytest.mark.parametrize(
    "argv, shown", [pytest.param(argv, shown, id=argv[0]) for argv, shown in command_examples()]
)
def test_command_line_example_prints_what_is_shown(capsys, argv, shown):
    assert cli.main(argv) == 0
    assert [line.strip() for line in capsys.readouterr().out.splitlines()] == shown
