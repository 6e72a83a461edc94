"""The README's examples still match the package.

The first Python block under "Library use" runs as written, and every
``rkhs-reach`` command of the walkthrough parses (nothing is run), so a
removed name or flag left in the docs fails here.
"""

import pathlib
import re
import shlex

import pytest

from rkhs_reach.cli import _build_parser

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def section(title):
    """Text of the ``## title`` section, up to the next ``## `` heading."""
    text = README.read_text(encoding="utf-8")
    pattern = rf"^## {re.escape(title)}\n(.*?)(?=^## |\Z)"
    match = re.search(pattern, text, re.M | re.S)
    assert match, f"README has no section {title!r}"
    return match.group(1)


def code_blocks(text, lang=""):
    return re.findall(rf"^```{lang}\n(.*?)^```", text, re.M | re.S)


def walkthrough_commands():
    commands = []
    for block in code_blocks(section("Command-line walkthrough")):
        for line in re.sub(r"\s*\\\n\s*", " ", block).splitlines():
            if line.startswith("rkhs-reach "):
                commands.append(line)
    return commands


def test_library_example_runs(capsys):
    block = code_blocks(section("Library use"), "python")[0]
    exec(compile(block, str(README), "exec"), {})
    value = float(capsys.readouterr().out.strip().strip("[]"))
    assert 0.0 <= value <= 1.0


def test_walkthrough_has_every_subcommand():
    used = {shlex.split(c)[1] for c in walkthrough_commands()}
    assert used == {"generate", "reach", "oracle-dp", "oracle-mc", "compare",
                    "bench-dims"}


@pytest.mark.parametrize("command", walkthrough_commands())
def test_walkthrough_command_parses(command):
    try:
        _build_parser().parse_args(shlex.split(command)[1:])
    except SystemExit as exc:
        pytest.fail(f"README command does not parse (exit {exc.code}): {command}")
