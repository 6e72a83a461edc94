"""The README's examples still match the package.

The first Python block under "Library use" runs as written, and every
``rkhs-reach`` command of the walkthrough parses (nothing is run), so a
removed name or flag left in the docs fails here. Every dotted name the
README lists as removed from the library is gone from the package, and
so is every keyword argument it lists as ``name(argument=)``.
"""

import importlib
import inspect
import pathlib
import re
import shlex

import pytest

import rkhs_reach
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


def _removals():
    """Each removal bullet's backticked names before its mark, with their arguments.

    Each bullet under "Removed from the library" names what went, then
    after a ``:`` or ``;`` outside backticks, what replaces it; only the
    names before that mark are returned, each with the text in the
    parentheses that follow it inside its backticks, if any.
    """
    text = section("Library use")
    start = text.index("Removed from the library")
    # the heading line, a blank line, then the list
    listing = text[start:].split("\n\n")[1]
    bullets = re.split(r"^- ", listing, flags=re.M)[1:]
    names = []
    for bullet in bullets:
        quoted = False
        for end, char in enumerate(bullet):
            if char == "`":
                quoted = not quoted
            elif char in ":;" and not quoted:
                break
        names += re.findall(r"`([A-Za-z_][\w.]*)(?:\(([^`]*)\))?`", bullet[:end])
    return names


def removed_names():
    """Dotted names the README lists as removed from the library."""
    return [
        name for name, args in _removals() if "." in name and "=" not in args
    ]


def removed_arguments():
    """``(name, argument)`` for each ``name(argument=)`` the README lists as removed."""
    return [
        (name, arg)
        for name, args in _removals()
        for arg in re.findall(r"(\w+)=", args)
    ]


def _resolve(name):
    """The object holding the package name ``name``, and the name's last part."""
    if "." not in name:
        return rkhs_reach, name
    head, *middle, last = name.split(".")
    if hasattr(rkhs_reach, head):
        owner = getattr(rkhs_reach, head)
    else:
        owner = importlib.import_module(f"rkhs_reach.{head}")
    for part in middle:
        owner = getattr(owner, part)
    return owner, last


def test_readme_lists_the_latest_removals():
    names = removed_names()
    for name in ("RBFKernel.vector", "Embedding.expectation",
                 "TransitionSample.joint", "IntegratorChain.apply_a",
                 "RBFKernel.lift", "kernels.LiftedRows", "kernels.center",
                 "IntegratorChain.dense_a", "CWHSystem.dense_a",
                 "CWHSystem.dense_b"):
        assert name in names
    assert "RBFKernel.cross" not in names
    arguments = removed_arguments()
    for pair in (("RBFKernel.cross", "center"), ("dp_reach", "grid"),
                 ("CWHSystem", "control_bound"), ("Embedding", "eta")):
        assert pair in arguments


@pytest.mark.parametrize("name", removed_names())
def test_removed_name_is_gone(name):
    owner, last = _resolve(name)
    # dir() of a class leaves out its metaclass, whose __call__ every
    # class has
    assert last not in dir(owner), f"the package still has {name}"


@pytest.mark.parametrize("name, argument", removed_arguments())
def test_removed_argument_is_gone(name, argument):
    owner, last = _resolve(name)
    # a class's signature is its constructor's
    parameters = inspect.signature(getattr(owner, last)).parameters
    assert argument not in parameters, f"{name} still takes {argument}="
