"""Every name a package module imports is used in that module."""

import ast
import pathlib

import pytest

import rkhs_reach

PACKAGE = pathlib.Path(rkhs_reach.__file__).parent
# __init__.py imports to re-export
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """Names bound by the module's import statements, with their lines."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree):
    """Names read anywhere in the module, plus the entries of ``__all__``."""
    used = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    used = used_names(tree)
    unused = {
        name: line for name, line in imported_names(tree).items()
        if name not in used
    }
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_unused_import_is_reported():
    tree = ast.parse(
        "import os\nfrom a import b, c as d\n__all__ = ['d']\nos.sep\n"
    )
    names = imported_names(tree)
    assert set(names) - used_names(tree) == {"b"}
