"""Import hygiene of the package.

Every name a module imports is used in that module, every import sits
at module level, the modules' relative imports form no cycle, no module
imports scipy, and importing the CLI loads neither scipy nor an
executor module.
"""

import ast
import json
import os
import pathlib
import subprocess
import sys

import pytest

import rkhs_reach

PACKAGE = pathlib.Path(rkhs_reach.__file__).parent
ALL_MODULES = sorted(PACKAGE.glob("*.py"))
# __init__.py imports to re-export
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


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


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def nested_imports(tree):
    """``(line, name)`` of each name imported below module level."""
    top = {id(node) for node in tree.body}
    return sorted(
        (node.lineno, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
        for alias in node.names
    )


def relative_imports(tree, modules):
    """Package modules that ``from . ...`` statements anywhere in ``tree`` load.

    ``from . import name`` loads module ``name`` when the package has it,
    else the package's ``__init__``.
    """
    targets = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ImportFrom) and node.level == 1):
            continue
        if node.module:
            targets.add(node.module.split(".")[0])
        else:
            targets.update(
                a.name if a.name in modules else "__init__" for a in node.names
            )
    return targets


def find_cycle(graph):
    """One cycle of ``{node: successors}`` as a closed path, or None."""
    state = {}  # 1 while on the current path, 2 once finished

    def visit(node, path):
        state[node] = 1
        for succ in sorted(graph.get(node, ())):
            if state.get(succ) == 1:
                return path[path.index(succ) :] + [succ]
            if succ not in state:
                cycle = visit(succ, path + [succ])
                if cycle:
                    return cycle
        state[node] = 2
        return None

    for node in sorted(graph):
        if node not in state:
            cycle = visit(node, [node])
            if cycle:
                return cycle
    return None


# Every import, relative ones included, stays at module level, where
# the cycle check sees it.
@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_every_import_is_at_module_level(path):
    nested = nested_imports(parse(path))
    assert not nested, f"{path.name} imports inside a block: {nested}"


# What ``import rkhs_reach.cli`` must leave unloaded: the package runs
# on numpy alone, and the Monte Carlo oracle runs its threads on
# ``threading`` alone.
UNLOADED_BY_CLI = ["scipy", "scipy.linalg", "scipy.special", "concurrent.futures"]


def test_cli_import_loads_no_scipy_and_no_executor():
    paths = [str(PACKAGE.parent)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    child = (
        "import json, sys\n"
        "import rkhs_reach.cli\n"
        f"print(json.dumps([m for m in {UNLOADED_BY_CLI!r} if m in sys.modules]))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", child],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(paths)),
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert json.loads(out.stdout.splitlines()[-1]) == []


def test_relative_imports_form_no_cycle():
    modules = {p.stem for p in ALL_MODULES}
    graph = {p.stem: relative_imports(parse(p), modules) for p in ALL_MODULES}
    cycle = find_cycle(graph)
    assert cycle is None, "import cycle: " + " -> ".join(cycle)


def test_nested_import_and_cycle_are_reported():
    tree = ast.parse("import os\ndef f():\n    from . import b\n")
    assert nested_imports(tree) == [(3, "b")]
    assert relative_imports(tree, {"a", "b"}) == {"b"}
    assert relative_imports(ast.parse("from . import x"), {"a"}) == {"__init__"}
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": set()}) is None
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]
    assert find_cycle({"a": {"b"}, "b": {"b"}}) == ["b", "b"]


def scipy_imports(tree):
    """Lines of the import statements that load ``scipy`` or a submodule."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            lines.append(node.lineno)
    return sorted(lines)


# Every module, the estimator path's (Gram matrix, fit, cross kernels,
# weight products) among them, runs on numpy's BLAS and its one thread
# pool. scipy loads its own OpenBLAS with its own pool, and on a small
# machine the two pools stall each other at every handoff.
@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_estimator_path_runs_on_one_blas(path):
    lines = scipy_imports(parse(path))
    assert not lines, f"{path.name} imports scipy at lines {lines}"


def test_scipy_import_is_reported():
    tree = ast.parse(
        "import numpy\nimport scipy.linalg\nfrom scipy import special\n"
        "from scipyx import y\nfrom . import scipy\n"
    )
    assert scipy_imports(tree) == [2, 3]
