"""``tools/code_lines.py`` counts code lines, not docstrings or comments."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SOURCE = '''"""Module docstring
over two lines."""

import os  # a trailing comment

# a comment line


def f(x):
    """Function docstring."""
    s = """a string
    that is code"""
    return (x +
            1)


class C:
    'Class docstring.'
    x = 1
'''


def _load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_skips_docstrings_comments_and_blank_lines():
    # import, def, the two lines of the assigned string, the two of the
    # return, class and its assignment
    assert _load_tool().code_lines(SOURCE) == 8


def test_code_lines_prints_a_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n', encoding="utf-8")
    assert _load_tool().main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     8  a.py", "     0  b.py", "     8  total"
    ]
