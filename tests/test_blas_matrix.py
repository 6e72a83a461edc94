"""``tools/blas_matrix.py`` compares a rerun golden file with the committed one
and reads the failing tests from pytest's summary."""

import importlib.util
import math
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "blas_matrix.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("blas_matrix", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tool = _load_tool()
largest_change = _tool.largest_change
failed_tests = _tool.failed_tests

WANT = "# horizon=3\nx1,x2,v0\n0.5,-1,0.25\n1,2,0.75\n"


@pytest.mark.parametrize(
    "got, change",
    [
        (WANT, None),
        # the largest change over every cell, the coordinates included
        ("# horizon=3\nx1,x2,v0\n0.5,-1,0.25000000000000006\n1,2,0.75\n", 5.551e-17),
        ("# horizon=3\nx1,x2,v0\n0.5,-1,0.25\n1.5,2,0.5\n", 0.5),
        # the same numbers written another way
        ("# horizon=3\nx1,x2,v0\n0.5,-1.0,0.25\n1,2,0.75\n", 0.0),
        # anything but a number
        ("# horizon=4\nx1,x2,v0\n0.5,-1,0.25\n1,2,0.75\n", math.inf),
        ("# horizon=3\nx1,x2,value\n0.5,-1,0.25\n1,2,0.75\n", math.inf),
        ("# horizon=3\nx1,x2,v0\n0.5,-1,0.25\n", math.inf),
        ("# horizon=3\nx1,x2,v0\n0.5,-1,0.25\n1,2\n", math.inf),
        ("# horizon=3\nx1,x2,v0\n0.5,-1,0.25\n1,2,zap\n", math.inf),
        ("# horizon=3\nx1,x2,v0\n0.5,-1,0.25\n1,2,nan\n", math.inf),
        ("", math.inf),
    ],
    ids=[
        "same text", "one ulp", "largest of two", "another spelling",
        "metadata", "header", "row count", "row width", "not a number", "nan",
        "empty",
    ],
)
def test_largest_change_of_a_table(got, change):
    got = largest_change(got, WANT)
    if change is None or change in (0.0, math.inf):
        assert got == change
    else:
        assert got == pytest.approx(change, rel=1e-3)


def test_wall_time_columns_are_left_out():
    want = "n,seconds,value\n2,0.031,0.5\n10,0.042,0.25\n"
    assert largest_change("n,seconds,value\n2,0.5,0.5\n10,9,0.25\n", want) is None
    moved = largest_change("n,seconds,value\n2,0.5,0.5\n10,9,0.375\n", want)
    assert moved == 0.125


def test_a_text_file_either_matches_or_differs():
    want = "exit 4\nfile error: x.csv: header must start with x1\n"
    assert largest_change(want, want) is None
    assert largest_change("exit 4\nfile error: other\n", want) == math.inf


def test_failed_tests_are_read_from_the_short_summary():
    rule = "=" * 20
    output = "\n".join([
        "F.E",
        f"{rule} FAILURES {rule}",
        "FAILED lines above the summary are a test's own output",
        f"{rule} short test summary info {rule}",
        "FAILED tests/test_embedding.py::test_invert[1024-1e-06] - assert 2 < 1",
        "FAILED tests/test_golden.py::test_cli_matches[cwh_lqr_64.csv]",
        "ERROR tests/test_golden.py - ImportError: x - y",
        "SKIPPED [1] tests/test_golden.py:12: not here",
        "2 failed, 1 passed, 1 error in 3.21s",
    ])
    assert failed_tests(output) == [
        "tests/test_embedding.py::test_invert[1024-1e-06]",
        "tests/test_golden.py::test_cli_matches[cwh_lqr_64.csv]",
        "tests/test_golden.py",
    ]
    assert failed_tests("...\n3 passed in 2.10s\n") == []
