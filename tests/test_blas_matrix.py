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


def test_round_off_records_are_read_from_the_junit_report():
    report = (
        '<?xml version="1.0" encoding="utf-8"?><testsuites><testsuite>'
        '<testcase name="test_a"><properties>'
        '<property name="round-off" value="oracle_dp.csv v1 2.2e-16 1e-14" />'
        '<property name="other" value="x 1 2" />'
        '</properties><failure message="m">text</failure></testcase>'
        '<testcase name="test_b"><properties>'
        '<property name="round-off" value="inverse[lam=1e-06] 1.806e-12 1.8e-12" />'
        "</properties></testcase><testcase name=\"test_c\" />"
        "</testsuite></testsuites>"
    )
    assert _tool.round_off_records(report) == [
        ("oracle_dp.csv v1", 2.2e-16, 1e-14),
        ("inverse[lam=1e-06]", 1.806e-12, 1.8e-12),
    ]


def test_nearest_bounds_take_each_labels_largest_value():
    records = [
        ("reach_fixed.csv v0", 1e-16, 1e-14),
        ("reach_fixed.csv v2", 6.6e-15, 1e-14),
        ("reach_fixed.csv v0", 3e-16, 1e-14),
        # a small value against a small bound comes nearer
        ("reach_raw.csv v0", 1e-19, 1e-19),
        ("reach_raw.csv v2", 1e-16, 1e-14),
        # a column of zeros allows only zero
        ("zeros.csv v0", 0.0, 0.0),
        ("zeros.csv v1", 0.0, 1e-14),
        ("inverse[lam=1e-06]", 1.2e-12, 1.8e-12),
        ("inverse[lam=1e-06]", 2.58e-12, 1.8e-12),
        ("inverse[lam=1]", 9e-16, 1.1e-15),
    ]
    assert _tool.nearest_bounds(records) == [
        ("inverse[lam=1]", 9e-16, 1.1e-15),
        ("inverse[lam=1e-06]", 2.58e-12, 1.8e-12),
        ("reach_fixed.csv v2", 6.6e-15, 1e-14),
        ("reach_raw.csv v0", 1e-19, 1e-19),
        ("zeros.csv v0", 0.0, 0.0),
    ]
    moved = [("zeros.csv v0", 1e-20, 0.0), ("zeros.csv v1", 5e-15, 1e-14)]
    assert _tool.nearest_bounds(moved) == [("zeros.csv v0", 1e-20, 0.0)]
