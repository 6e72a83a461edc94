"""``tools/blas_matrix.py`` reads the failing tests from pytest's summary, and
the golden files' states and the round-off values from its JUnit report."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "blas_matrix.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("blas_matrix", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_tool = _load_tool()
failed_tests = _tool.failed_tests


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


def test_golden_cells_are_read_from_the_junit_report():
    report = (
        '<?xml version="1.0" encoding="utf-8"?><testsuites><testsuite>'
        '<testcase name="test_a"><properties>'
        '<property name="golden" value="integrator_128.csv same" />'
        '<property name="round-off" value="integrator_128.csv u1 0.0 0.0" />'
        '<property name="golden" value="uniform_controls_128.csv moved 0.0" />'
        '</properties></testcase>'
        '<testcase name="test_b"><properties>'
        '<property name="golden" value="reach_fixed.csv moved 6.550315845288424e-15" />'
        '</properties><failure message="m">text</failure></testcase>'
        '<testcase name="test_c"><properties>'
        '<property name="golden" value="exit_2_configuration.txt differs" />'
        "</properties></testcase><testcase name=\"test_d\" />"
        "</testsuite></testsuites>"
    )
    assert _tool.golden_cells(report) == {
        "integrator_128.csv": "=",
        "uniform_controls_128.csv": "0",
        "reach_fixed.csv": "6.55e-15",
        "exit_2_configuration.txt": "differs",
    }


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


def test_a_run_that_recorded_no_state_prints_no_equal_sign(monkeypatch, capsys):
    # the byte table's rows are every output any run recorded; a run that
    # recorded none for an output, as when its test erred first, reads ?
    runs = iter([
        ("all passed", [("inverse[lam=1]", 9e-16, 1.1e-15)],
         {"oracle_dp.csv": "=", "reach_fixed.csv": "="}),
        ("tests/test_golden.py::test_reach_matches[reach_fixed.csv]", [],
         {"oracle_dp.csv": "="}),
    ])
    monkeypatch.setattr(_tool, "KERNELS", ("native",))
    monkeypatch.setattr(_tool, "_round_off_tests", lambda kernel, threads: next(runs))
    assert _tool.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == [
        "file             native/1  native/2",
        "oracle_dp.csv           =         =",
        "reach_fixed.csv         =         ?",
    ]
    assert "native/2  tests/test_golden.py::test_reach_matches[reach_fixed.csv]" in lines
