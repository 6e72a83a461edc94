"""Print how far the golden outputs move under other OpenBLAS kernels.

numpy's OpenBLAS picks its kernels for the CPU at load time, and
``OPENBLAS_CORETYPE`` makes it load another CPU's kernels on the same
machine. For each kernel of ``KERNELS`` (``native`` leaves the choice to
OpenBLAS) and each ``OPENBLAS_NUM_THREADS`` of ``THREADS``, this runs
the tests that carry a round-off bound, ``ROUND_OFF_TESTS``, once in a
pytest subprocess, and builds three tables from that run's short
summary and JUnit XML, where the tests record what they measure
(``record_golden`` and ``record_round_off`` in ``tests/conftest.py``).
First, per golden output and run, ``=`` when its text is the committed
one's, the largest change of a cell when only numbers moved, or
``differs`` when anything else did (metadata, header, row count, a
choice column, a line of text), and ``?`` when the run recorded no
state, as when its test failed before it could. Columns of wall time
are left out. The golden tests rerun each output from the committed
inputs, so an output moves only by its own arithmetic: ``compare``'s
table does not move with the ``reach_fixed.csv`` it reads. Second, per
run, the ids of the tests that fail. Last, each round-off bound beside
the largest value measured against it over every run: per golden file
the column that comes nearest its bound, and each bound of the inverse.
Run from the repository root:

    python tools/blas_matrix.py

The eight pytest runs take about 30 s in all on a 2-vCPU x86 VM.
"""

import math
import os
import pathlib
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ET

ROOT = pathlib.Path(__file__).resolve().parent.parent
KERNELS = ("native", "Haswell", "Sandybridge", "Prescott")
THREADS = (1, 2)
ROUND_OFF_TESTS = (
    "tests/test_golden.py",
    "tests/test_embedding.py::test_invert_matches_a_cholesky_inverse",
)


def failed_tests(output):
    """The ids of the tests that fail or err in pytest's ``output``.

    They are read from its short test summary, the text after the last
    ``short test summary info`` line (all of ``output`` if it has none):
    each ``FAILED`` or ``ERROR`` line gives one id, the text before its
    `` - `` reason.
    """
    ids = []
    for line in output.rpartition("short test summary info")[2].splitlines():
        head, _, rest = line.partition(" ")
        if head in ("FAILED", "ERROR") and rest:
            ids.append(rest.split(" - ", 1)[0])
    return ids


def _properties(report, name):
    # the values of the properties called name in a JUnit XML report
    return [
        prop.get("value")
        for prop in ET.fromstring(report).iter("property")
        if prop.get("name") == name
    ]


def round_off_records(report):
    """The ``(label, measured, bound)`` of each ``round-off`` property
    in the text of pytest's JUnit XML ``report``."""
    records = []
    for value in _properties(report, "round-off"):
        label, measured, bound = value.rsplit(" ", 2)
        records.append((label, float(measured), float(bound)))
    return records


def golden_cells(report):
    """Golden output -> its byte-table cell, from each ``golden`` property
    in the text of pytest's JUnit XML ``report``: ``=`` for ``same``, the
    largest change to 3 digits for ``moved LARGEST``, else ``differs``."""
    cells = {}
    for value in _properties(report, "golden"):
        name, state = value.split(" ", 1)
        if state == "same":
            cells[name] = "="
        elif state.startswith("moved "):
            cells[name] = f"{float(state.split()[1]):.3g}"
        else:
            cells[name] = "differs"
    return cells


def _share(measured, bound):
    # how much of its bound a value takes; a bound of 0 allows only 0
    if bound > 0.0:
        return measured / bound
    return math.inf if measured > 0.0 else 0.0


def nearest_bounds(records):
    """Per group of ``records``, the label that comes nearest its bound.

    A label's group is its first word: the golden file of a ``"FILE
    COLUMN"`` label. Each label's largest measured value is taken over
    all its records, and each group gives the row ``(label, largest,
    bound)`` of its label whose largest value takes the largest share of
    its bound. The rows are sorted by group.
    """
    largest = {}
    for label, measured, bound in records:
        if label not in largest or measured > largest[label][0]:
            largest[label] = (measured, bound)
    nearest = {}
    for label, (measured, bound) in sorted(largest.items()):
        group = label.split(" ", 1)[0]
        share = _share(measured, bound)
        if group not in nearest or share > _share(*nearest[group][1:]):
            nearest[group] = (label, measured, bound)
    return [nearest[group] for group in sorted(nearest)]


def _run(kernel, threads, argv):
    """Run ``argv`` from the root under one kernel and thread count."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    env.pop("OPENBLAS_CORETYPE", None)
    if kernel != "native":
        env["OPENBLAS_CORETYPE"] = kernel
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True
    )


def _round_off_tests(kernel, threads):
    """The round-off tests under one kernel and thread count: one line on
    the tests that fail, the values they recorded and the golden cells."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    env.pop("OPENBLAS_CORETYPE", None)
    if kernel != "native":
        env["OPENBLAS_CORETYPE"] = kernel
    with tempfile.TemporaryDirectory() as tmp:
        report = pathlib.Path(tmp) / "report.xml"
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             f"--junitxml={report}", *ROUND_OFF_TESTS],
            cwd=ROOT, env=env, capture_output=True, text=True,
        )
        if done.returncode not in (0, 1):
            return f"pytest exited {done.returncode}", [], {}
        text = report.read_text(encoding="utf-8")
    line = " ".join(failed_tests(done.stdout)) or "all passed"
    return line, round_off_records(text), golden_cells(text)


def _print_columns(rows):
    widths = [max(len(row[j]) for row in rows) for j in range(len(rows[0]))]
    for row in rows:
        print("  ".join(
            cell.ljust(w) if j == 0 else cell.rjust(w)
            for j, (cell, w) in enumerate(zip(row, widths))
        ))


def main():
    heads, columns, failures, records = [], [], [], []
    for kernel in KERNELS:
        for threads in THREADS:
            heads.append(f"{kernel}/{threads}")
            line, recorded, cells = _round_off_tests(kernel, threads)
            failures.append(line)
            records.extend(recorded)
            columns.append(cells)
    names = sorted(set().union(*columns))
    _print_columns([["file", *heads]] + [
        [name, *(column.get(name, "?") for column in columns)] for name in names
    ])
    print("\nfailing round-off tests:")
    width = max(len(head) for head in heads)
    for head, line in zip(heads, failures):
        print(f"{head.ljust(width)}  {line}")
    print("\nlargest value against each bound, over every run:")
    _print_columns([["value", "largest", "bound"]] + [
        [label, f"{measured:.3g}", f"{bound:.3g}"]
        for label, measured, bound in nearest_bounds(records)
    ])
    return 0


if __name__ == "__main__":
    sys.exit(main())
