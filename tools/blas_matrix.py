"""Print how far the golden outputs move under other OpenBLAS kernels.

numpy's OpenBLAS picks its kernels for the CPU at load time, and
``OPENBLAS_CORETYPE`` makes it load another CPU's kernels on the same
machine. For each kernel of ``KERNELS`` (``native`` leaves the choice to
OpenBLAS) and each ``OPENBLAS_NUM_THREADS`` of ``THREADS``, this reruns
``tests/data/golden/regenerate.py OUT_DIR`` in a subprocess and prints
one table: per golden file and run, ``=`` when the file's text is the
committed one's, the largest change of a cell when only numbers moved,
or ``differs`` when anything else did (metadata, header, row count, a
line of text). Columns of wall time are left out, as the golden tests
leave them out. Then it reruns the tests that carry a round-off bound,
``ROUND_OFF_TESTS``, under the same kernels and thread counts, and
prints per run the ids of the tests that fail. Run from the repository
root:

    python tools/blas_matrix.py

The eight golden runs take about 2 s in all on a 2-vCPU x86 VM, and
the eight test runs about 3 s each.
"""

import importlib.util
import math
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden"
REGENERATE = GOLDEN / "regenerate.py"
KERNELS = ("native", "Haswell", "Sandybridge", "Prescott")
THREADS = (1, 2)
ROUND_OFF_TESTS = (
    "tests/test_golden.py",
    "tests/test_embedding.py::test_invert_matches_a_cholesky_inverse",
)


def _load_regenerate():
    spec = importlib.util.spec_from_file_location("golden_regenerate", REGENERATE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# the golden tests' reader of a table, wall-time columns left out
_table = _load_regenerate().table_parts


def largest_change(got, want):
    """How far the text ``got`` moved from the text ``want`` of a golden file.

    ``None`` when both hold the same text, wall-time columns left out;
    the largest absolute change of a cell when only the numbers in the
    cells moved (0.0 for a cell written another way, such as ``-0`` for
    ``0``); ``math.inf`` when anything else differs.
    """
    if got == want:
        return None
    try:
        g_meta, g_names, g_cells = _table(got)
        w_meta, w_names, w_cells = _table(want)
    except IndexError:  # a text without a header line
        return math.inf
    if (g_meta, g_names) != (w_meta, w_names) or len(g_cells) != len(w_cells):
        return math.inf
    if g_cells == w_cells:
        return None
    change = 0.0
    for g_row, w_row in zip(g_cells, w_cells):
        if len(g_row) != len(w_row):
            return math.inf
        for g, w in zip(g_row, w_row):
            try:
                gap = abs(float(g) - float(w)) if g != w else 0.0
            except ValueError:
                return math.inf
            # a NaN against a number differs by no number
            change = max(change, gap if gap == gap else math.inf)
    return change


def _cell(change):
    if change is None:
        return "="
    return "differs" if change == math.inf else f"{change:.3g}"


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


def _failures(kernel, threads):
    """One line on the round-off tests under one kernel and thread count."""
    done = _run(
        kernel, threads,
        ["-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *ROUND_OFF_TESTS],
    )
    if done.returncode not in (0, 1):
        return f"pytest exited {done.returncode}"
    return " ".join(failed_tests(done.stdout)) or "all passed"


def main():
    names = sorted(
        p.name for p in GOLDEN.iterdir() if p.is_file() and p != REGENERATE
    )
    heads, columns, failures = [], [], []
    for kernel in KERNELS:
        for threads in THREADS:
            with tempfile.TemporaryDirectory() as tmp:
                _run(kernel, threads, [str(REGENERATE), tmp]).check_returncode()
                out = pathlib.Path(tmp)
                columns.append([
                    _cell(largest_change(
                        (out / name).read_text(encoding="utf-8"),
                        (GOLDEN / name).read_text(encoding="utf-8"),
                    ))
                    for name in names
                ])
            heads.append(f"{kernel}/{threads}")
            failures.append(_failures(kernel, threads))
    rows = [["file", *heads]] + [
        [name, *(column[i] for column in columns)] for i, name in enumerate(names)
    ]
    widths = [max(len(row[j]) for row in rows) for j in range(len(rows[0]))]
    for row in rows:
        print("  ".join(
            cell.ljust(w) if j == 0 else cell.rjust(w)
            for j, (cell, w) in enumerate(zip(row, widths))
        ))
    print("\nfailing round-off tests:")
    width = max(len(head) for head in heads)
    for head, line in zip(heads, failures):
        print(f"{head.ljust(width)}  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
