"""Golden outputs of every subcommand: ``generate``, ``reach`` in each
mode, both oracles, ``compare`` and ``bench-dims``, and the exit code
and stderr of one failing command per documented exit code.

Every case of ``tests/data/golden/regenerate.py`` is rerun into a
temporary directory and compared with its committed file. Metadata,
headers and choice columns must match exactly. The other cells must
match within ``ATOL``: the BLAS kernel, and so a weight product's last
bit, depends on the CPU. Columns of wall time are skipped. A failure
reports the sha256 of both files, and a byte change within the
tolerance is reported as a warning, so it shows on the machine that
made it. The exit codes and stderr lines must match exactly. After an
intended change, rerun the script and commit the diff.
"""

import hashlib
import importlib.util
import pathlib
import warnings

import numpy as np
import pytest

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden"
ATOL = 1e-14
# columns of wall time, which no rerun repeats
WALL_TIME = ("seconds",)


def _load_script():
    spec = importlib.util.spec_from_file_location(
        "golden_regenerate", GOLDEN / "regenerate.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


regenerate = _load_script()


def _parts(path):
    """Metadata lines, header and cells of a package CSV, without wall time."""
    lines = path.read_text(encoding="utf-8").splitlines()
    meta = [line for line in lines if line.startswith("#")]
    body = [line.split(",") for line in lines if not line.startswith("#")]
    keep = [i for i, name in enumerate(body[0]) if name not in WALL_TIME]
    cells = [[row[i] for i in keep] for row in body]
    return meta, cells[0], cells[1:]


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _assert_matches(got, want):
    shas = f"sha256 golden {_sha256(want)}, rerun {_sha256(got)}"
    g_meta, g_names, g_cells = _parts(got)
    w_meta, w_names, w_cells = _parts(want)
    assert g_meta == w_meta, f"{want.name}: metadata differs; {shas}"
    assert g_names == w_names, f"{want.name}: header differs; {shas}"
    assert len(g_cells) == len(w_cells), f"{want.name}: row count differs; {shas}"
    g_rows = np.array(g_cells, dtype=np.float64)
    w_rows = np.array(w_cells, dtype=np.float64)
    exact = np.array([name.startswith("choice") for name in w_names])
    assert np.array_equal(g_rows[:, exact], w_rows[:, exact]), (
        f"{want.name}: choice columns differ; {shas}"
    )
    gap = np.abs(g_rows[:, ~exact] - w_rows[:, ~exact]).max(initial=0.0)
    assert gap <= ATOL, f"{want.name}: values differ by {gap:.3g}; {shas}"
    if g_cells != w_cells:
        # within tolerance, but shown: one ulp of the kernel's gamma moves
        # values by about 3e-15
        warnings.warn(f"{want.name}: bytes differ by up to {gap:.3g}; {shas}")


def test_generate_inputs_match(tmp_path):
    regenerate.write_inputs(tmp_path)
    for name in (regenerate.ZERO_SAMPLE, regenerate.UNIFORM_SAMPLE,
                 regenerate.REPEATED_SAMPLE):
        _assert_matches(tmp_path / name, GOLDEN / name)


@pytest.mark.parametrize("name", sorted(regenerate.REACH_CASES))
def test_reach_matches(tmp_path, name):
    regenerate.write_reach(name, GOLDEN, tmp_path)
    _assert_matches(tmp_path / name, GOLDEN / name)


@pytest.mark.parametrize("name", sorted(regenerate.cli_cases(GOLDEN)))
def test_cli_matches(tmp_path, name):
    regenerate.write_cli(name, GOLDEN, tmp_path)
    _assert_matches(tmp_path / name, GOLDEN / name)
    if name == "compare_fixed_dp.csv":
        stdout = regenerate.COMPARE_STDOUT
        assert (tmp_path / stdout).read_text() == (GOLDEN / stdout).read_text()


@pytest.mark.parametrize("name", sorted(regenerate.error_cases(GOLDEN)))
def test_exit_code_and_stderr_match(tmp_path, name):
    regenerate.write_error(name, GOLDEN, tmp_path)
    assert (tmp_path / name).read_text() == (GOLDEN / name).read_text()


def test_every_documented_exit_code_is_pinned():
    # errors.py and the README document exit codes 2, 3 and 4
    names = regenerate.error_cases(GOLDEN)
    codes = {(GOLDEN / name).read_text().split("\n")[0] for name in names}
    assert codes == {"exit 2", "exit 3", "exit 4"}
