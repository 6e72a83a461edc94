"""Golden outputs of every subcommand: ``generate``, ``reach`` in each
mode, both oracles, ``compare`` and ``bench-dims``, and the exit code
and stderr of failing commands, at least one per documented exit code.

Every case of ``tests/data/golden/regenerate.py`` is rerun into a
temporary directory and compared with its committed file. Metadata,
headers and choice columns must match exactly. The other columns may
differ in their last bits, since the BLAS kernel, and so a weight
product's last bit, depends on the CPU: each must match within ``ATOL``
times the smaller of 1 and its largest magnitude, so raw-mode values,
which peak at 9.2e-6 in ``v0``, are held to their own scale. Columns
of wall time are skipped. A failure reports the sha256 of both files,
and a byte change within the tolerance is reported as a warning, so it
shows on the machine that made it. The exit codes and stderr lines
must match exactly. After an intended change, rerun the script and
commit the diff.
"""

import hashlib
import importlib.util
import pathlib
import warnings

import numpy as np
import pytest

from rkhs_reach import Embedding, FileFormatError, InputError, NumericalError

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden"
ATOL = 1e-14


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
    return regenerate.table_parts(path.read_text(encoding="utf-8"))


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
    names = [name for name, keep in zip(w_names, ~exact) if keep]
    g_vals, w_vals = g_rows[:, ~exact], w_rows[:, ~exact]
    # each column within ATOL of its own scale, never looser than ATOL
    bounds = ATOL * np.minimum(1.0, np.abs(w_vals).max(axis=0, initial=0.0))
    gaps = np.abs(g_vals - w_vals).max(axis=0, initial=0.0)
    for name, gap, bound in zip(names, gaps, bounds):
        assert gap <= bound, (
            f"{want.name}: column {name} differs by {gap:.3g}, "
            f"bound {bound:.3g}; {shas}"
        )
    if g_cells != w_cells:
        # within tolerance, but shown: one ulp of the kernel's gamma moves
        # normalized values by about 3e-15
        gap = gaps.max(initial=0.0)
        warnings.warn(f"{want.name}: bytes differ by up to {gap:.3g}; {shas}")


def test_regenerate_into_another_directory_leaves_the_committed_set(tmp_path):
    # every golden file is written to the given directory, the committed
    # points input copied along, and no committed file is touched
    def committed():
        return {p.name: p.read_bytes() for p in GOLDEN.iterdir() if p.is_file()}

    before = committed()
    assert regenerate.main([tmp_path]) == 0
    assert {p.name for p in tmp_path.iterdir()} == set(before) - {"regenerate.py"}
    assert committed() == before


def test_generate_inputs_match(tmp_path):
    regenerate.write_inputs(tmp_path)
    for name in (regenerate.ZERO_SAMPLE, regenerate.UNIFORM_SAMPLE,
                 regenerate.REPEATED_SAMPLE, regenerate.OVERFLOW_SAMPLE):
        _assert_matches(tmp_path / name, GOLDEN / name)


@pytest.mark.parametrize("name", sorted(regenerate.REACH_CASES))
def test_reach_matches(tmp_path, name):
    regenerate.write_reach(name, GOLDEN, tmp_path)
    _assert_matches(tmp_path / name, GOLDEN / name)


@pytest.mark.parametrize("name", ["reach_raw_fixed.csv", "reach_raw_max.csv"])
def test_raw_columns_are_held_to_their_own_scale(tmp_path, monkeypatch, name):
    # raw values peak at 9.2e-6 (v0) to 0.027 (v2): weights 1e-13 too
    # large move them by at most 2.7e-15, within an absolute 1e-14, but
    # by 10 to 30 times their own columns' bounds
    weights = Embedding.weights
    monkeypatch.setattr(
        Embedding, "weights", lambda *args, **kw: weights(*args, **kw) * (1.0 + 1e-13)
    )
    regenerate.write_reach(name, GOLDEN, tmp_path)
    with pytest.raises(AssertionError, match="column v0 differs"):
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


def test_error_classes_carry_the_pinned_exit_codes():
    # the CLI exits with the code and prefixes stderr with the label of
    # the error's class; each golden exit file pins one pair
    classes = (InputError, NumericalError, FileFormatError)
    assert [cls.exit_code for cls in classes] == [2, 3, 4]
    labels = {f"exit {cls.exit_code}": cls.label for cls in classes}
    for name in regenerate.error_cases(GOLDEN):
        status, stderr = (GOLDEN / name).read_text().split("\n")[:2]
        assert stderr.startswith(f"{labels[status]}: "), name
