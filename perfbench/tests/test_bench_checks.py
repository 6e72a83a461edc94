"""Every output check passes a good output and rejects corrupted ones."""

import numpy as np
import pytest

import checks


def grid_table(values, extra=None):
    """3x3 grid on [-1.1, 1.1]^2 with columns v0..vN (+ extra columns)."""
    axis = np.linspace(-1.1, 1.1, 3)
    g1, g2 = np.meshgrid(axis, axis, indexing="ij")
    points = np.column_stack([g1.ravel(), g2.ravel()])
    names = ["x1", "x2"] + [f"v{k}" for k in range(values.shape[1])]
    blocks = [points, values]
    if extra:
        for name, column in extra.items():
            names.append(name)
            blocks.append(np.asarray(column, dtype=float)[:, None])
    return checks.Table(names, np.hstack(blocks))


@pytest.fixture
def reference():
    rng = np.random.default_rng(0)
    values = rng.uniform(0.0, 0.9, size=(9, 4))
    values[:, 3] = 0.0
    values[4, 3] = 1.0  # target indicator: only the centre point
    return grid_table(values)


def corrupt(table, row, col, value):
    data = table.data.copy()
    data[row, table.names.index(col)] = value
    return checks.Table(table.names, data)


def shifted(table, col, delta):
    data = table.data.copy()
    data[:, table.names.index(col)] += delta
    return checks.Table(table.names, data)


def max_table(reference, bump=0.05):
    values = reference.block("v").copy()
    values[:, :3] = np.minimum(values[:, :3] + bump, 1.0)
    choices = {f"choice{k}": np.full(9, k % 3) for k in range(3)}
    return grid_table(values, choices)


def test_values_check(reference):
    assert checks.check_values(reference, reference) == []
    assert checks.check_values(corrupt(reference, 2, "v1", 1.5), reference)
    assert checks.check_values(corrupt(reference, 2, "v0", np.nan), reference)
    assert checks.check_values(corrupt(reference, 4, "v3", 0.0), reference)
    assert checks.check_values(corrupt(reference, 0, "x1", -1.0), reference)


def test_dp_check(reference):
    assert checks.check_dp(reference, reference) == []
    assert checks.check_dp(shifted(reference, "v0", 5e-13), reference) == []
    assert checks.check_dp(corrupt(reference, 3, "v1", 1.5), reference)
    off = corrupt(reference, 3, "v1", reference.column("v1")[3] + 1e-9)
    assert checks.check_dp(off, reference)


def test_max_check(reference):
    good = max_table(reference)
    assert checks.check_max(good, reference, reference, 3) == []
    assert checks.check_max(max_table(reference, bump=0.0), reference, reference, 3) == []
    assert checks.check_max(corrupt(good, 1, "v2", 1.5), reference, reference, 3)
    below = corrupt(good, 5, "v1", reference.column("v1")[5] - 1e-6)
    assert checks.check_max(below, reference, reference, 3)
    assert checks.check_max(corrupt(good, 0, "choice0", 3), reference, reference, 3)


def test_mc_check():
    points = np.array([[0.0, 0.0], [0.5, -0.5]])
    expected = np.array([0.6, 0.2])
    halfwidths = np.array([0.003, 0.002])

    def table(values):
        return checks.Table(
            ["x1", "x2", "value", "halfwidth"],
            np.column_stack([points, values, halfwidths]),
        )

    assert checks.check_mc(table(expected + 0.009), points, expected) == []
    assert checks.check_mc(table([1.5, 0.2]), points, expected)
    assert checks.check_mc(table([0.6, 0.2 + 0.011]), points, expected)
    assert checks.check_mc(table(expected), points + 0.1, expected)


def test_dims_check():
    def table(values):
        return checks.Table(
            ["n", "seconds", "value"],
            np.column_stack([[2, 10], [0.1, 0.2], values]),
        )

    assert checks.check_dims(table([0.99, 0.0]), (2, 10)) == []
    assert checks.check_dims(table([1.5, 0.0]), (2, 10))
    assert checks.check_dims(table([0.99, 0.0]), (2, 100))


def test_table_reads_cli_format(tmp_path):
    path = tmp_path / "v.csv"
    path.write_text("# mode=fixed\nx1,x2,v0,v1\n0,0.5,0.25,1\n-1,1,0,0\n")
    table = checks.Table.read(path)
    assert table.names == ["x1", "x2", "v0", "v1"]
    assert table.block("x").tolist() == [[0.0, 0.5], [-1.0, 1.0]]
    assert table.block("v").tolist() == [[0.25, 1.0], [0.0, 0.0]]


def test_interior_max_err_ignores_boundary(reference):
    edge = corrupt(reference, 0, "v0", 0.0)  # (-1.1, -1.1) is outside
    assert checks.interior_max_err(edge, reference) == 0.0
    centre = corrupt(reference, 4, "v0", reference.column("v0")[4] + 0.25)
    assert checks.interior_max_err(centre, reference) == pytest.approx(0.25)
