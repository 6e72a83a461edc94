"""CSV round-trips, header contracts, and failure diagnostics."""

import os
import threading
import tracemalloc

import numpy as np
import pytest

from rkhs_reach import FileFormatError, InputError, TransitionSample, ValueField
from rkhs_reach.io import (
    atomic_write_text,
    read_transitions_csv,
    read_value_table,
    read_values_csv,
    write_mc_csv,
    write_table,
    write_transitions_csv,
    write_values_csv,
)


def awkward_floats(rng, shape):
    out = rng.standard_normal(shape)
    flat = out.ravel()
    specials = [0.1, 1.0 / 3.0, np.pi, 1e-300, -1e300, 5e-324, -0.0]
    flat[: len(specials)] = specials
    return out


def test_transitions_round_trip_is_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    sample = TransitionSample(
        states=awkward_floats(rng, (50, 3)),
        controls=awkward_floats(rng, (50, 2)),
        successors=awkward_floats(rng, (50, 3)),
        metadata={"system": "integrator", "seed": "17", "note": "a b c"},
    )
    path = tmp_path / "sample.csv"
    write_transitions_csv(path, sample)
    back = read_transitions_csv(path)
    np.testing.assert_array_equal(back.states, sample.states)
    np.testing.assert_array_equal(back.controls, sample.controls)
    np.testing.assert_array_equal(back.successors, sample.successors)
    assert back.metadata == sample.metadata


def test_file_shape_and_line_endings(tmp_path):
    sample = TransitionSample(
        states=np.zeros((2, 2)),
        controls=np.zeros((2, 1)),
        successors=np.zeros((2, 2)),
        metadata={"seed": "0"},
    )
    path = tmp_path / "sample.csv"
    write_transitions_csv(path, sample)
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    lines = raw.decode("utf-8").splitlines()
    assert lines[0] == "# seed=0"
    assert lines[1] == "x1,x2,u1,y1,y2"
    assert len(lines) == 4


def test_values_round_trip_with_choices(tmp_path):
    rng = np.random.default_rng(1)
    field = ValueField(
        points=awkward_floats(rng, (20, 2)),
        values=rng.uniform(size=(4, 20)),
        policy_choices=rng.integers(0, 5, size=(3, 20)),
    )
    path = tmp_path / "values.csv"
    write_values_csv(path, field, metadata={"horizon": "3"})
    back, metadata = read_values_csv(path)
    np.testing.assert_array_equal(back.points, field.points)
    np.testing.assert_array_equal(back.values, field.values)
    np.testing.assert_array_equal(back.policy_choices, field.policy_choices)
    assert back.policy_choices.dtype == np.int64
    assert metadata == {"horizon": "3"}
    header = path.read_text().splitlines()[1]
    assert header == "x1,x2,v0,v1,v2,v3,choice0,choice1,choice2"


def test_values_round_trip_without_choices(tmp_path):
    field = ValueField(
        points=np.array([[0.5, -0.5]]), values=np.array([[0.25], [1.0]])
    )
    path = tmp_path / "values.csv"
    write_values_csv(path, field)
    back, metadata = read_values_csv(path)
    np.testing.assert_array_equal(back.values, field.values)
    assert back.policy_choices is None
    assert metadata == {}


def test_mc_table_and_generic_reader(tmp_path):
    points = np.array([[0.0, 1.0], [2.0, 3.0]])
    values = np.array([0.125, 0.5])
    hw = np.array([0.01, 0.02])
    path = tmp_path / "mc.csv"
    write_mc_csv(path, points, values, hw, metadata={"rollouts": "100"})
    assert path.read_text().splitlines()[1] == "x1,x2,value,halfwidth"
    pts, vals, metadata = read_value_table(path)
    np.testing.assert_array_equal(pts, points)
    np.testing.assert_array_equal(vals, values)
    assert metadata["rollouts"] == "100"

    vpath = tmp_path / "values.csv"
    field = ValueField(points=points, values=np.array([[0.7, 0.8], [1.0, 1.0]]))
    write_values_csv(vpath, field)
    _, vals, _ = read_value_table(vpath)
    np.testing.assert_array_equal(vals, [0.7, 0.8])


def test_parse_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"

    path.write_text("x1,u1,y1\n0.0,0.0,zap\n")
    with pytest.raises(FileFormatError, match="bad.csv:2"):
        read_transitions_csv(path)

    # numpy parses the cells; the line is the file's, past metadata and
    # blank lines, and numpy's own count of data rows is left out
    path.write_text("# a=1\n\nx1,u1,y1\n\n0.0,0.0,0.0\n\n0.0,zap,0.0\n")
    with pytest.raises(FileFormatError) as info:
        read_transitions_csv(path)
    assert str(info.value) == f"{path}:7: could not convert string 'zap' to float64"

    path.write_text("x1,u1,y1\n" + "0,0,0\n" * 60_000 + "0,0,zap\n")
    with pytest.raises(FileFormatError, match="bad.csv:60002: "):
        read_transitions_csv(path)

    # a trailing comment is a cell that does not parse
    path.write_text("x1,u1,y1\n1,2,3 # c\n")
    with pytest.raises(FileFormatError, match="bad.csv:2: "):
        read_transitions_csv(path)

    path.write_text("x1,u1,y1\n0.0,0.0\n")
    with pytest.raises(FileFormatError, match="expected 3 cells, got 2"):
        read_transitions_csv(path)

    path.write_text("x1,u1,y1\n0.0,0.0,0.0\n# late comment\n")
    with pytest.raises(FileFormatError, match="comment after the header"):
        read_transitions_csv(path)

    path.write_text("x1,,y1\n")
    with pytest.raises(FileFormatError, match="empty column name"):
        read_transitions_csv(path)

    path.write_text("")
    with pytest.raises(FileFormatError, match="no header"):
        read_transitions_csv(path)

    path.write_text("x1,u1,y1\n")
    with pytest.raises(FileFormatError, match="no data rows"):
        read_transitions_csv(path)

    with pytest.raises(FileFormatError, match="cannot read"):
        read_transitions_csv(tmp_path / "missing.csv")


def test_a_byte_that_is_not_utf8_is_reported_at_the_readers_line(tmp_path):
    # lines end at \n, \r\n and a lone \r, as the reader counts them; a
    # valid multibyte character before the bad byte moves no line, and a
    # sequence cut short at the end of the file is found too
    path = tmp_path / "bad.csv"
    head = b"# a=\xc3\xa9\nx1,u1,y1\r\n0,0,0\r0,0,0\n"
    for tail, line, byte in (
        (b"0,0,\xff\n", 5, "0xff"),
        (b"0,0,0\r\r0,0,\xe2\x82\n", 7, "0xe2"),
        (b"0,0,\xe2\x82", 5, "0xe2"),
    ):
        path.write_bytes(head + tail)
        with pytest.raises(FileFormatError) as info:
            read_transitions_csv(path)
        assert str(info.value).startswith(
            f"cannot read {path}:{line}: 'utf-8' codec can't decode byte {byte}: "
        ), str(info.value)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_byte_that_is_not_utf8_in_a_pipe_is_reported_at_its_line():
    # a pipe can be read only once, so the line is counted on the way
    data = b"x1,u1,y1\n" + b"0,0,0\n" * 20000 + b"0,0,\xff\n"
    read_end, write_end = os.pipe()
    writer = threading.Thread(target=lambda: os.fdopen(write_end, "wb").write(data))
    writer.start()
    try:
        with pytest.raises(FileFormatError) as info:
            read_transitions_csv(f"/dev/fd/{read_end}")
    finally:
        writer.join()
        os.close(read_end)
    assert str(info.value).startswith(
        f"cannot read /dev/fd/{read_end}:20002: 'utf-8' codec can't decode byte 0xff: "
    ), str(info.value)


def test_transitions_header_contract(tmp_path):
    path = tmp_path / "bad.csv"

    path.write_text("u1,x1,y1\n0.0,0.0,0.0\n")
    with pytest.raises(FileFormatError, match="start with x1"):
        read_transitions_csv(path)

    # successor block must mirror the state block exactly
    path.write_text("x1,x2,u1,y1\n0.0,0.0,0.0,0.0\n")
    with pytest.raises(FileFormatError, match="header must be"):
        read_transitions_csv(path)

    path.write_text("x1,u1,y1,extra\n0.0,0.0,0.0,0.0\n")
    with pytest.raises(FileFormatError, match="header must be"):
        read_transitions_csv(path)

    # the expected header names a control range only when there is one
    path.write_text("x1,x2,u1,y1\n0.0,0.0,0.0,0.0\n")
    with pytest.raises(FileFormatError, match=r"must be x1\.\.x2,u1\.\.u1,y1"):
        read_transitions_csv(path)
    path.write_text("x1,x2\n0.0,0.0\n")
    with pytest.raises(FileFormatError) as info:
        read_transitions_csv(path)
    assert str(info.value).endswith(": header must be x1..x2,y1..y2, got x1,x2")

    # control-free samples are legitimate
    path.write_text("x1,y1\n0.5,0.25\n")
    sample = read_transitions_csv(path)
    assert sample.control_dim == 0
    assert sample.states[0, 0] == 0.5


def test_values_header_contract(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("x1,v0,bogus\n0.0,0.0,0.0\n")
    with pytest.raises(FileFormatError, match="trailing columns"):
        read_values_csv(path)
    path.write_text("x1,value\n0.0,0.5\n")
    with pytest.raises(FileFormatError, match="no v0"):
        read_values_csv(path)
    with pytest.raises(FileFormatError, match="no v0 or value"):
        path.write_text("x1,prob\n0.0,0.5\n")
        read_value_table(path)


def test_value_table_rejects_non_finite_cells(tmp_path):
    # a NaN or infinite cell would turn compare's error statistics into
    # nan; the reader names the file, the row and the column instead
    path = tmp_path / "values.csv"
    for table, where in (
        ("x1,x2,v0\n0.0,0.0,0.5\n0.1,0.0,nan\n", "row 2, column v0"),
        ("x1,x2,value,halfwidth\n0.0,inf,0.5,0.01\n", "row 1, column x2"),
        ("x1,v0,v1\n0.0,0.5,-inf\n", "row 1, column v1"),
    ):
        path.write_text(table)
        with pytest.raises(FileFormatError) as info:
            read_value_table(path)
        message = str(info.value)
        assert str(path) in message and where in message and "finite" in message


def test_metadata_must_be_single_line(tmp_path):
    field = ValueField(points=np.zeros((1, 1)), values=np.zeros((1, 1)))
    with pytest.raises(InputError, match="single-line"):
        write_values_csv(tmp_path / "x.csv", field, metadata={"k": "a\nb"})


def test_writes_leave_no_temporary_residue(tmp_path):
    path = tmp_path / "out.csv"
    atomic_write_text(path, "x1\n0.0\n")
    write_table(tmp_path / "t.csv", ["a", "b"], [[1.5, 2]], int_columns=(1,))
    assert sorted(os.listdir(tmp_path)) == ["out.csv", "t.csv"]


@pytest.mark.parametrize("umask", [0o022, 0o077])
def test_new_file_mode_follows_the_umask(tmp_path, umask):
    old = os.umask(umask)
    try:
        atomic_write_text(tmp_path / "out.csv", "x1\n0.0\n")
        assert os.umask(umask) == umask  # the write restored it
    finally:
        os.umask(old)
    assert os.stat(tmp_path / "out.csv").st_mode & 0o7777 == 0o666 & ~umask


def test_overwrite_keeps_the_existing_mode(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old\n")
    for mode in (0o640, 0o604):
        os.chmod(path, mode)
        write_table(path, ["a"], [[1.0]])
        assert os.stat(path).st_mode & 0o7777 == mode
        assert path.read_text() == "a\n1\n"


def test_values_choice_columns_are_one_integer_per_step(tmp_path):
    path = tmp_path / "values.csv"
    for table, message in (
        # three choice columns for one step
        ("x1,v0,v1,choice0,choice1,choice2\n0.0,0.5,1,1,0,0\n", "trailing"),
        ("x1,v0,v1,v2,choice0\n0.0,0.5,0.5,1,1\n", "trailing"),
        ("x1,v0,v1,choice1\n0.0,0.5,1,0\n", "trailing"),
        ("x1,v0,v1,choice0\n0.0,0.5,1,1.5\n", "row 1, column choice0 is 1.5"),
        ("x1,v0,v1,choice0\n0.0,0.5,1,0\n0.1,0.5,1,-2\n", "row 2"),
        ("x1,v0,v1,v2,choice0,choice1\n0.0,0.5,1,1,0,nan\n", "choice1 is nan"),
        ("x1,v0,v1,choice0\n0.0,0.5,1,1e300\n", "non-negative integer"),
    ):
        path.write_text(table)
        with pytest.raises(FileFormatError, match=message):
            read_values_csv(path)
    path.write_text("x1,v0,v1,v2,choice0,choice1\n0.0,0.5,1,1,2,0\n")
    field, _ = read_values_csv(path)
    np.testing.assert_array_equal(field.policy_choices, [[2], [0]])


def test_write_table_int_columns_render_without_decimals(tmp_path):
    path = tmp_path / "t.csv"
    write_table(path, ["value", "count"], [[0.5, 3.0]], int_columns=(1,))
    assert path.read_text().splitlines()[1] == "0.5,3"


def test_generic_reader_skips_blank_lines(tmp_path):
    path = tmp_path / "v.csv"
    path.write_text("# a=1\n\nx1,v0\n\n0.5,0.25\n\n")
    pts, vals, metadata = read_value_table(path)
    np.testing.assert_array_equal(pts, [[0.5]])
    np.testing.assert_array_equal(vals, [0.25])
    assert metadata == {"a": "1"}


def per_cell_render(names, rows, metadata=None, int_columns=()):
    # the writer's earlier per-cell loop, kept as the byte reference
    lines = [f"# {key}={value}" for key, value in (metadata or {}).items()]
    lines.append(",".join(names))
    for row in rows:
        lines.append(",".join(
            str(int(v)) if i in int_columns else format(float(v), ".17g")
            for i, v in enumerate(row)
        ))
    return "\n".join(lines) + "\n"


EDGE_FLOATS = [
    -0.0, 5e-324, 2.2250738585072014e-308, 1e308, 0.1, 1.0 / 3.0,
    float(2**53 + 1), -1e308, 1.0, -2.5, 123456789.0, 1e-7,
]
EDGE_INTS = [0, 2, 10_000]


def test_table_bytes_match_per_cell_formatting(tmp_path):
    rows = np.array([
        [v, EDGE_INTS[i % 3], EDGE_FLOATS[-1 - i]]
        for i, v in enumerate(EDGE_FLOATS)
    ])
    names = ["value", "n", "other"]
    path = tmp_path / "t.csv"
    write_table(path, names, rows, metadata={"seed": "3"}, int_columns=(1,))
    assert path.read_text() == per_cell_render(
        names, rows, {"seed": "3"}, int_columns=(1,)
    )
    # rows given as a list of tuples, as bench-dims passes them
    listed = [(10_000.0, 0.25, 1.0 / 3.0), (2.0, -0.0, 5e-324)]
    write_table(path, ["n", "seconds", "value"], listed, int_columns=(0,))
    assert path.read_text() == per_cell_render(
        ["n", "seconds", "value"], listed, int_columns=(0,)
    )


def test_value_and_sample_bytes_match_per_cell_formatting(tmp_path):
    rng = np.random.default_rng(5)
    points = awkward_floats(rng, (12, 2))
    points[:4, 1] = EDGE_FLOATS[6:10]
    values = rng.uniform(size=(3, 12))
    values[0, :3] = [-0.0, 5e-324, 2.2250738585072014e-308]
    choices = np.array([EDGE_INTS * 4, [1] * 12])
    field = ValueField(points=points, values=values, policy_choices=choices)
    path = tmp_path / "v.csv"
    write_values_csv(path, field, metadata={"mode": "max"})
    names = ["x1", "x2", "v0", "v1", "v2", "choice0", "choice1"]
    rows = np.hstack([points, values.T, choices.T])
    assert path.read_text() == per_cell_render(
        names, rows, {"mode": "max"}, int_columns=(5, 6)
    )
    sample = TransitionSample(
        states=points, controls=values[:1].T, successors=points[::-1]
    )
    write_transitions_csv(path, sample)
    rows = np.hstack([points, values[:1].T, points[::-1]])
    assert path.read_text() == per_cell_render(
        ["x1", "x2", "u1", "y1", "y2"], rows
    )


@pytest.mark.parametrize("count", [0, 1, 1023, 1024, 1025, 1559, 1560, 1561, 10_201])
def test_row_blocks_match_per_cell_formatting(tmp_path, count):
    # counts around 1024 rows and around the writer's block of 1560 rows
    # of 7 cells (block_rows(7, itemsize=24)), and the 101x101 grid
    rng = np.random.default_rng(count)
    points = rng.standard_normal((count, 2))
    values = rng.uniform(size=(3, count))
    flat = values.ravel()
    specials = EDGE_FLOATS[: flat.size]
    flat[: len(specials)] = specials
    choices = rng.integers(0, 10_000, size=(2, count))
    field = ValueField(points=points, values=values, policy_choices=choices)
    path = tmp_path / "v.csv"
    write_values_csv(path, field, metadata={"mode": "max", "seed": "3"})
    names = ["x1", "x2", "v0", "v1", "v2", "choice0", "choice1"]
    rows = np.hstack([points, values.T, choices.T])
    assert path.read_text() == per_cell_render(
        names, rows, {"mode": "max", "seed": "3"}, int_columns=(5, 6)
    )
    write_table(path, ["n", "value"], rows[:, [5, 2]], {"k": "v"}, int_columns=(0,))
    assert path.read_text() == per_cell_render(
        ["n", "value"], rows[:, [5, 2]], {"k": "v"}, int_columns=(0,)
    )


@pytest.mark.parametrize("shape", [(2000, 17), (3, 16_385)])
def test_cell_blocks_match_per_cell_formatting(tmp_path, shape):
    # a block holds about 10 922 cells: 642 rows of 17 cells, and one
    # row where a row holds more
    rows = np.random.default_rng(shape[1]).standard_normal(shape)
    names = [f"c{i}" for i in range(shape[1])]
    path = tmp_path / "t.csv"
    write_table(path, names, rows)
    assert path.read_text() == per_cell_render(names, rows)


def test_a_wide_sample_is_written_in_blocks_of_cells(tmp_path):
    # 64 rows of 10 001 cells: a block of 1024 rows would be the text of
    # the whole table, several times the arrays' 5 MB
    rng = np.random.default_rng(0)
    sample = TransitionSample(
        states=rng.standard_normal((64, 5000)),
        controls=np.zeros((64, 1)),
        successors=rng.standard_normal((64, 5000)),
    )
    arrays = sample.states.nbytes + sample.controls.nbytes + sample.successors.nbytes
    tracemalloc.start()
    try:
        write_transitions_csv(tmp_path / "s.csv", sample)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * arrays, peak / arrays


def test_a_wide_sample_is_read_in_bounded_memory(tmp_path):
    # the reader's mirror of the writer's test: numpy parses one line at
    # a time into the array, where a list of Python floats per cell and
    # the file's whole text took 7.9 times the arrays
    rng = np.random.default_rng(0)
    sample = TransitionSample(
        states=rng.standard_normal((64, 5000)),
        controls=np.zeros((64, 1)),
        successors=rng.standard_normal((64, 5000)),
    )
    arrays = sample.states.nbytes + sample.controls.nbytes + sample.successors.nbytes
    write_transitions_csv(tmp_path / "s.csv", sample)
    tracemalloc.start()
    try:
        read = read_transitions_csv(tmp_path / "s.csv")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(read.successors, sample.successors)
    assert peak < 2 * arrays, peak / arrays


def test_a_row_that_fails_to_format_leaves_no_file(tmp_path):
    # the failing row sits in the third block, after two were written
    rows = np.zeros((3000, 2))
    rows[2500, 1] = np.nan
    with pytest.raises(ValueError):
        write_table(tmp_path / "t.csv", ["a", "n"], rows, int_columns=(1,))
    assert os.listdir(tmp_path) == []


def test_write_table_rejects_rows_of_another_width(tmp_path):
    path = tmp_path / "t.csv"
    with pytest.raises(InputError, match="2 columns"):
        write_table(path, ["x1", "v0"], [[1, 2, 3]])
    with pytest.raises(InputError):
        write_table(path, ["x1", "v0"], [[1, 2], [1, 2, 3]])
    assert not path.exists()
    write_table(path, ["x1", "v0"], [])  # no rows: a header-only table
    assert path.read_text() == "x1,v0\n"
