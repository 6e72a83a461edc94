"""CSV serialization of transition samples and value tables.

All files are UTF-8 with LF line endings. Optional metadata rides in
``# key=value`` comment lines before the header. Floats are written with
17 significant digits (``%.17g``), which round-trips IEEE double
exactly, so a write/read cycle reproduces arrays bit for bit; integer
columns are written with ``%d``. Each table builds one ``%`` template
from its column kinds, after checking once that the rows are as wide
as the header, and formats and writes blocks of rows with one ``%``
each, so the text of the whole table is never held at once. A block
has as many rows as the package's one row-block budget
(:func:`~rkhs_reach._backend.block_rows`) holds at about 24 bytes of
text a cell: 10 922 cells, and at least one row. The bytes written do
not depend on the block size.
Writes go through a temporary file in the destination directory
followed by an atomic rename. The file keeps the mode of the one it
replaces; a new file gets ``0o666`` less the umask, as ``open`` would
give it.

Reading keeps the format's own rules in Python and leaves the numbers
to numpy. The file is read one line at a time: blank lines are skipped
anywhere, ``#`` lines before the header are metadata and after it an
error, the first other line is the header, and a data line must have as
many cells as the header has names. The data lines go on to
``np.loadtxt``, which parses every cell into one float64 array, so
neither the file's text nor a Python float per cell is ever held; a
cell is a number as numpy parses it (decimal, ``nan``, ``inf``). Every
error names the file and, where it has one, the line.
"""

import itertools
import os
import stat
import tempfile

import numpy as np

from ._backend import block_rows
from .embedding import TransitionSample
from .errors import FileFormatError, InputError
from .reach import ValueField

__all__ = [
    "write_transitions_csv",
    "read_transitions_csv",
    "write_values_csv",
    "read_values_csv",
    "write_mc_csv",
    "read_value_table",
    "read_points",
    "write_table",
    "atomic_write_text",
]


def _target_mode(path):
    """Mode for a file written to ``path`` (module docstring)."""
    try:
        return stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        umask = os.umask(0)  # the only way to read it is to set it
        os.umask(umask)
        return 0o666 & ~umask


def atomic_write_text(path, text):
    """Write ``text``, a string or an iterable of strings written in turn.

    A string is an iterable of its characters, which ``writelines``
    writes as the same bytes as the whole string.
    """
    directory = os.path.dirname(os.path.abspath(path))
    mode = _target_mode(path)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".partial-", suffix=".csv")
    try:
        # mkstemp creates the file 0600
        os.fchmod(fd, mode)
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _render(names, rows, metadata=None, int_columns=()):
    """The table's text as an iterator: the header, then blocks of rows.

    Everything is checked before the iterator is returned, so a bad
    table raises before its file is opened.
    """
    lines = []
    for key in metadata or {}:
        value = str(metadata[key])
        if "\n" in value or "\n" in key:
            raise InputError("metadata entries must be single-line")
        lines.append(f"# {key}={value}")
    lines.append(",".join(names))
    try:
        rows = np.asarray(rows, dtype=np.float64)
    except ValueError as exc:
        raise InputError(f"table rows must be numbers of equal width: {exc}")
    if rows.size == 0:
        rows = rows.reshape(0, len(names))
    if rows.ndim != 2 or rows.shape[1] != len(names):
        raise InputError(
            f"table has {len(names)} columns, rows have shape {rows.shape}"
        )
    int_set = set(int_columns)
    line = ",".join(
        "%d" if i in int_set else "%.17g" for i in range(len(names))
    ) + "\n"

    step = block_rows(len(names), itemsize=24)

    def pieces():
        yield "\n".join(lines) + "\n"
        for start in range(0, rows.shape[0], step):
            block = rows[start : start + step]
            yield (line * block.shape[0]) % tuple(block.ravel().tolist())

    return pieces()


def _parse_table(path):
    """Names, float64 rows and metadata of a table (module docstring)."""
    metadata = {}
    names = []
    lineno = 0

    def data_lines(handle):
        nonlocal lineno
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if line.startswith("#") and names:
                raise FileFormatError(
                    f"{path}:{lineno}: comment after the header is not allowed"
                )
            if line.startswith("#"):
                key, eq, value = line.lstrip("#").partition("=")
                if eq:
                    metadata[key.strip()] = value.strip()
            elif line and not names:
                names.extend(c.strip() for c in line.split(","))
                if not all(names):
                    raise FileFormatError(f"{path}:{lineno}: empty column name")
            elif line:
                cells = line.count(",") + 1
                if cells != len(names):
                    raise FileFormatError(
                        f"{path}:{lineno}: expected {len(names)} cells, got {cells}"
                    )
                yield line

    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = data_lines(handle)
            # a table without data rows never reaches loadtxt, which warns
            first = next(lines, None)
            data = np.empty((0, len(names)))
            if first is not None:
                try:
                    data = np.loadtxt(
                        itertools.chain([first], lines), delimiter=",",
                        comments=None, ndmin=2,
                    )
                except ValueError as exc:
                    if isinstance(exc, UnicodeDecodeError):
                        raise
                    # loadtxt pulls one line at a time, so the bad cell is on
                    # the line yielded last; the row and column numpy names
                    # count data rows only and are dropped
                    text = str(exc).rsplit(" at row ", 1)[0]
                    raise FileFormatError(f"{path}:{lineno}: {text}")
    except OSError as exc:
        raise FileFormatError(f"cannot read {path}: {exc}")
    except UnicodeDecodeError as exc:
        # the decoder counts its position from its own chunk, which starts
        # on the line after the last one read or on that line's unread
        # part; the bad byte's line is the last of the chunk's lines up to
        # it, split as the reader splits them (a lone \r that ends the
        # chunk before is held back and missed)
        lineno += len(exc.object[: exc.start + 1].splitlines())
        raise FileFormatError(
            f"cannot read {path}:{lineno}: 'utf-8' codec can't decode byte "
            f"0x{exc.object[exc.start]:02x}: {exc.reason}"
        )
    if not names:
        raise FileFormatError(f"{path}: no header row found")
    return names, data, metadata


def _numbered_block(names, prefix, start, first=1):
    """Count how many columns continue ``prefix<first>, ...`` at start."""
    count = 0
    while start + count < len(names) and names[start + count] == (
        f"{prefix}{first + count}"
    ):
        count += 1
    return count


def _refuse_cell(path, names, cells, bad, rule):
    """Raise for the first cell of ``cells`` where ``bad`` holds."""
    hits = np.argwhere(bad)
    if hits.size:
        row, c = hits[0]
        raise FileFormatError(
            f"{path}: data row {row + 1}, column {names[c]} is {cells[row, c]}; {rule}"
        )


def _x_table(path):
    """Names, rows, metadata and ``x1..xn`` width of a table.

    The one check of the readers that raise :class:`FileFormatError`:
    the header starts with ``x1`` and the table has data rows.
    """
    names, data, metadata = _parse_table(path)
    n = _numbered_block(names, "x", 0)
    if n == 0:
        raise FileFormatError(f"{path}: header must start with x1")
    if data.shape[0] == 0:
        raise FileFormatError(f"{path}: no data rows")
    return names, data, metadata, n


def write_table(path, names, rows, metadata=None, int_columns=()):
    """Write a generic numeric table with the package CSV conventions."""
    atomic_write_text(path, _render(names, rows, metadata, int_columns))


def write_transitions_csv(path, sample):
    """Write a transition sample with header ``x1..xn,u1..um,y1..yn``."""
    n = sample.state_dim
    m = sample.control_dim
    names = (
        [f"x{i + 1}" for i in range(n)]
        + [f"u{i + 1}" for i in range(m)]
        + [f"y{i + 1}" for i in range(n)]
    )
    rows = np.hstack([sample.states, sample.controls, sample.successors])
    atomic_write_text(path, _render(names, rows, sample.metadata))


def read_transitions_csv(path):
    """Read a transition sample written by :func:`write_transitions_csv`."""
    names, data, metadata, n = _x_table(path)
    m = _numbered_block(names, "u", n)
    n_y = _numbered_block(names, "y", n + m)
    if n_y != n or n + m + n_y != len(names):
        controls = f"u1..u{m}," if m else ""
        raise FileFormatError(
            f"{path}: header must be x1..x{n},{controls}y1..y{n}, got "
            + ",".join(names)
        )
    try:
        return TransitionSample(
            states=data[:, :n],
            controls=data[:, n : n + m],
            successors=data[:, n + m :],
            metadata=metadata,
        )
    except InputError as exc:
        raise FileFormatError(f"{path}: {exc}")


def write_values_csv(path, field, metadata=None):
    """Write a ValueField as ``x1..xn,v0..vN`` plus choice columns if any."""
    n = field.points.shape[1]
    n_rows = field.values.shape[0]
    names = [f"x{i + 1}" for i in range(n)] + [f"v{k}" for k in range(n_rows)]
    blocks = [field.points, field.values.T]
    int_columns = ()
    if field.policy_choices is not None:
        names += [f"choice{k}" for k in range(field.policy_choices.shape[0])]
        blocks.append(field.policy_choices.T.astype(np.float64))
        int_columns = range(n + n_rows, len(names))
    rows = np.hstack(blocks)
    atomic_write_text(path, _render(names, rows, metadata, int_columns))


def read_values_csv(path):
    """Read a value table; returns ``(ValueField, metadata)``."""
    names, data, metadata, n = _x_table(path)
    k = _numbered_block(names, "v", n, first=0)
    if k == 0:
        raise FileFormatError(f"{path}: no v0 column")
    choices = None
    rest = names[n + k :]
    if rest:
        if rest != [f"choice{i}" for i in range(k - 1)]:
            raise FileFormatError(
                f"{path}: unexpected trailing columns {rest}; {k} v columns "
                f"take {k - 1} choice columns, choice0 first"
            )
        cells = data[:, n + k :]
        # a float below 2**63 converts to int64 exactly; NaN fails every test
        _refuse_cell(
            path, rest, cells,
            ~((cells >= 0.0) & (cells == np.floor(cells)) & (cells < 2.0**63)),
            "every choice must be a non-negative integer",
        )
        choices = cells.astype(np.int64).T
    field = ValueField(
        points=data[:, :n], values=data[:, n : n + k].T, policy_choices=choices
    )
    return field, metadata


def write_mc_csv(path, points, values, halfwidths, metadata=None):
    """Write Monte Carlo estimates as ``x1..xn,value,halfwidth``."""
    points = np.atleast_2d(points)
    names = [f"x{i + 1}" for i in range(points.shape[1])] + ["value", "halfwidth"]
    rows = np.column_stack([points, values, halfwidths])
    atomic_write_text(path, _render(names, rows, metadata))


def read_value_table(path):
    """Read any value-bearing table for comparison.

    Accepts the output of the estimator, the grid oracle, or the Monte
    Carlo oracle. Returns ``(points, values, metadata)`` where ``values``
    is the ``v0`` column when present, else the ``value`` column. A NaN
    or infinite cell anywhere in the table is a format error.
    """
    names, data, metadata, n = _x_table(path)
    column = "v0" if "v0" in names else "value"
    if column not in names:
        raise FileFormatError(f"{path}: no v0 or value column")
    _refuse_cell(path, names, data, ~np.isfinite(data), "every cell must be finite")
    return data[:, :n], data[:, names.index(column)], metadata


def read_points(path, dim):
    """Read the ``x1..xn`` coordinate columns of any table as points.

    Raises :class:`InputError` when the table has no ``x1`` header, holds
    points of another dimension than ``dim``, or has no rows.
    """
    names, data, _ = _parse_table(path)
    n = _numbered_block(names, "x", 0)
    if n == 0:
        raise InputError(f"{path}: header must start with x1")
    if n != dim:
        raise InputError(f"{path}: points are {n}-D, expected {dim}-D")
    if data.shape[0] == 0:
        raise InputError(f"{path}: no points")
    return data[:, :n]
