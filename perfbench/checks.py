"""Output checks for the benchmark's workloads.

The checks read the CSV files the CLI writes with their own parser, so a
defect in the package's reader cannot hide one in its writer. Each check
returns a list of problems; an empty list means the output passed.
"""

import numpy as np

# the oracle must reproduce the committed grid-oracle table to round-off
DP_TOLERANCE = 1e-12
# max-mode values may sit below fixed-mode ones by round-off only
MONOTONE_TOLERANCE = 1e-12
# criterion-6 rule: |MC - grid| <= max(MC_FLOOR, MC_SIGMAS * half-width)
MC_FLOOR = 0.01
MC_SIGMAS = 3.0


class Table:
    """A CSV value table: ``# key=value`` comments, a header, float rows."""

    def __init__(self, names, data):
        self.names = list(names)
        self.data = np.asarray(data, dtype=np.float64).reshape(-1, len(self.names))

    @classmethod
    def read(cls, path):
        with open(path, encoding="utf-8") as handle:
            lines = [
                line.strip() for line in handle
                if line.strip() and not line.startswith("#")
            ]
        names = lines[0].split(",")
        rows = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
        return cls(names, rows)

    def column(self, name):
        return self.data[:, self.names.index(name)]

    def block(self, prefix):
        """Columns ``prefix0``/``prefix1``... (or ``x1, x2...`` for x)."""
        first = 1 if prefix == "x" else 0
        cols = []
        while f"{prefix}{first + len(cols)}" in self.names:
            cols.append(self.column(f"{prefix}{first + len(cols)}"))
        return np.column_stack(cols) if cols else np.empty((self.data.shape[0], 0))


def _probabilities(values, what):
    if values.size == 0:
        return [f"{what}: no values"]
    if not np.all(np.isfinite(values)):
        return [f"{what}: non-finite values"]
    if values.min() < 0.0 or values.max() > 1.0:
        return [
            f"{what}: values outside [0, 1] "
            f"(min {values.min():.17g}, max {values.max():.17g})"
        ]
    return []


def _same_points(table, ref, what):
    points = table.block("x")
    if points.shape != ref.block("x").shape:
        return [f"{what}: {points.shape} points, reference has {ref.block('x').shape}"]
    if not np.array_equal(points, ref.block("x")):
        return [f"{what}: evaluation points differ from the reference"]
    return []


def check_values(table, ref, what="values"):
    """A value table on the reference's points: x1, x2, v0..vN in [0, 1].

    Row N is the target indicator, which is exact, so it must equal the
    reference's.
    """
    problems = _same_points(table, ref, what)
    values = table.block("v")
    if values.shape != ref.block("v").shape:
        return problems + [
            f"{what}: value block {values.shape}, reference {ref.block('v').shape}"
        ]
    problems += _probabilities(values, what)
    if not problems and not np.array_equal(values[:, -1], ref.block("v")[:, -1]):
        problems.append(f"{what}: final step is not the target indicator")
    return problems


def check_max(table, fixed, ref, n_controls):
    """Max-mode table: valid values, valid choices, never below fixed mode.

    The estimator is monotone and u=0 is one of the candidate controls,
    so the maximum can only match or exceed the zero-policy value.
    """
    problems = check_values(table, ref, "max mode")
    choices = table.block("choice")
    horizon = table.block("v").shape[1] - 1
    if choices.shape != (table.data.shape[0], horizon):
        problems.append(f"max mode: expected {horizon} choice columns")
    elif not np.all(np.isin(choices, np.arange(n_controls))):
        problems.append(f"max mode: choices outside 0..{n_controls - 1}")
    if problems:
        return problems
    gap = table.block("v") - fixed.block("v")
    if gap.min() < -MONOTONE_TOLERANCE:
        problems.append(
            f"max mode: value below fixed mode by {-gap.min():.3g}"
        )
    return problems


def check_dp(table, ref):
    """Grid-oracle table within DP_TOLERANCE of the committed reference."""
    problems = check_values(table, ref, "oracle-dp")
    if problems:
        return problems
    err = np.abs(table.block("v") - ref.block("v")).max()
    if err > DP_TOLERANCE:
        problems.append(f"oracle-dp: differs from the reference by {err:.3g}")
    return problems


def check_mc(table, points, expected):
    """Monte Carlo table at ``points`` against grid values ``expected``."""
    what = "oracle-mc"
    if table.names != ["x1", "x2", "value", "halfwidth"]:
        return [f"{what}: unexpected header {table.names}"]
    if table.data.shape[0] != points.shape[0] or not np.array_equal(
        table.block("x"), points
    ):
        return [f"{what}: start points differ from the requested ones"]
    values = table.column("value")
    halfwidths = table.column("halfwidth")
    problems = _probabilities(values, what)
    if not np.all(halfwidths >= 0.0):
        problems.append(f"{what}: negative half-width")
    if problems:
        return problems
    allowed = np.maximum(MC_FLOOR, MC_SIGMAS * halfwidths)
    off = np.abs(values - expected) > allowed
    if off.any():
        worst = np.argmax(np.abs(values - expected) - allowed)
        problems.append(
            f"{what}: {int(off.sum())} points off the grid oracle, worst "
            f"{values[worst]:.6f} against {expected[worst]:.6f}"
        )
    return problems


def check_dims(table, dims):
    """bench-dims table: one row per dimension, values in [0, 1]."""
    what = "bench-dims"
    if table.names != ["n", "seconds", "value"]:
        return [f"{what}: unexpected header {table.names}"]
    if table.column("n").tolist() != [float(d) for d in dims]:
        return [f"{what}: dimensions {table.column('n').tolist()}, expected {dims}"]
    problems = _probabilities(table.column("value"), what)
    seconds = table.column("seconds")
    if not np.all(np.isfinite(seconds) & (seconds > 0.0)):
        problems.append(f"{what}: timings must be positive")
    return problems


def interior_max_err(table, ref, lower=-1.0, upper=1.0):
    """Max |v0 - reference v0| over points strictly inside the safe box."""
    points = ref.block("x")
    interior = np.all((points > lower) & (points < upper), axis=1)
    err = np.abs(table.column("v0") - ref.column("v0"))
    return float(err[interior].max())
